"""README examples run as written: its JSON scenario config and its Python
API sketch. Its config keys are the ones the parse accepts."""

import json
import re
from pathlib import Path

from encloop.scenario import KEYS, ScenarioConfig, run_scenario

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.M | re.S)


def test_json_config_runs():
    (raw,) = fenced("json")
    trace, code = run_scenario(ScenarioConfig.from_dict(json.loads(raw)))
    assert code == 0
    assert len(trace) > 0


def test_python_api_sketch_runs(tmp_path, monkeypatch):
    (sketch,) = fenced("python")
    monkeypatch.chdir(tmp_path)  # the sketch writes its trace to the working directory
    exec(compile(sketch, "README.md", "exec"), {})
    assert (tmp_path / "attacked.csv").read_text().startswith("k,")


def test_every_config_key_documented():
    missing = [key for keys in KEYS.values() for key in keys if f"`{key}`" not in README]
    assert missing == []


def test_section_key_lists_match_the_parse():
    """The README's ``backend`` (...) and ``verify`` (...) lists name the
    keys those sections accept, in the parse's order."""
    for section in ("backend", "verify"):
        (listed,) = re.findall(rf"`{section}`\s*\(([^)]*)\)", README)
        assert tuple(re.findall(r"`(\w+)`", listed)) == KEYS[section]
