"""README examples run as written: its JSON scenario config and its Python
API sketch. Its config keys are the ones the parse accepts, and its exit
codes, as ``cli``'s docstring's, are the ones the CLI returns."""

import json
import re
from pathlib import Path

from encloop import cli
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


def test_exit_codes_documented():
    """The README's "Exit codes" sentence and ``cli``'s docstring name every
    exit constant with its number, e.g. "`4` plaintext out of range
    (`EXIT_RANGE`)"."""
    names = ("EXIT_OK", "EXIT_CONFIG", "EXIT_RUNTIME", "EXIT_VERIFICATION", "EXIT_RANGE")
    codes = {name: getattr(cli, name) for name in names}
    assert sorted(codes.values()) == [0, 1, 2, 3, 4]
    for text in (README, cli.__doc__):
        (sentence,) = re.findall(r"^Exit codes:.*?\.$", text, flags=re.M | re.S)
        named = re.findall(r"`?(\d+)`? [^()]*\(`?(EXIT_[A-Z]+)`?\)", sentence)
        assert {name: int(code) for code, name in named} == codes
