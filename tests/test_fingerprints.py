"""Committed trace fingerprints: every scenario's trace, verdicts, exit code
and HE op counts over a fixed grid, pinned in ``fingerprints.json``.

A change that keeps the simulator's behaviour keeps every entry. A mismatch
names the run and the column. A change that alters a trace on purpose
re-pins with

    ENCLOOP_REPIN=1 PYTHONPATH=src python -m pytest tests/test_fingerprints.py

and says in CHANGES.md which entries changed and why. Columns are hashed
after rounding to 10 decimals, so the pins do not depend on the last bits of
a numpy build's float arithmetic.
"""

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from encloop.scenario import ScenarioConfig, run_scenario
from encloop.verify import run_detection_experiment

PINS = Path(__file__).with_name("fingerprints.json")
REPIN = os.environ.get("ENCLOOP_REPIN") == "1"

KIND_MODES = (("baseline", "plain"), ("baseline", "encrypted"),
              ("attack_plain", "plain"), ("attack_plain", "encrypted"),
              ("attack_encrypted", "encrypted"), ("verified_attack", "encrypted"))
SLOTS = (64, 1024)
NOISE = (0.0, 1e-6)
SEEDS = (1, 7)
COLUMNS = ("x", "u", "y", "u_c", "y_c")
ATTACK = {"a_u": {str(k): [0.5, -0.25] for k in range(5)}, "length": 10, "cooldown_len": 4}


def scenario_runs() -> dict[str, dict]:
    runs = {}
    for (kind, mode), slots, noise, seed in itertools.product(KIND_MODES, SLOTS, NOISE, SEEDS):
        raw = {"scenario": kind, "mode": mode, "steps": 40, "pre_roll": 20, "seed": seed,
               "backend": {"slot_count": slots, "noise_std": noise}}
        if kind != "baseline":
            raw["attack"] = ATTACK
        runs[f"{kind}/{mode}/slots{slots}/noise{noise:g}/seed{seed}"] = raw
    # sixteen blocks per ciphertext: the lifted controller replicates its
    # block sixteen times, so its wrapped diagonals cross block boundaries
    for noise, seed in itertools.product(NOISE, SEEDS):
        raw = {"scenario": "verified_attack", "steps": 40, "pre_roll": 20, "seed": seed,
               "backend": {"slot_count": 1024, "noise_std": noise},
               "attack": ATTACK, "verify": {"expansion": 16}}
        runs[f"verified_attack/encrypted/slots1024/noise{noise:g}/seed{seed}/lam16"] = raw
    return runs


RUNS = scenario_runs()
DETECT = ("detect/fast", "detect/full")


def digest(rows) -> str:
    # + 0.0 turns a rounded -0.0 into 0.0
    v = np.round(np.asarray(rows, dtype=float), 10) + 0.0
    return hashlib.sha256(v.astype("<f8").tobytes()).hexdigest()


def verdict_string(verdicts) -> str:
    """Run-length form of the verdict column, e.g. ``ok*59 bottom*1``."""
    return " ".join(f"{v}*{len(list(g))}" for v, g in itertools.groupby(verdicts))


def summed_ops(contexts) -> dict[str, int]:
    return {op: sum(c.op_counts[op] for c in contexts)
            for op in ("enc", "add", "mul", "rot", "dec")}


def fingerprint(run_id: str, contexts: list) -> dict:
    """The pinned record of one run; ``contexts`` collects every KeyContext
    the run creates."""
    if run_id in DETECT:
        out = run_detection_experiment(4, 10, 200, mode=run_id.split("/")[1])
        return {"counts": {str(k): c for k, c in out["counts"].items()},
                "undetected": out["undetected"], "ops": summed_ops(contexts)}
    trace, code = run_scenario(ScenarioConfig.from_dict(RUNS[run_id]))
    record = {col: digest(getattr(trace, col)) for col in COLUMNS}
    record.update(verdict=verdict_string(trace.verdict), exit=code, ops=summed_ops(contexts))
    return record


@pytest.fixture(scope="module")
def pins():
    pinned = json.loads(PINS.read_text()) if PINS.exists() else {}
    yield pinned
    if REPIN:
        current = {k: v for k, v in pinned.items() if k in RUNS or k in DETECT}
        PINS.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n")


@pytest.mark.parametrize("run_id", [*RUNS, *DETECT])
def test_fingerprint(run_id, contexts, pins):
    got = fingerprint(run_id, contexts)
    if REPIN:
        pins[run_id] = got
        return
    assert run_id in pins, f"{run_id}: not pinned; re-pin with ENCLOOP_REPIN=1"
    want = pins[run_id]
    changed = [f"{key}: pinned {want.get(key)!r}, got {got.get(key)!r}"
               for key in sorted(set(want) | set(got)) if want.get(key) != got.get(key)]
    assert not changed, f"{run_id} differs in " + "; ".join(changed)


def test_no_stale_pins(pins):
    if REPIN:
        return  # re-pinning drops stale entries when it writes the file
    stale = sorted(set(pins) - set(RUNS) - set(DETECT))
    assert not stale, f"pinned runs no longer in the grid: {stale}"
