"""The networked deployment as separate processes: ``encloop net`` roles
started one after the other on each listening role's readiness line, and the
in-process ``encloop simulate`` runs that they must reproduce."""

import json

import pytest

from encloop.cli import main
from helpers import HOST, STEP_ATTACK, finish, listening_role, role_process

CONFIGS = {
    # the shortest encrypted-model attack of the tank (length = cooldown_len
    # = 4) runs within its derived depth, length + 2
    "short_attack": {"scenario": "attack_encrypted", "mode": "encrypted", "steps": 6,
                     "pre_roll": 2, "backend": {"max_depth": 6},
                     "attack": {"a_u": {}, "length": 4, "cooldown_len": 4}},
    # an honest verified loop under backend noise: the attacker never
    # injects, so every response passes the verifier's own threshold
    "honest": {"scenario": "verified_attack", "steps": 60, "pre_roll": 0,
               "backend": {"noise_std": 0.01}, "attack": {"a_u": {}, "length": 60}},
    "noisy_attack": {"scenario": "attack_encrypted", "steps": 30, "pre_roll": 10,
                     "seed": 7, "backend": {"noise_std": 1e-6}, "attack": STEP_ATTACK},
    # the honest loop at lambda = 16: 16 x 4 = 64 encoded slots, the
    # expansion of the benchmark's 2^16-slot loop
    "honest_wide": {"scenario": "verified_attack", "steps": 60, "pre_roll": 0,
                    "backend": {"noise_std": 0.01}, "verify": {"expansion": 16},
                    "attack": {"a_u": {}, "length": 60}},
    # test_cli.py's VERIFIED config with no pre-roll: the guessing attacker
    # is caught at step 0, which exits 3
    "caught": {"scenario": "verified_attack", "steps": 30, "pre_roll": 0, "seed": 1,
               "backend": {"slot_count": 64},
               "verify": {"expansion": 8, "num_challenges": 8}, "attack": STEP_ATTACK},
}


def write_config(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CONFIGS[name]))
    return str(path)


def plant_columns(path):
    """A trace CSV's columns 1-9 and 14: k, x1-x4, u1-u2, y1-y2 and the
    verdict. Columns 10-13 hold the controller's view, which the plant's
    trace does not have."""
    with open(path) as fh:
        return [",".join(row[:9] + row[13:14])
                for row in (line.rstrip("\n").split(",") for line in fh)]


@pytest.mark.parametrize("name", ["short_attack", "honest"])
def test_simulate_exits_ok(tmp_path, name):
    assert main(["simulate", "--config", write_config(tmp_path, name)]) == 0


@pytest.mark.parametrize("name, code", [("noisy_attack", 0), ("honest_wide", 0),
                                        ("caught", 3)])
def test_three_processes_match_in_process(tmp_path, name, code):
    """The plant, the attacker proxy and the controller as three processes
    write the in-process run's plant columns byte for byte, and the plant
    exits as ``simulate`` does. Each role draws its noise from its own key
    context on both transports, and the plant writes each step's encoding
    into its one slot buffer on both. On ``caught`` the plant rejects step
    0 and sends ABORT and BYE back to back, and both roles still exit 0."""
    cfg = write_config(tmp_path, name)
    in_process, tcp = tmp_path / "in_process.csv", tmp_path / "tcp.csv"
    assert main(["simulate", "--config", cfg, "--out-trace", str(in_process)]) == code
    with (listening_role("controller") as (controller, ctrl_port),
          listening_role("attacker", "--upstream", f"{HOST}:{ctrl_port}") as (proxy, port),
          role_process("net", "--role", "plant", "--connect", f"{HOST}:{port}",
                       "--config", cfg, "--out-trace", str(tcp)) as plant):
        finish(plant, code)
        # the readiness line was each role's only output
        assert finish(proxy).stdout == finish(controller).stdout == ""
    assert plant_columns(tcp) == plant_columns(in_process)
