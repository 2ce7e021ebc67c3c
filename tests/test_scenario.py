import json

import numpy as np
import pytest

from encloop.scenario import (
    ConfigError,
    ScenarioConfig,
    run_scenario,
    write_trace_svg,
)


def minimal(scenario="baseline", **extra):
    raw = {"scenario": scenario, "steps": 10, "pre_roll": 5, "seed": 1}
    raw.update(extra)
    return raw


class TestConfigParsing:
    def test_defaults(self):
        cfg = ScenarioConfig.from_dict({})
        assert cfg.scenario == "baseline"
        assert cfg.model.n == 4
        assert cfg.mode == "plain"
        assert cfg.backend.slot_count == 64

    def test_unknown_scenario_named_error(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict({"scenario": "meltdown"})
        assert exc.value.name == "scenario"

    def test_bad_backend(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal(backend={"slot_count": 63}))
        assert exc.value.name == "backend"

    def test_explicit_model_and_controller(self):
        raw = minimal(
            model={"A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
            controller={"K": [[0.2]], "u0": [0.0]},
            x0=[1.0],
        )
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.model.n == 1
        trace, code = run_scenario(cfg)
        assert code == 0

    def test_x0_shape_check(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal(x0=[1.0, 2.0]))
        assert exc.value.name == "x0"

    def test_attack_scenario_needs_plan(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal("attack_plain"))
        assert exc.value.name == "attack"

    def test_attack_bias_dimension_check(self):
        raw = minimal("attack_plain",
                      attack={"a_u": {"0": [1.0]}, "length": 10})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "attack"

    def test_encrypted_scenario_requires_encrypted_mode(self):
        raw = minimal("attack_encrypted", mode="plain",
                      attack={"a_u": {}, "length": 10})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "mode"

    def test_verify_validation(self):
        raw = minimal("verified_attack",
                      attack={"a_u": {}, "length": 10},
                      verify={"expansion": 3})
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "verify"

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_json(path)
        assert exc.value.name == "json"

    def test_round_trip_through_dict(self):
        raw = minimal("attack_plain",
                      attack={"a_u": {"0": [2.0, 2.0]}, "length": 10,
                              "cooldown_len": 4})
        cfg = ScenarioConfig.from_dict(raw)
        cfg2 = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert cfg2.scenario == cfg.scenario
        assert cfg2.attack_plan.length == 10
        assert np.array_equal(cfg2.attack_plan.schedule[0], [2.0, 2.0])
        assert np.array_equal(cfg2.model.A, cfg.model.A)


class TestRunScenario:
    def test_baseline_exit_zero(self):
        trace, code = run_scenario(ScenarioConfig.from_dict(minimal(steps=30)))
        assert code == 0
        assert len(trace) == 35

    def test_attack_plain(self):
        raw = minimal("attack_plain", steps=30, pre_roll=10,
                      attack={"a_u": {str(k): [2.0, 2.0] for k in range(5)},
                              "length": 10, "cooldown_len": 4})
        baseline = ScenarioConfig.from_dict(minimal(steps=30, pre_roll=10))
        t_base, _ = run_scenario(baseline)
        t_atk, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code == 0
        assert np.max(np.abs(np.array(t_atk.y_c) - np.array(t_base.y_c))) < 1e-6
        assert np.max(np.abs(np.array(t_atk.x) - np.array(t_base.x))) > 0.1

    def test_verified_attack_exit_three(self):
        raw = minimal("verified_attack", steps=30,
                      attack={"a_u": {str(k): [2.0, 2.0] for k in range(5)},
                              "length": 10, "cooldown_len": 4},
                      verify={"expansion": 8, "num_challenges": 8})
        trace, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code == 3
        assert trace.verdict[-1] == "bottom"

    @pytest.mark.parametrize("noise_std", [1e-4, 1e-2])
    def test_honest_verified_never_rejected_under_noise(self, noise_std):
        """The acceptance threshold follows the response's noise bound, so an
        honest loop (the attacker never injects) passes every step at any
        backend noise level."""
        bottoms = 0
        for seed in range(50):
            raw = minimal("verified_attack", steps=40, pre_roll=10, seed=seed,
                          backend={"slot_count": 64, "noise_std": noise_std},
                          attack={"a_u": {}, "length": 10},
                          verify={"expansion": 4})
            trace, _ = run_scenario(ScenarioConfig.from_dict(raw))
            assert "ok" in trace.verdict
            bottoms += trace.verdict.count("bottom")
        assert bottoms == 0


class TestSvgPlot:
    def test_writes_valid_svg(self, tmp_path):
        trace, _ = run_scenario(ScenarioConfig.from_dict(minimal(steps=20)))
        path = tmp_path / "trace.svg"
        write_trace_svg(trace, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        # one polyline per channel component: u1 u2 y1 y2 uc1 uc2 yc1 yc2
        assert text.count("<polyline") == 8

    def test_short_trace_rejected(self, tmp_path):
        trace, _ = run_scenario(
            ScenarioConfig.from_dict(minimal(steps=1, pre_roll=0)))
        with pytest.raises(ValueError):
            write_trace_svg(trace, tmp_path / "x.svg")
