import dataclasses
import json
import re

import numpy as np
import pytest

from encloop import verify
from encloop.attack import CovertAttacker, GuessingAttacker, encrypted_attack_depth
from encloop.backend import BackendConfig, DepthExhausted, context_create
from encloop.control import (
    AffineController,
    LtiModel,
    SimTrace,
    run_closed_loop,
)
from encloop.scenario import (
    SCENARIOS,
    ConfigError,
    ScenarioConfig,
    build_attacker,
    build_verifier,
    run_scenario,
    write_trace_svg,
)
from helpers import STEP_ATTACK

NAN, INF = float("nan"), float("inf")


def minimal(scenario="baseline", **extra):
    raw = {"scenario": scenario, "steps": 10, "pre_roll": 5, "seed": 1}
    if scenario != "baseline":
        raw["attack"] = STEP_ATTACK
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

    @pytest.mark.parametrize("mode", ["plain", "encrypted"])
    @pytest.mark.parametrize("section, extra", [
        # a 1 x 2 K on a one-output model: encrypted, it read u0 as its
        # second input and ran to exit 0; plain, numpy's matmul raised
        ("controller", {"model": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
                        "controller": {"K": [[0.2, 0.1]], "u0": [0.3]}, "x0": [1.0]}),
        # the tank preset controller (2 x 2) on a one-state model
        ("controller", {"model": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]]}, "x0": [1.0]}),
        # a 1 x 2 K on the tank (two inputs)
        ("controller", {"controller": {"K": [[1.0, 0.5]], "u0": [0.0]}}),
        # no input (m = 0): it ran to exit 0 and dropped the controller's output
        ("model", {"model": {"A": [[0.5]], "B": [[]], "C": [[1.0]]},
                   "controller": {"K": [[0.2]], "u0": [0.0]}, "x0": [1.0]})])
    def test_controller_must_fit_the_model(self, section, extra, mode):
        """K must be model.m x model.p, and the model needs an input and an
        output, in both modes."""
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal(mode=mode, **extra))
        assert exc.value.name == section

    @pytest.mark.parametrize("encrypted", [False, True])
    def test_loop_refuses_a_controller_of_another_shape(self, encrypted):
        model = LtiModel(A=[[0.5]], B=[[1.0]], C=[[1.0]])
        ctrl = AffineController(K=[[0.2, 0.1]], u0=[0.3])
        ctx = context_create(BackendConfig(slot_count=64)) if encrypted else None
        with pytest.raises(ValueError, match="K must be 1 x 1"):
            run_closed_loop(model, ctrl, [1.0], 5, ctx=ctx)

    def test_x0_shape_check(self):
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(minimal(x0=[1.0, 2.0]))
        assert exc.value.name == "x0"

    def test_attack_scenario_needs_plan(self):
        raw = minimal("attack_plain")
        del raw["attack"]
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "attack"

    @pytest.mark.parametrize("scenario, slot_count", [
        ("baseline", 4), ("attack_plain", 4), ("attack_encrypted", 8),
        ("verified_attack", 16)])
    def test_smallest_slot_count(self, scenario, slot_count):
        # one lifted tank block is 4 slots; the verified loop packs
        # expansion = 4 of them, and the encrypted model's widest matrix,
        # the (8 x 4) cooldown matrix, needs n * m = 8
        raw = minimal(scenario, mode="encrypted", steps=6, pre_roll=2)
        raw["backend"] = {"slot_count": slot_count}
        _, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code in (0, 3)
        raw["backend"] = {"slot_count": slot_count // 2}
        with pytest.raises(ConfigError, match=f"slot_count >= {slot_count}") as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "backend"

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_lifted_blocks_derived_not_read(self, scenario):
        """The controller holds ``expansion`` lifted blocks in the verified
        loop and one in every other, whatever the verify section says; the
        count is derived, not a document key."""
        raw = minimal(scenario, mode="encrypted", verify={"expansion": 8},
                      backend={"slot_count": 64})
        assert ScenarioConfig.from_dict(raw).lifted_blocks == (
            8 if scenario == "verified_attack" else 1)
        with pytest.raises(ConfigError, match="unknown key"):
            ScenarioConfig.from_dict(dict(raw, lifted_blocks=8))

    def test_plain_channel_ignores_slot_count(self):
        raw = minimal("attack_plain", backend={"slot_count": 1})
        assert ScenarioConfig.from_dict(raw).mode == "plain"

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

    @pytest.mark.parametrize("section, raw", [
        ("config", {"scenario": "baseline", "stpes": 10}),
        ("backend", {"backend": {"slot_count": 64, "max_dpeth": 8}}),
        ("verify", {"verify": {"lambda": 8}}),
        ("verify", {"verify": {"M": 8}}),
        ("verify", {"verify": {"epsilon": 1e-6}}),
        ("attack", {"scenario": "attack_plain",
                    "attack": dict(STEP_ATTACK, cooldown=4)}),
        ("verify", {"verify": 4})])
    def test_unknown_key_named_error(self, section, raw):
        # an old alias or a misspelt key is refused, never silently defaulted
        with pytest.raises(ConfigError, match="unknown key|expected a JSON object") as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == section

    def test_peer_parses_hello_to_equal_values(self):
        raw = minimal("attack_plain",
                      attack={"a_u": {"0": [2.0, 2.0]}, "length": 10,
                              "cooldown_len": 4})
        cfg = ScenarioConfig.from_dict(raw)
        peer = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.document)))
        assert peer == cfg
        assert (peer.scenario, peer.mode, peer.steps, peer.pre_roll, peer.seed) == (
            cfg.scenario, cfg.mode, cfg.steps, cfg.pre_roll, cfg.seed)
        assert peer.backend == cfg.backend
        assert (peer.expansion, peer.num_challenges, peer.threshold) == (
            cfg.expansion, cfg.num_challenges, cfg.threshold)
        assert peer.attack_plan.length == 10
        assert np.array_equal(peer.attack_plan.schedule[0], [2.0, 2.0])
        for a, b in ((peer.model.A, cfg.model.A), (peer.controller.K, cfg.controller.K),
                     (peer.x0, cfg.x0)):
            assert np.array_equal(a, b)


class TestFrozenDocument:
    """A config is the parse of its own copy of a JSON document; nothing
    changes it afterwards."""

    def test_assigning_a_field_raises(self):
        cfg = ScenarioConfig.from_dict(minimal())
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.steps = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.document = {}

    @pytest.mark.parametrize("name, value", [
        ("backend", BackendConfig(slot_count=64, max_depth=1)), ("steps", 3),
        ("threshold", float("inf"))])
    def test_replace_of_a_parsed_field_raises(self, name, value):
        cfg = ScenarioConfig.from_dict(minimal())
        with pytest.raises(ValueError, match="init=False"):
            dataclasses.replace(cfg, **{name: value})

    def test_replace_of_the_document_parses_it(self):
        cfg = ScenarioConfig.from_dict(minimal())
        assert dataclasses.replace(cfg, document=minimal(steps=3)).steps == 3
        with pytest.raises(ConfigError, match="steps >= 1"):
            dataclasses.replace(cfg, document=minimal(steps=0))

    def test_later_changes_to_the_dict_do_not_reach_the_config(self):
        raw = json.loads(json.dumps(minimal("attack_plain", backend={"slot_count": 64})))
        cfg = ScenarioConfig.from_dict(raw)
        hello = json.dumps(cfg.document)
        raw["steps"] = 99
        raw["backend"]["slot_count"] = 8
        raw["attack"]["a_u"]["0"][0] = -7.0
        assert cfg.steps == 10 and cfg.backend.slot_count == 64
        assert np.array_equal(cfg.attack_plan.schedule[0], [2.0, 2.0])
        assert json.dumps(cfg.document) == hello

    def test_document_is_json(self):
        # integer keys become strings, as the peer receives them
        cfg = ScenarioConfig.from_dict(minimal("attack_plain",
                                               attack={"a_u": {0: [1.0, 1.0]}, "length": 10}))
        assert cfg.document["attack"]["a_u"] == {"0": [1.0, 1.0]}
        with pytest.raises(ConfigError, match="not JSON serializable") as exc:
            ScenarioConfig.from_dict(minimal(x0=np.zeros(4)))
        assert exc.value.name == "config"


class TestMalformedValues:
    """Every value the parse reads is checked under its section's name."""

    @pytest.mark.parametrize("section, extra", [
        ("horizon", {"steps": "abc"}),
        ("horizon", {"pre_roll": "x"}),
        ("horizon", {"steps": [1]}),
        ("seed", {"seed": "s"}),
        ("x0", {"x0": ["a", "b", "c", "d"]}),
        ("backend", {"backend": {"slot_count": None}}),
        ("verify", {"verify": {"expansion": "four"}}),
        ("attack", {"attack": {"a_u": [1], "length": 10}}),
        ("attack", {"attack": {"a_u": {"x": [1.0, 1.0]}, "length": 10}}),
        ("attack", {"attack": [1]}),
        ("model", {"model": {"A": None, "B": [[1.0]], "C": [[1.0]]}}),
        ("backend", {"backend": {"slot_count": 2 ** 17}}),
        ("model", {"model": "pendulum"}),
        ("controller", {"controller": "pid"}),
        ("mode", {"mode": "hybrid"}),
        ("model", {"model": {"A": [[1.0, 0.0]], "B": [[1.0]], "C": [[1.0]]}}),
        ("model", {"model": {"A": np.eye(2).tolist(), "B": [[1.0]], "C": [[1.0, 0.0]]}}),
        ("model", {"model": {"A": [[1.0]], "B": [[1.0]], "C": [[1.0, 0.0]]}})])
    def test_named_config_error(self, section, extra):
        raw = minimal("attack_plain", **extra)
        with pytest.raises(ConfigError) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == section

    @pytest.mark.parametrize("section, extra", [
        ("x0", {"x0": [NAN, 0.0, 0.0, 0.0]}),
        ("x0", {"x0": [0.0, INF, 0.0, 0.0]}),
        ("attack", {"attack": dict(STEP_ATTACK, a_u={"0": [NAN, 1.0]})}),
        ("attack", {"attack": dict(STEP_ATTACK, a_u={"0": [1.0, -INF]})}),
        ("model", {"model": {"A": [[NAN]], "B": [[1.0]], "C": [[1.0]]}}),
        ("model", {"model": {"A": [[0.5]], "B": [[INF]], "C": [[1.0]]}}),
        ("controller", {"controller": {"K": [[NAN, 0.0]], "u0": [0.0]}}),
        ("controller", {"controller": {"K": [[1.0, 0.0]], "u0": [INF]}})])
    def test_non_finite_array_refused(self, section, extra):
        with pytest.raises(ConfigError, match="must be finite") as exc:
            ScenarioConfig.from_dict(minimal("attack_plain", **extra))
        assert exc.value.name == section

    @pytest.mark.parametrize("section, extra", [
        ("horizon", {"steps": 2.7}), ("horizon", {"pre_roll": True}),
        ("horizon", {"steps": NAN}), ("horizon", {"pre_roll": INF}),
        ("seed", {"seed": 1.5}), ("seed", {"seed": False}),
        ("backend", {"backend": {"slot_count": 64.5}}),
        ("backend", {"backend": {"max_depth": True}}),
        ("backend", {"backend": {"seed": 2.5}}),
        ("attack", {"attack": dict(STEP_ATTACK, length=10.5)}),
        ("attack", {"attack": dict(STEP_ATTACK, cooldown_len=True)}),
        ("verify", {"verify": {"expansion": 4.5}}),
        ("verify", {"verify": {"num_challenges": True}})])
    def test_count_must_be_an_integer(self, section, extra):
        with pytest.raises(ConfigError, match="must be an integer") as exc:
            ScenarioConfig.from_dict(minimal("attack_plain", **extra))
        assert exc.value.name == section

    @pytest.mark.parametrize("scenario, section, extra", [
        ("baseline", "seed", {"seed": -1, "mode": "encrypted"}),
        ("baseline", "seed", {"seed": -1, "mode": "plain"}),
        ("attack_plain", "seed", {"seed": -2, "mode": "plain"}),
        ("verified_attack", "seed", {"seed": -1}),
        ("baseline", "backend", {"backend": {"seed": -3}}),
        ("baseline", "backend", {"seed": 1, "mode": "plain", "backend": {"seed": -1}})])
    def test_negative_seed_refused(self, scenario, section, extra):
        """A negative seed is refused under its section's name, in plain
        mode too, where nothing would draw from it."""
        with pytest.raises(ConfigError, match="seed must be non-negative") as exc:
            ScenarioConfig.from_dict(minimal(scenario, **extra))
        assert exc.value.name == section

    def test_integral_float_count_accepted(self):
        cfg = ScenarioConfig.from_dict(minimal(steps=3.0, backend={"slot_count": 64.0}))
        assert (cfg.steps, cfg.backend.slot_count) == (3, 64)
        assert type(cfg.steps) is int

    @pytest.mark.parametrize("key, value", [
        ("threshold", float("inf")), ("threshold", float("nan")), ("threshold", 0.0),
        ("threshold", -1e-9)])
    def test_threshold_finite_and_positive(self, key, value):
        raw = minimal("verified_attack", verify={key: value})
        with pytest.raises(ConfigError, match="threshold must be finite and positive"
                           ) as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "verify"

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -1.0])
    def test_noise_std_finite_and_nonnegative(self, noise_std):
        raw = minimal("verified_attack", backend={"slot_count": 64, "noise_std": noise_std})
        with pytest.raises(ConfigError, match="noise_std must be finite") as exc:
            ScenarioConfig.from_dict(raw)
        assert exc.value.name == "backend"


# controllable 3-state and 1-state, single-input, single-output models
MODEL3 = {"A": [[0.9, 0.1, 0.0], [0.0, 0.8, 0.1], [0.0, 0.0, 0.7]],
          "B": [[0.0], [0.0], [1.0]], "C": [[1.0, 0.0, 0.0]]}
MODEL1 = {"A": [[0.8]], "B": [[1.0]], "C": [[1.0]]}


class TestDepthBudget:
    """``attack_encrypted`` needs max_depth >= ``encrypted_attack_depth``,
    and the derived depth is tight: it runs, and one level less fails."""

    @staticmethod
    def config(length, max_depth, n=4):
        m = 2 if n == 4 else 1
        bias = {"0": [1.0] * m} if length > n else {}  # no active phase when length == n
        raw = minimal("attack_encrypted", steps=length + 2, pre_roll=2,
                      backend={"slot_count": 64, "max_depth": max_depth},
                      attack={"a_u": bias, "length": length, "cooldown_len": n})
        if n != 4:
            raw.update(model=MODEL3 if n == 3 else MODEL1,
                       controller={"K": [[0.5]], "u0": [0.0]}, x0=[1.0] + [0.0] * (n - 1))
        return raw

    @pytest.mark.parametrize("n, length, need", [
        (4, 4, 6), (4, 5, 7), (4, 6, 8), (4, 7, 9), (4, 8, 10), (4, 10, 12), (4, 12, 14),
        (4, 16, 18), (3, 3, 5), (3, 4, 6), (3, 6, 8), (3, 9, 11), (1, 1, 2), (1, 3, 4)])
    def test_derived_depth_is_tight(self, n, length, need):
        cfg = ScenarioConfig.from_dict(self.config(length, need, n))
        assert encrypted_attack_depth(cfg.attack_plan) == need
        _, code = run_scenario(cfg)
        assert code == 0
        with pytest.raises(ConfigError, match=f"needs max_depth >= {need}, got {need - 1}"
                           ) as exc:
            ScenarioConfig.from_dict(self.config(length, need - 1, n))
        assert exc.value.name == "backend"
        # one level less fails at run time: the same attack under a context
        # built with max_depth = need - 1
        ctx = context_create(dataclasses.replace(cfg.backend, max_depth=need - 1))
        with pytest.raises(DepthExhausted):
            run_closed_loop(cfg.model, cfg.controller, cfg.x0, cfg.steps,
                            attacker=build_attacker(cfg, context_create(ctx.config, "attacker")),
                            ctx=ctx, pre_roll=cfg.pre_roll)


class TestRunScenario:
    @pytest.mark.parametrize("mode", ["plain", "encrypted"])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_every_kind_and_mode(self, scenario, mode):
        """A (kind, mode) pair is a named config error or a run that exits 0
        or 3; no other exception escapes."""
        raw = minimal(scenario, mode=mode, steps=6, pre_roll=2)
        try:
            cfg = ScenarioConfig.from_dict(raw)
        except ConfigError as exc:
            assert (exc.name, mode) == ("mode", "plain")
            assert scenario in ("attack_encrypted", "verified_attack")
            return
        _, code = run_scenario(cfg)
        assert code in (0, 3)

    @pytest.mark.parametrize("scenario, kind, encrypted_model", [
        ("attack_plain", CovertAttacker, False),
        ("attack_encrypted", CovertAttacker, True),
        ("verified_attack", GuessingAttacker, False)])
    def test_kind_alone_picks_the_attacker(self, scenario, kind, encrypted_model):
        cfg = ScenarioConfig.from_dict(minimal(scenario, mode="encrypted"))
        pub = context_create(BackendConfig(slot_count=64), "attacker")
        attacker = build_attacker(cfg, pub)
        assert type(attacker) is kind
        assert (attacker.enc_model is not None) == encrypted_model

    @pytest.mark.parametrize("scenario, mode", [("attack_plain", "plain"),
                                                ("attack_plain", "encrypted"),
                                                ("verified_attack", "encrypted")])
    @pytest.mark.parametrize("a_u", [{}, {"0": [0.0, 0.0], "4": [-0.0, 0.0]}])
    def test_zero_plaintext_plan_builds_no_attacker(self, scenario, mode, a_u):
        """A plaintext-model attacker with all-zero biases splices nothing, so
        none is built: the run equals the one with that attacker attached, in
        its trace and its op counts."""
        cfg = ScenarioConfig.from_dict(minimal(
            scenario, mode=mode, steps=20, backend={"slot_count": 64, "noise_std": 1e-3},
            attack={"a_u": a_u, "length": 10, "cooldown_len": 4}))
        attackers = {
            "attack_plain": lambda pub: CovertAttacker(cfg.model, cfg.attack_plan, ctx=pub),
            "verified_attack": lambda pub: GuessingAttacker(
                cfg.model, cfg.attack_plan, pub, expansion=cfg.expansion,
                rng=np.random.default_rng(cfg.seed + 1))}
        runs = []
        for attached in (False, True):
            ctx = context_create(cfg.backend) if mode == "encrypted" else None
            pub = context_create(ctx.config, "attacker") if ctx is not None else None
            attacker = build_attacker(cfg, pub)
            assert attacker is None
            if attached:
                attacker = attackers[scenario](pub)
            verifier = build_verifier(cfg)
            trace = run_closed_loop(cfg.model, cfg.controller, cfg.x0, cfg.steps,
                                    attacker=attacker, ctx=ctx, pre_roll=cfg.pre_roll,
                                    verifier=verifier)
            runs.append((trace, ctx and ctx.op_counts, pub and pub.op_counts))
        (t0, ops0, pub0), (t1, ops1, pub1) = runs
        assert t0.verdict == t1.verdict and len(t0) == 25
        for name in ("k", "x", "u", "y", "u_c", "y_c"):
            assert np.array_equal(getattr(t0, name), getattr(t1, name))
        assert (ops0, pub0) == (ops1, pub1)

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_verifier_only_when_verified(self, scenario):
        """``build_verifier`` builds the lifted controller's verifier for a
        ``verified_attack`` config and nothing for any other kind."""
        cfg = ScenarioConfig.from_dict(minimal(scenario, mode="encrypted"))
        verifier = build_verifier(cfg)
        if scenario == "verified_attack":
            assert verifier.expansion == cfg.expansion
            assert np.array_equal(verifier.h, verify.lift_affine(-cfg.controller.K))
        else:
            assert verifier is None

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_noiseless_run_builds_no_noise_generator(self, scenario, contexts):
        """A noiseless run draws no noise, so none of its key contexts (the
        plant's, the controller's, the attacker's and the observer's of an
        unverified controller) builds a generator."""
        _, code = run_scenario(ScenarioConfig.from_dict(minimal(scenario, mode="encrypted")))
        assert code == (3 if scenario == "verified_attack" else 0)
        parties = ["plant", "controller"]
        parties += [] if scenario == "baseline" else ["attacker"]
        parties += [] if scenario == "verified_attack" else ["observer"]
        assert sorted(c.party for c in contexts) == sorted(parties)
        assert all(c._rng is None for c in contexts)

    def test_baseline_exit_zero(self):
        trace, code = run_scenario(ScenarioConfig.from_dict(minimal(steps=30)))
        assert code == 0
        assert len(trace) == 35

    def test_attack_plain(self):
        raw = minimal("attack_plain", steps=30, pre_roll=10)
        baseline = ScenarioConfig.from_dict(minimal(steps=30, pre_roll=10))
        t_base, _ = run_scenario(baseline)
        t_atk, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code == 0
        assert np.max(np.abs(np.array(t_atk.y_c) - np.array(t_base.y_c))) < 1e-6
        assert np.max(np.abs(np.array(t_atk.x) - np.array(t_base.x))) > 0.1

    def test_verified_attack_exit_three(self):
        raw = minimal("verified_attack", steps=30,
                      verify={"expansion": 8, "num_challenges": 8})
        trace, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code == 3
        assert trace.verdict[-1] == "bottom"

    @pytest.mark.parametrize("noise_std", [1e-4, 1e-2])
    def test_honest_verified_never_rejected_under_noise(self, noise_std):
        """The verifier derives its acceptance threshold from the noise
        level, the lifted controller and its own input, so an honest loop
        (the attacker never injects) passes every step at any backend noise
        level."""
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

    @pytest.mark.parametrize("noise_std", [1e-4, 1e-2])
    def test_honest_verified_within_a_quarter_of_eps(self, monkeypatch, noise_std):
        """Completeness with margin: over 20 seeds x 60 honest verified steps
        no run ends bottom, and every challenge deviation and half every
        replica spread stay below eps / 4. The threshold counts the three
        diagonals the tank's lifted block stores (``noise_terms``), so a
        threshold that shrank below the response noise would show here
        before it rejected an honest step."""
        outcomes = []
        real_dcd = verify.dcd

        def spy(vctx, tag, z):
            outcomes.append(real_dcd(vctx, tag, z))
            return outcomes[-1]

        monkeypatch.setattr(verify, "dcd", spy)
        for seed in range(20):
            raw = minimal("verified_attack", steps=60, pre_roll=0, seed=seed,
                          backend={"slot_count": 64, "noise_std": noise_std},
                          attack={"a_u": {}, "length": 10},
                          verify={"expansion": 4})
            trace, code = run_scenario(ScenarioConfig.from_dict(raw))
            assert code == 0 and trace.verdict == ["ok"] * 60
        assert len(outcomes) == 20 * 60
        ratio = max(max(o.deviation.max(), o.spread / 2) / o.eps for o in outcomes)
        assert ratio < 0.25

    @pytest.mark.parametrize("slot_count", [64, 1024])
    def test_verification_costs_no_he_op(self, contexts, slot_count):
        """Per step and per role, an honest verified loop spends exactly the
        HE ops of the encrypted baseline. The plant encrypts its input and
        decrypts the reply; the controller runs the lifted block's matvec
        over its three stored diagonals (3 rotations, 3 multiplies, 2
        additions). Only next to the baseline controller does an observer
        decrypt the controller's view of its input and output block
        (``controller_role``)."""
        def ops(raw):
            contexts.clear()
            trace, code = run_scenario(ScenarioConfig.from_dict(raw))
            assert code == 0
            return {(c.party, op): n for c in contexts for op, n in c.op_counts.items()}

        per_step = {}
        for kind, extra in (("baseline", {}),
                            ("verified_attack", {"attack": {"a_u": {}, "length": 10}})):
            raw = minimal(kind, mode="encrypted", pre_roll=0,
                          backend={"slot_count": slot_count}, **extra)
            short, long = ops(dict(raw, steps=10)), ops(dict(raw, steps=30))
            per_step[kind] = {key: (long[key] - short[key]) / 20 for key in short
                              if long[key] != short[key]}
        plant = {("plant", "enc"): 1, ("plant", "dec"): 1}
        controller = {("controller", "rot"): 3, ("controller", "mul"): 3,
                      ("controller", "add"): 2}
        assert per_step["verified_attack"] == {**plant, **controller}
        assert per_step["baseline"] == {**plant, **controller, ("observer", "dec"): 2}

    def test_honest_verified_fills_4096_slots(self):
        """expansion 1024 x block 4 fills every slot: the lifted controller
        is encoded from its block, not from a dense 4096 x 4096 lift."""
        raw = minimal("verified_attack", steps=3, pre_roll=0,
                      backend={"slot_count": 4096},
                      attack={"a_u": {}, "length": 10},
                      verify={"expansion": 1024})
        trace, code = run_scenario(ScenarioConfig.from_dict(raw))
        assert code == 0
        assert trace.verdict == ["ok"] * 3


class TestSvgPlot:
    def test_writes_valid_svg(self, tmp_path):
        trace, _ = run_scenario(ScenarioConfig.from_dict(minimal(steps=20)))
        path = tmp_path / "trace.svg"
        write_trace_svg(trace, path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        # one polyline per channel component: u1 u2 y1 y2 uc1 uc2 yc1 yc2
        assert text.count("<polyline") == 8 and "<circle" not in text

    def test_one_step_trace_plots(self, tmp_path):
        # a zero k-span is drawn over a unit span, every point at the axis
        trace, _ = run_scenario(
            ScenarioConfig.from_dict(minimal(steps=1, pre_roll=0)))
        path = tmp_path / "x.svg"
        write_trace_svg(trace, path)
        text = path.read_text()
        assert text.count("<polyline") == 8 and "nan" not in text
        assert text.count('<polyline points="60.00,') == 8
        # a one-point polyline renders as nothing: one marker per channel, in its color
        strokes = re.findall(r'<polyline [^>]*stroke="([^"]+)"', text)
        fills = re.findall(r'<circle cx="60.00" cy="[^"]+" r="3" fill="([^"]+)"/>', text)
        assert fills == strokes

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty trace"):
            write_trace_svg(SimTrace(), tmp_path / "x.svg")
        assert not (tmp_path / "x.svg").exists()
