"""The resilience range of the verified loop: an attacker that splices onto
every block needs no guess of the payload positions. Below the acceptance
threshold eps it is never caught, and it moves the plant by about G t;
above eps it is caught at once."""

import numpy as np
import pytest

from encloop import scenario, verify
from encloop.attack import CovertAttacker
from encloop.scenario import EXIT_OK, EXIT_VERIFICATION, ScenarioConfig, run_scenario

EXPANSION, PRE_ROLL, STEPS = 4, 20, 200


class AllBlockAttacker(CovertAttacker):
    """The plaintext-model covert attacker with its splice on every one of
    the lambda blocks. Its input a_u(k) = t - K C dx(k) cancels what the
    measurement splice -C dx(k) does to each block's output, so every
    block's output, a challenge's or a replica's, deviates by exactly t, and
    the replicas agree."""

    def __init__(self, cfg: ScenarioConfig, pub_ctx, t):
        super().__init__(cfg.model, cfg.attack_plan, ctx=pub_ctx)
        self.t = np.asarray(t, dtype=float)
        self.KC = cfg.controller.K @ cfg.model.C
        self.block_dim = verify.lifted_dim(cfg.model.p, cfg.model.m)

    def _current_input(self, k: int):
        return self.t - self.KC @ self._dx

    def _place(self, bias, start: int) -> np.ndarray:
        return verify.block_mask(self.block_dim, self.ctx.config.slot_count,
                                 np.arange(EXPANSION), bias, start)


def tank_cfg(noise_std):
    """A verified tank run (lambda = 4, seed 3) whose attack window is the
    whole run after the pre-roll; the plan's own biases are zero."""
    return ScenarioConfig.from_dict({
        "scenario": "verified_attack", "seed": 3, "pre_roll": PRE_ROLL, "steps": STEPS,
        "backend": {"slot_count": 64, "noise_std": noise_std},
        "verify": {"expansion": EXPANSION},
        "attack": {"a_u": {}, "length": STEPS, "cooldown_len": 4}})


def attacked(monkeypatch, cfg, t):
    monkeypatch.setattr(scenario, "build_attacker",
                        lambda cfg, pub: AllBlockAttacker(cfg, pub, t))
    return run_scenario(cfg)


@pytest.mark.parametrize("noise_std", [1e-6, 1e-2])
class TestResilienceRange:
    """The verifier applies one eps to every step, fixed at set-up
    (``VerifierContext.eps``)."""

    def test_below_eps_never_caught_and_moves_the_plant_by_g_t(self, monkeypatch,
                                                                noise_std):
        """At t = eps / 2, every step passes, and the plant settles G t =
        (I - A + BKC)^-1 B t away from the clean run: its deviation never
        exceeds 1.25 |G t| and ends above 0.9 |G t| (the closed loop's
        slowest pole is 0.983)."""
        cfg = tank_cfg(noise_std)
        clean, code = run_scenario(cfg)
        assert code == EXIT_OK
        t = np.full(cfg.model.m, scenario.build_verifier(cfg).eps / 2)
        trace, code = attacked(monkeypatch, cfg, t)
        assert code == EXIT_OK and trace.verdict == ["ok"] * (PRE_ROLL + STEPS)
        model, KC = cfg.model, cfg.controller.K @ cfg.model.C
        G = np.linalg.solve(np.eye(model.n) - model.A + model.B @ KC, model.B)
        g_t = np.abs(G @ t).max()
        deviation = np.abs(np.array(trace.x) - np.array(clean.x)).max(axis=1)
        assert deviation.max() <= 1.25 * g_t
        assert deviation[-1] >= 0.9 * g_t

    def test_above_eps_caught_at_the_first_attacked_step(self, monkeypatch, noise_std):
        """At t = 2 eps, the verifier rejects step 0, the first attacked
        step."""
        cfg = tank_cfg(noise_std)
        t = np.full(cfg.model.m, 2 * scenario.build_verifier(cfg).eps)
        trace, code = attacked(monkeypatch, cfg, t)
        assert code == EXIT_VERIFICATION and np.abs(trace.y).max() < verify.CHALLENGE_RANGE
        assert trace.verdict == ["ok"] * PRE_ROLL + ["bottom"] and trace.k[-1] == 0
