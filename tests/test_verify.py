import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from encloop import verify
from encloop.backend import BackendConfig, context_create, pad_slots
from encloop.control import (
    TANK_X0,
    AffineController,
    encrypt_controller,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)
from encloop.attack import AttackPlan, GuessingAttacker
from encloop.linalg import decrypt_matrix, enc_matvec, encrypt_matrix
from encloop.verify import (
    block_mask,
    dcd,
    ecd,
    guess_blocks,
    lift_affine,
    lifted_input,
    p_succ_cumulative,
    p_succ_instant,
    run_detection_experiment,
    setup,
)


def doubler(x):
    return 2.0 * np.asarray(x, dtype=float)


def make_vctx(expansion=4, block_dim=2, slot_count=16, seed=0, **kw):
    return setup(slot_count, block_dim, doubler, expansion,
                 num_challenges=5, seed=seed, **kw)


class TestSetup:
    def test_odd_expansion_rejected(self):
        with pytest.raises(ValueError):
            make_vctx(expansion=3)

    def test_capacity_check(self):
        with pytest.raises(ValueError):
            setup(8, 4, doubler, 4, num_challenges=2)

    def test_challenges_precomputed(self):
        vctx = make_vctx()
        assert vctx.challenges.shape == vctx.challenge_outputs.shape == (5, 2)
        for c, out in zip(vctx.challenges, vctx.challenge_outputs):
            assert np.allclose(out, 2 * c, atol=1e-15)

    @pytest.mark.parametrize("h, shape", [
        (lambda c: 2.0 * float(c.sum()), r"\(\)"),
        (lambda c: np.append(c, 0.0), r"\(3,\)"),
        (lambda c: c[:1], r"\(1,\)"),
        (lambda c: np.outer(c, c), r"\(2, 2\)")],
        ids=["scalar", "too_long", "too_short", "matrix"])
    def test_h_must_return_one_block(self, h, shape):
        """A scalar or wrong-length reference output would be broadcast or
        fail inside ``dcd``; ``setup`` names it instead."""
        with pytest.raises(ValueError, match=r"h must map a challenge to a vector "
                                             r"of length 2, got shape " + shape):
            setup(16, 2, h, 4, num_challenges=3)


class TestEncodeDecode:
    def test_round_trip_honest_server(self):
        vctx = make_vctx()
        w = np.array([1.5, -2.5])
        encoded, tag = ecd(vctx, w)
        assert len(encoded) == 8
        outcome = dcd(vctx, tag, doubler(encoded))
        assert outcome.ok
        assert np.allclose(outcome.payload, 2 * w, atol=1e-12)

    def test_forced_permutation_layout(self):
        vctx = make_vctx()
        w = np.array([1.0, 2.0])
        encoded, tag = ecd(vctx, w, perm=[2, 0, 3, 1], challenge_indices=[0, 1])
        # encoded block j carries pre-shuffle block perm[j]
        assert np.array_equal(encoded[0:2], vctx.challenges[0])
        assert np.array_equal(encoded[2:4], w)
        assert np.array_equal(encoded[4:6], vctx.challenges[1])
        assert np.array_equal(encoded[6:8], w)
        assert tag.payload_positions() == {1, 3}

    def test_challenges_drawn_with_replacement(self):
        vctx = make_vctx(expansion=16, block_dim=1, slot_count=16, seed=1)
        seen_repeat = False
        for _ in range(50):
            _, tag = ecd(vctx, np.zeros(1))
            if len(set(tag.challenge_indices)) < len(tag.challenge_indices):
                seen_repeat = True
                break
        assert seen_repeat

    def test_permutation_fresh_each_step(self):
        vctx = make_vctx(expansion=8, block_dim=2)
        perms = {tuple(ecd(vctx, np.zeros(2))[1].perm) for _ in range(30)}
        assert len(perms) > 1

    def test_tampered_challenge_rejected(self):
        vctx = make_vctx()
        encoded, tag = ecd(vctx, np.array([1.0, 2.0]))
        z = doubler(encoded)
        victim = next(j for j in range(4) if j not in tag.payload_positions())
        z[victim * 2] += 1.0
        outcome = dcd(vctx, tag, z)
        assert outcome.bottom
        assert not outcome.ok
        assert outcome.failed_challenges

    def test_payload_only_tampering_accepted_but_corrupt(self):
        # hitting exactly the replica blocks evades the check by design
        vctx = make_vctx(seed=3)
        w = np.array([1.0, 2.0])
        encoded, tag = ecd(vctx, w)
        z = doubler(encoded)
        for j in tag.payload_positions():
            z[j * 2: j * 2 + 2] += 5.0
        outcome = dcd(vctx, tag, z)
        assert outcome.ok
        assert np.allclose(outcome.payload, 2 * w + 5.0, atol=1e-12)

    def test_threshold_tolerates_small_noise(self):
        vctx = make_vctx(threshold=1e-3)
        encoded, tag = ecd(vctx, np.zeros(2))
        z = doubler(encoded) + 1e-4
        assert dcd(vctx, tag, z).ok

    @pytest.mark.parametrize("lam", [4, 16])
    def test_deviation_and_eps_recorded(self, lam):
        """The outcome records the threshold it applied and each challenge
        block's deviation in check order, equal to a per-block reference;
        exactly the blocks whose deviation exceeds it fail."""
        vctx = make_vctx(expansion=lam, slot_count=2 * lam, threshold=1e-3)
        half = lam // 2
        rng = np.random.default_rng(lam)
        for noise_bound, tampered in [(0.0, False), (0.0, True), (1e-3, False), (1e-3, True)]:
            encoded, tag = ecd(vctx, np.array([0.5, -1.5]))
            z = doubler(encoded) + rng.uniform(-5e-4, 5e-4, encoded.shape)
            victims = []
            if tampered:
                challenge_pos = [j for j in range(lam) if tag.perm[j] >= half]
                victims = rng.choice(challenge_pos, rng.integers(1, half + 1), replace=False)
                z[2 * victims] += 1.0
            outcome = dcd(vctx, tag, z, noise_bound=noise_bound)
            assert outcome.eps == max(1e-3, 8 * noise_bound)
            blocks = {int(b): z[2 * j: 2 * j + 2] for j, b in enumerate(tag.perm)}
            reference = [np.max(np.abs(blocks[half + r] - vctx.challenge_outputs[ci]))
                         for r, ci in enumerate(tag.challenge_indices)]
            assert np.array_equal(outcome.deviation, reference)
            assert outcome.failed_challenges == [
                r for r in range(half) if outcome.deviation[r] > outcome.eps]
            assert outcome.failed_challenges == sorted(int(tag.perm[j]) - half
                                                       for j in victims)
            assert outcome.bottom == tampered
            if not tampered:
                assert np.all(outcome.deviation <= outcome.eps)

    def test_length_checks(self):
        vctx = make_vctx()
        with pytest.raises(ValueError):
            ecd(vctx, np.zeros(3))
        _, tag = ecd(vctx, np.zeros(2))
        with pytest.raises(ValueError):
            dcd(vctx, tag, np.zeros(7))


class TestAffineLift:
    def test_tank_controller_lift(self):
        ctrl = tank_controller()
        K_aug = lift_affine(-ctrl.K, ctrl.u0)
        assert K_aug.shape == (4, 4)
        y = np.array([0.7, -0.3])
        w = lifted_input(y, ctrl.u0, 4)
        assert np.allclose((K_aug @ w)[:2], -ctrl.K @ y + ctrl.u0, atol=1e-12)

    def test_lift_replicates_blockwise(self):
        # the encrypted controller is kron(I_lambda, K_aug) padded to the
        # slot count, for a random controller
        rng = np.random.default_rng(5)
        ctrl = AffineController(K=rng.uniform(-2, 2, (2, 2)), u0=rng.uniform(-1, 1, 2))
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=5))
        K_aug = lift_affine(-ctrl.K, ctrl.u0)
        for expansion in (1, 2, 4, 16):
            expected = np.zeros((64, 64))
            expected[:4 * expansion, :4 * expansion] = np.kron(np.eye(expansion), K_aug)
            got = decrypt_matrix(ctx, encrypt_controller(ctx, ctrl, expansion))
            assert np.array_equal(got, expected)

    def test_encrypted_lifted_evaluation(self):
        # full pipeline: encode -> encrypt -> lifted matvec -> decode
        ctrl = tank_controller()
        K_aug = lift_affine(-ctrl.K, ctrl.u0)
        vctx = setup(16, 4, lambda w: K_aug @ w, 4, num_challenges=3, seed=7)
        ctx = context_create(BackendConfig(slot_count=16, max_depth=4, seed=7))
        enc_K = encrypt_controller(ctx, ctrl, 4)
        y = np.array([0.9, 1.1])
        encoded, tag = ecd(vctx, lifted_input(y, ctrl.u0, 4))
        z = ctx.decrypt(enc_matvec(enc_K, ctx.encrypt(encoded)))
        outcome = dcd(vctx, tag, z)
        assert outcome.ok
        assert np.allclose(outcome.payload[:2], -ctrl.K @ y + ctrl.u0, atol=1e-9)


class TestSuccessProbabilities:
    def test_instant_values(self):
        assert p_succ_instant(2) == 0.5
        assert p_succ_instant(4) == 1 / 6
        assert p_succ_instant(8) == 1 / 70
        assert p_succ_instant(16) == 1 / 12870

    def test_cumulative_is_geometric(self):
        for lam in (2, 4, 8):
            for L in (1, 3, 10):
                assert p_succ_cumulative(lam, L) == pytest.approx(
                    p_succ_instant(lam) ** L, rel=1e-15)

    def test_security_bound_exact(self):
        # 1/C(lam, lam/2) <= 2^{-lam/2}, equality only at lam = 2
        for lam in range(2, 66, 2):
            p = Fraction(1, math.comb(lam, lam // 2))
            bound = Fraction(1, 2 ** (lam // 2))
            assert p <= bound
            assert (p == bound) == (lam == 2)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            p_succ_instant(3)
        with pytest.raises(ValueError):
            p_succ_cumulative(4, 0)


class TestGuessing:
    def test_guess_is_half_subset(self):
        rng = np.random.default_rng(0)
        for lam in (2, 4, 8):
            g = guess_blocks(lam, rng)
            assert len(g) == lam // 2
            assert all(0 <= b < lam for b in g)

    def test_guess_uniformity(self):
        rng = np.random.default_rng(1)
        counts = {}
        n = 60_000
        for _ in range(n):
            g = guess_blocks(4, rng)
            counts[g] = counts.get(g, 0) + 1
        assert len(counts) == 6
        obs = np.array(list(counts.values()))
        assert stats.chisquare(obs).pvalue > 0.001

    def test_block_mask(self):
        mask = block_mask(2, 16, {1, 3}, [5.0, 6.0])
        expected = np.zeros(16)
        expected[2:4] = [5, 6]
        expected[6:8] = [5, 6]
        assert np.array_equal(mask, expected)


class TestDetectionExperiment:
    def test_fast_matches_instant_probability(self):
        res = run_detection_experiment(4, 1, 200_000, mode="fast", seed=0)
        undetected = res["undetected_fraction"]
        assert abs(undetected - p_succ_instant(4)) < 0.01
        assert abs(res["fractions"][1] - (1 - p_succ_instant(4))) < 0.01

    def test_fast_geometric_law(self):
        lam, L, trials = 2, 10, 200_000
        res = run_detection_experiment(lam, L, trials, mode="fast", seed=1)
        p = p_succ_instant(lam)
        expected = np.array([trials * p ** (k - 1) * (1 - p) for k in range(1, L + 1)]
                            + [trials * p ** L])
        observed = np.array([res["counts"][k] for k in range(1, L + 1)]
                            + [res["undetected"]])
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_full_mode_agrees_with_fast(self):
        fast = run_detection_experiment(4, 3, 4000, mode="fast", seed=2)
        full = run_detection_experiment(4, 3, 4000, mode="full", seed=2)
        for k in (1, 2, 3):
            assert abs(fast["fractions"][k] - full["fractions"][k]) < 0.04

    @pytest.mark.parametrize("lam, trials", [(4, 20_000), (8, 10_000)])
    def test_full_mode_follows_detection_law(self, lam, trials):
        """Every per-step count lies within z = 5 binomial bounds of
        n (1-p) p^(k-1), and the undetected count within those of n p^L."""
        L = 6
        res = run_detection_experiment(lam, L, trials, mode="full", seed=lam)
        p = p_succ_instant(lam)
        expected = [(res["counts"][k], (1 - p) * p ** (k - 1)) for k in range(1, L + 1)]
        expected.append((res["undetected"], p ** L))
        for count, q in expected:
            slack = 5 * math.sqrt(trials * q * (1 - q)) + 1
            assert abs(count - trials * q) <= slack, (count, trials * q, slack)

    def test_full_mode_builds_one_deployment(self, monkeypatch):
        """One key context, one verifier and one encrypted matrix serve
        every trial of a full-mode experiment."""
        calls = {"context_create": 0, "setup": 0, "encrypt_matrix": 0}

        def counting(name):
            real = getattr(verify, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(verify, name, counting(name))
        res = run_detection_experiment(4, 3, 200, mode="full", seed=5)
        assert sum(res["counts"].values()) + res["undetected"] == 200
        assert calls == {"context_create": 1, "setup": 1, "encrypt_matrix": 1}

    def test_counts_conserve_trials(self):
        res = run_detection_experiment(8, 5, 10_000, mode="fast", seed=3)
        assert sum(res["counts"].values()) + res["undetected"] == 10_000

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            run_detection_experiment(4, 2, 10, mode="medium")

    @pytest.mark.parametrize("mode", ["fast", "full"])
    @pytest.mark.parametrize("expansion, attack_len, match", [
        (0, 10, "even and >= 2"), (3, 10, "even and >= 2"), (-2, 5, "even and >= 2"),
        (4, 0, "at least 1"), (2, -1, "at least 1")])
    def test_bad_inputs_rejected(self, mode, expansion, attack_len, match):
        """Both modes refuse an expansion that is not even and >= 2 and an
        attack shorter than one step, before any trial runs."""
        with pytest.raises(ValueError, match=match):
            run_detection_experiment(expansion, attack_len, 10, mode=mode)

    def test_large_expansion_accepted(self):
        # 1/C(2048, 1024) underflows to 0 instead of overflowing the check
        assert p_succ_instant(2048) == 0.0
        res = run_detection_experiment(2048, 2, 10, mode="fast", seed=4)
        assert res["counts"] == {1: 10, 2: 0} and res["undetected"] == 0


class TestVerifiedClosedLoop:
    def test_honest_loop_never_trips(self):
        model, ctrl = quadruple_tank(), tank_controller()
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=11))
        K_aug = lift_affine(-ctrl.K, ctrl.u0)
        vctx = setup(64, 4, lambda w: K_aug @ w, 4, num_challenges=8, seed=11)
        trace = run_closed_loop(model, ctrl, TANK_X0, 100, pre_roll=20,
                                mode="encrypted", ctx=ctx, verifier=vctx)
        assert all(v != "bottom" for v in trace.verdict)
        plain = run_closed_loop(model, ctrl, TANK_X0, 100, pre_roll=20)
        assert np.max(np.abs(np.array(trace.x) - np.array(plain.x))) < 1e-8

    def test_guessing_attacker_detected_quickly(self):
        model, ctrl = quadruple_tank(), tank_controller()
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=12))
        K_aug = lift_affine(-ctrl.K, ctrl.u0)
        vctx = setup(64, 4, lambda w: K_aug @ w, 8, num_challenges=8, seed=12)
        plan = AttackPlan(schedule={k: np.array([2.0, 2.0]) for k in range(5)},
                          length=10, cooldown_len=4)
        attacker = GuessingAttacker(model, plan, ctx.public_context(), 8,
                                    np.random.default_rng(12))
        trace = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                mode="encrypted", ctx=ctx, verifier=vctx,
                                attacker=attacker)
        # p_succ(8) = 1/70 per step: detection at the very first tampered step
        # is overwhelmingly likely, and the loop halts on bottom
        assert trace.verdict[-1] == "bottom"
        assert trace.k[-1] < 10
