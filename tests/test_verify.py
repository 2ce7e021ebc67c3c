import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from encloop import verify
from encloop.backend import BackendConfig, context_create, hom_add
from encloop.control import (
    TANK_X0,
    AffineController,
    encrypt_controller,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)
from encloop.attack import GuessingAttacker
from encloop.linalg import enc_matvec, encrypt_matrix
from encloop.scenario import ScenarioConfig
from encloop.verify import (
    PermutationTag,
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
from helpers import decrypt_matrix, payload_positions, step_plan


def doubler(x):
    return 2.0 * np.asarray(x, dtype=float)


def make_vctx(expansion=4, block_dim=2, slot_count=16, seed=0, **kw):
    return setup(slot_count, 2.0 * np.eye(block_dim), expansion,
                 num_challenges=5, seed=seed, **kw)


class TestSetup:
    def test_odd_expansion_rejected(self):
        with pytest.raises(ValueError):
            make_vctx(expansion=3)

    def test_no_challenge_value_rejected(self):
        with pytest.raises(ValueError, match="need at least one challenge value"):
            verify.check_params(4, num_challenges=0)

    def test_setup_and_parse_share_one_rule(self, monkeypatch):
        """``setup`` checks its parameters with ``check_params``, the rule the
        scenario parse applies to a verified config."""
        seen = []
        monkeypatch.setattr(verify, "check_params", lambda *a: seen.append(a))
        make_vctx()
        ScenarioConfig.from_dict({"scenario": "verified_attack", "verify": {"expansion": 6},
                                  "attack": {"a_u": {}, "length": 10}})
        assert seen == [(4, 5), (6, 16)]

    def test_capacity_check(self):
        with pytest.raises(ValueError):
            setup(8, 2.0 * np.eye(4), 4, num_challenges=2)

    @pytest.mark.parametrize("d", [1, 2, 4, 8])
    def test_noise_terms_follow_the_stored_diagonals(self, d):
        """The threshold fixed at set-up is 8 sigma (T B + 2 sum_t max|K_t| +
        2T - 1), with B = ``CHALLENGE_RANGE``: T is the number of wrapped
        diagonals ``encrypt_matrix`` stores for the server's kron(I, h), and
        sum_t max|K_t| sums their largest entries, at the narrowest and a
        wide slot count. The tank's lifted controller has the three diagonals
        {0, 1, 2}, whose largest entries are 1.609, 11.545 and 1: at sigma
        1e-2, 8e-2 (30 + 2 * 14.154 + 5) = 5.06464."""
        rng = np.random.default_rng(d)
        for slot_count in (2 * d, 64):
            for _ in range(5):
                h = rng.uniform(-3, 3, (d, d)) * (rng.random((d, d)) < 0.4)
                h[rng.integers(d), rng.integers(d)] = 1.5
                vctx = setup(slot_count, h, 2, num_challenges=1, noise_std=1.0)
                ctx = context_create(BackendConfig(slot_count=slot_count))
                stored = encrypt_matrix(ctx, h, copies=slot_count // d).diagonals
                K_max = [np.max(np.abs(ctx.decrypt(c))) for c in stored.values()]
                T = len(stored)
                assert vctx.eps == pytest.approx(
                    8 * (T * verify.CHALLENGE_RANGE + 2 * sum(K_max) + 2 * T - 1), rel=1e-15)
        ctrl = tank_controller()
        vctx = setup(64, lift_affine(-ctrl.K), 4, 1, noise_std=1e-2)
        assert vctx.eps == pytest.approx(5.06464, rel=1e-12)

    def test_challenges_precomputed(self):
        vctx = make_vctx()
        assert vctx.challenges.shape == vctx.challenge_outputs.shape == (5, 2)
        for c, out in zip(vctx.challenges, vctx.challenge_outputs):
            assert np.allclose(out, 2 * c, atol=1e-15)

    @pytest.mark.parametrize("h, shape", [
        (2.0, r"\(\)"),
        (np.ones((3, 2)), r"\(3, 2\)"),
        (np.ones((1, 2)), r"\(1, 2\)"),
        (np.ones((2, 2, 2)), r"\(2, 2, 2\)")],
        ids=["scalar", "too_long", "too_short", "matrix"])
    def test_h_must_return_one_block(self, h, shape):
        """h is the matrix the server applies to each block. A scalar, a
        matrix whose output is longer or shorter than its input block, or a
        stack of matrices would give reference outputs that are broadcast or
        fail inside ``dcd``; ``setup`` names it instead."""
        with pytest.raises(ValueError, match=r"h must be a square matrix mapping one "
                                             r"block to one block, got shape " + shape):
            setup(16, h, 4, num_challenges=3)


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
        # encoded block j carries pre-shuffle block perm[j]: the payload below
        # half, challenge challenge_indices[perm[j] - half] from half on
        vctx = make_vctx()
        w = np.array([1.0, 2.0])
        for _ in range(10):
            encoded, tag = ecd(vctx, w)
            assert sorted(tag.perm) == [0, 1, 2, 3]
            blocks = encoded.reshape(4, 2)
            for j, b in enumerate(tag.perm):
                want = w if b < 2 else vctx.challenges[tag.challenge_indices[b - 2]]
                assert np.array_equal(blocks[j], want)
            carries_w = {j for j in range(4) if np.array_equal(blocks[j], w)}
            assert payload_positions(tag) == carries_w

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
        victim = next(j for j in range(4) if j not in payload_positions(tag))
        z[victim * 2] += 1.0
        outcome = dcd(vctx, tag, z)
        assert outcome.bottom
        assert not outcome.ok
        assert outcome.failed_challenges

    def test_nan_challenge_rejected(self):
        """A NaN deviation compares false against any threshold; it still fails."""
        vctx = make_vctx()
        encoded, tag = ecd(vctx, np.array([1.0, 2.0]))
        z = doubler(encoded)
        victim = next(j for j in range(4) if j not in payload_positions(tag))
        z[victim * 2] = np.nan
        assert dcd(vctx, tag, z).bottom

    def test_payload_only_tampering_accepted_but_corrupt(self):
        # hitting exactly the replica blocks evades the check by design
        vctx = make_vctx(seed=3)
        w = np.array([1.0, 2.0])
        encoded, tag = ecd(vctx, w)
        z = doubler(encoded)
        for j in payload_positions(tag):
            z[j * 2: j * 2 + 2] += 5.0
        outcome = dcd(vctx, tag, z)
        assert outcome.ok
        assert np.allclose(outcome.payload, 2 * w + 5.0, atol=1e-12)

    def test_replica_disagreement_rejected(self):
        """One payload replica off by 1.0 fails the response although every
        challenge passes; the outcome records the spread, and no failed
        challenge."""
        vctx = make_vctx()
        encoded, tag = ecd(vctx, np.array([1.0, 2.0]))
        z = doubler(encoded)
        z[2 * max(payload_positions(tag))] += 1.0
        outcome = dcd(vctx, tag, z)
        assert outcome.bottom and outcome.failed_challenges == []
        assert outcome.spread == 1.0 and np.all(outcome.deviation == 0)

    def test_threshold_tolerates_small_noise(self):
        # at noise_std 1e-4, eps = 8e-4 (CHALLENGE_RANGE + 5) >= 4e-3
        vctx = make_vctx(noise_std=1e-4)
        encoded, tag = ecd(vctx, np.zeros(2))
        z = doubler(encoded) + 1e-4
        assert vctx.eps >= 4e-3
        assert dcd(vctx, tag, z).ok

    @pytest.mark.parametrize("lam", [4, 16])
    def test_deviation_and_eps_recorded(self, lam):
        """The outcome records the threshold it applied, each challenge
        block's deviation in check order and the payload replicas' spread,
        equal to per-block references; exactly the blocks whose deviation
        exceeds the threshold fail. The threshold is the verifier's own, fixed
        at set-up: for h = 2 I (one stored diagonal, max 2) and the plaintext
        range B = ``CHALLENGE_RANGE`` of every encoded entry, max(EPS_FLOOR,
        8 sigma (B + 2*2 + 1)): the floor on an exact response at sigma 0,
        and 0.12 at sigma 1e-3, where each slot is off by up to 5e-4 and a
        tampered slot by 1."""
        half = lam // 2
        rng = np.random.default_rng(lam)
        for noise_std, tampered in [(0.0, False), (0.0, True), (1e-3, False), (1e-3, True)]:
            vctx = make_vctx(expansion=lam, slot_count=2 * lam, noise_std=noise_std)
            encoded, tag = ecd(vctx, np.array([0.5, -1.5]))
            z = doubler(encoded)
            if noise_std:
                z += rng.uniform(-5e-4, 5e-4, encoded.shape)
            victims = []
            if tampered:
                challenge_pos = [j for j in range(lam) if tag.perm[j] >= half]
                victims = rng.choice(challenge_pos, rng.integers(1, half + 1), replace=False)
                z[2 * victims] += 1.0
            outcome = dcd(vctx, tag, z)
            assert outcome.eps == vctx.eps == max(
                verify.EPS_FLOOR, 8 * noise_std * (verify.CHALLENGE_RANGE + 5))
            blocks = {int(b): z[2 * j: 2 * j + 2] for j, b in enumerate(tag.perm)}
            reference = [np.max(np.abs(blocks[half + r] - vctx.challenge_outputs[ci]))
                         for r, ci in enumerate(tag.challenge_indices)]
            assert np.array_equal(outcome.deviation, reference)
            assert outcome.spread == max(np.max(np.abs(blocks[r] - blocks[0]))
                                         for r in range(half))
            assert outcome.failed_challenges == [
                r for r in range(half) if outcome.deviation[r] > outcome.eps]
            assert outcome.failed_challenges == sorted(int(tag.perm[j]) - half
                                                       for j in victims)
            assert outcome.bottom == tampered
            if not tampered:
                assert np.all(outcome.deviation <= outcome.eps)

    @pytest.mark.parametrize("lam", [2, 4, 6, 16])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_one_step_replays_the_scalar_draws(self, lam, seed):
        """One ecd and dcd draw what they drew as one-step code: lambda/2
        scalar integers(0, M), one permutation(lambda), and one
        integers(0, lambda/2) on accept only. The verifier's generator ends
        in the replay's state, and the encoding is the replay's."""
        vctx = make_vctx(expansion=lam, slot_count=2 * lam, seed=seed)
        replay = np.random.default_rng()
        replay.bit_generator.state = vctx.rng.bit_generator.state
        half, w = lam // 2, np.array([0.5, -1.5])
        for tampered in (False, True, False):
            encoded, tag = ecd(vctx, w)
            indices = [int(replay.integers(0, 5)) for _ in range(half)]
            perm = replay.permutation(lam)
            blocks = [w] * half + [vctx.challenges[i] for i in indices]
            assert tag.challenge_indices.tolist() == indices
            assert np.array_equal(tag.perm, perm)
            assert np.array_equal(encoded, np.concatenate([blocks[b] for b in perm]))
            z = doubler(encoded)
            if tampered:
                z[2 * int(np.flatnonzero(perm >= half)[0])] += 1.0
            outcome = dcd(vctx, tag, z)
            assert outcome.bottom == tampered
            if not tampered:
                assert np.array_equal(outcome.payload, 2 * w)
                replay.integers(0, half)
            assert vctx.rng.bit_generator.state == replay.bit_generator.state

    def test_length_checks(self):
        vctx = make_vctx()
        with pytest.raises(ValueError):
            ecd(vctx, np.zeros(3))
        _, tag = ecd(vctx, np.zeros(2))
        with pytest.raises(ValueError):
            dcd(vctx, tag, np.zeros(7))


class TestOneRowDecode:
    """``ecd`` and ``dcd`` run one step on Python scalars at every width, as
    the batch core's one-row case, over a (lambda, d) grid up to 128 encoded
    slots; neither warns, not even of a forged infinity."""

    LAMBDAS, DIMS = [2, 4, 6, 8, 16, 32], [1, 4]
    # what row r of a response batch carries, in order: +1, NaN, +inf or -inf
    # in one slot of a replica or of a challenge block
    KINDS = ["honest", "noisy"] + [f"{value} {where}" for value in ("+1", "nan", "+inf", "-inf")
                                   for where in ("replica", "challenge")]

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("d", DIMS)
    def test_ecd_is_the_batch_core_on_one_row(self, lam, d):
        """From one generator state, ``ecd`` encodes what ``_encode(ctx, w,
        1)`` encodes, under the same permutation and challenge indices, and
        leaves the generator where ``_encode`` leaves it."""
        rng = np.random.default_rng(100 * lam + d)
        vctx = setup(64 * lam, rng.uniform(-1, 1, (d, d)), lam, num_challenges=6,
                     noise_std=1e-2, seed=lam)
        for _ in range(10):
            w = rng.uniform(-2, 2, d)
            state = vctx.rng.bit_generator.state
            encoded, perm, indices = verify._encode(vctx, w, 1)
            after = vctx.rng.bit_generator.state
            vctx.rng.bit_generator.state = state
            got, tag = ecd(vctx, w)
            assert vctx.rng.bit_generator.state == after
            assert got.shape == (lam * d,) and np.array_equal(got, encoded[0])
            assert np.array_equal(tag.perm, perm[0])
            assert np.array_equal(tag.challenge_indices, indices[0])

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("d", DIMS)
    def test_dcd_is_the_batch_core_on_one_row(self, lam, d):
        """``dcd`` on row r of a batch, under row r's own tag, gives the
        verdict, deviation and spread that ``_decode`` gives row r of the
        whole batch, and the verifier's eps; and from one generator state it returns every
        ``DecodeOutcome`` field that ``_decode`` on row r alone gives, the
        payload drawn included, and leaves the generator in the same state.
        Each row is honest, noisy, or carries +1, NaN or an infinity in a
        replica or a challenge block (``KINDS``)."""
        rng = np.random.default_rng(100 * lam + d)
        h = rng.uniform(-1, 1, (d, d))
        rows, half = len(self.KINDS), lam // 2
        for trial in range(10):
            # eps >= 8 sigma (2T - 1) >= 8e-4: the noisy rows' errors of up to
            # 4e-4 pass, and a +1 fails
            vctx = setup(64 * lam, h, lam, num_challenges=6, noise_std=1e-4, seed=trial)
            w = rng.uniform(-2, 2, d)
            encoded, perm, indices = verify._encode(vctx, w, rows)
            z = (encoded.reshape(-1, d) @ h.T).reshape(rows, lam * d)
            z[1:] += rng.uniform(-4e-4, 4e-4, z[1:].shape)
            for r, kind in enumerate(self.KINDS[2:], start=2):
                value, where = kind.split()
                local = perm[r] - r * lam
                blocks = np.flatnonzero(local < half if where == "replica" else local >= half)
                slot = int(rng.choice(blocks)) * d + int(rng.integers(d))
                z[r, slot] = z[r, slot] + 1.0 if value == "+1" else float(value)
            eps = vctx.eps
            deviation, spread, accepted, _ = verify._decode(vctx, perm, indices, z)
            # a +1 on the one replica of lambda = 2 is all the replicas agree on
            assert accepted.tolist() == [0, 1] + ([2] if lam == 2 else [])
            for r in range(rows):
                local = perm[r] - r * lam
                state = vctx.rng.bit_generator.state
                row = verify._decode(vctx, local[None], indices[r:r + 1], z[r:r + 1])
                after = vctx.rng.bit_generator.state
                vctx.rng.bit_generator.state = state
                tag = PermutationTag(perm=local, challenge_indices=indices[r])
                outcome = dcd(vctx, tag, z[r])
                assert vctx.rng.bit_generator.state == after
                assert outcome.ok == (r in accepted.tolist()) == (len(row[2]) == 1)
                assert outcome.eps == eps
                for want in (deviation[r], row[0][0]):
                    assert np.array_equal(outcome.deviation, want, equal_nan=True)
                for want in (spread[r], row[1][0]):
                    assert np.array_equal(outcome.spread, want, equal_nan=True)
                assert type(outcome.spread) is float
                if outcome.ok:
                    assert np.array_equal(outcome.payload, row[3][0])
                    assert outcome.failed_challenges == []
                else:
                    assert outcome.payload is None
                    assert outcome.failed_challenges == np.flatnonzero(
                        ~(row[0][0] <= eps)).tolist()


class TestReplicaAgreement:
    @pytest.mark.parametrize("lam", [2, 4, 6, 8])
    def test_only_the_replica_set_passes_corrupted(self, lam):
        """Exact count, no sampling: for every payload position set R and
        every nonempty tamper set S, a noiseless response with +1 on each
        block of S passes with a corrupted payload only when S = R. So at
        most one tamper set per position set passes corrupted, and each
        tamper set does so for at most 1/C(lam, lam/2) of the position
        sets. Without the replica check, a proper nonempty subset of R
        would pass too, and corrupt the payload whenever the returned
        replica is among S."""
        half, d = lam // 2, 2
        vctx = make_vctx(expansion=lam, block_dim=d, slot_count=lam * d)
        w = np.array([0.5, -1.5])
        position_sets = list(itertools.combinations(range(lam), half))
        tamper_sets = [S for k in range(1, lam + 1)
                       for S in itertools.combinations(range(lam), k)]
        corrupted = {S: 0 for S in tamper_sets}
        for R in position_sets:
            perm = np.empty(lam, dtype=np.int64)
            perm[list(R)] = np.arange(half)
            perm[[j for j in range(lam) if j not in R]] = np.arange(half, lam)
            indices = np.arange(half) % len(vctx.challenges)
            blocks = [w] * half + [vctx.challenges[i] for i in indices]
            encoded = np.concatenate([blocks[b] for b in perm])
            tag = PermutationTag(perm=perm, challenge_indices=indices)
            assert payload_positions(tag) == set(R)
            passed = []
            for S in tamper_sets:
                z = doubler(encoded)
                for j in S:
                    z[j * d: j * d + d] += 1.0
                outcome = dcd(vctx, tag, z)
                if outcome.ok and not np.array_equal(outcome.payload, 2 * w):
                    passed.append(S)
                    corrupted[S] += 1
            assert passed == [R]
        bound = 1 / math.comb(lam, half)
        assert all(n / len(position_sets) <= bound for n in corrupted.values())


class TestAffineLift:
    # (m, p) grid and the wrapped diagonals a dense m x p controller stores
    SHAPES = ((1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (2, 5), (3, 5), (4, 4))
    STORED = (2, 4, 2, 3, 4, 6, 7, 7)

    @pytest.mark.parametrize("shape, stored", zip(SHAPES, STORED), ids=str)
    def test_lift_is_exact_and_minimal(self, shape, stored):
        """For a dense K the lifted block maps [u0 .. w .. u0] to K w + u0 in
        the output slots [0, m) and to 0 after, and its replication stores
        p + m - 1 wrapped diagonals (p + 1 for m = 1): every identity entry
        shares a diagonal with K, at one copy and at every copy the slots
        hold."""
        m, p = shape
        assert stored == (p + m - 1 if m >= 2 else p + 1)
        rng = np.random.default_rng(m * 10 + p)
        K = rng.uniform(0.5, 2.0, (m, p)) * rng.choice([-1.0, 1.0], (m, p))
        d = verify.lifted_dim(p, m)
        K_aug = lift_affine(K)
        assert K_aug.shape == (d, d)
        for _ in range(5):
            w, u0 = rng.uniform(-3, 3, p), rng.uniform(-3, 3, m)
            z = K_aug @ lifted_input(w, u0, d)
            assert np.max(np.abs(z[:m] - (K @ w + u0))) <= 1e-12
            assert np.max(np.abs(z[m:]), initial=0.0) <= 1e-12
        slot_count = 64
        ctx = context_create(BackendConfig(slot_count=slot_count))
        for copies in (1, slot_count // d):
            assert len(encrypt_matrix(ctx, K_aug, copies).diagonals) == stored

    def test_tank_controller_lift(self):
        ctrl = tank_controller()
        K_aug = lift_affine(-ctrl.K)
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
        K_aug = lift_affine(-ctrl.K)
        for expansion in (1, 2, 4, 16):
            expected = np.zeros((64, 64))
            expected[:4 * expansion, :4 * expansion] = np.kron(np.eye(expansion), K_aug)
            got = decrypt_matrix(ctx, encrypt_controller(ctx, ctrl, expansion))
            assert np.array_equal(got, expected)

    def test_encrypted_lifted_evaluation(self):
        # full pipeline: encode -> encrypt -> lifted matvec -> decode
        ctrl = tank_controller()
        K_aug = lift_affine(-ctrl.K)
        vctx = setup(16, K_aug, 4, num_challenges=3, seed=7)
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
            for rows in (1, 3):
                g = guess_blocks(rng, rows, lam)
                assert g.shape == (rows, lam // 2)
                for r, row in enumerate(g.tolist()):
                    # row r picks distinct blocks among its own lam
                    assert len(set(row)) == lam // 2
                    assert all(r * lam <= b < (r + 1) * lam for b in row)

    def test_guess_uniformity(self):
        rng = np.random.default_rng(1)
        counts = {}
        n = 60_000
        for _ in range(n):
            g = frozenset(guess_blocks(rng, 1, 4)[0].tolist())
            counts[g] = counts.get(g, 0) + 1
        assert len(counts) == 6
        obs = np.array(list(counts.values()))
        assert stats.chisquare(obs).pvalue > 0.001

    @pytest.mark.parametrize("lam", [2, 4, 6, 16])
    def test_guess_replays_one_permutation(self, lam):
        rng, replay = np.random.default_rng(lam), np.random.default_rng(lam)
        for _ in range(20):
            assert np.array_equal(guess_blocks(rng, 1, lam),
                                  replay.permutation(lam)[None, : lam // 2])
        assert rng.bit_generator.state == replay.bit_generator.state

    def test_block_mask(self):
        mask = block_mask(2, 16, np.array([1, 3]), [5.0, 6.0])
        expected = np.zeros(16)
        expected[2:4] = [5, 6]
        expected[6:8] = [5, 6]
        assert np.array_equal(mask, expected)
        assert np.array_equal(block_mask(4, 16, np.array([2]), [7.0]), np.eye(16)[8] * 7.0)
        # a (rows, lambda/2) guess places every row's blocks in one mask
        assert np.array_equal(block_mask(2, 16, np.array([[1], [3]]), [5.0, 6.0]), expected)
        assert np.array_equal(block_mask(1, 8, np.array([[0, 2], [5, 6]]), 3.0),
                              3.0 * np.isin(np.arange(8), [0, 2, 5, 6]))
        with pytest.raises(ValueError, match="exceeds block_dim"):
            block_mask(2, 16, np.array([1]), [1.0, 2.0, 3.0])
        # from slot ``start`` of each block: y's slots 1..2 of a tank block
        expected = np.zeros(16)
        expected[[5, 6, 13, 14]] = [5, 6, 5, 6]
        assert np.array_equal(block_mask(4, 16, np.array([1, 3]), [5.0, 6.0], 1), expected)
        with pytest.raises(ValueError, match="from slot 3 exceeds block_dim 4"):
            block_mask(4, 16, np.array([1]), [5.0, 6.0], 3)


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

    def test_full_mode_draws_one_stream(self, contexts):
        """Full mode draws every permutation, challenge and guess from one
        generator, ``default_rng(seed)``: its one key context has noise 0
        and never builds a noise generator of its own."""
        res = run_detection_experiment(4, 3, 200, mode="full", seed=5)
        assert res["ops"]["enc"] > 0
        assert len(contexts) == 1 and contexts[0].config.noise_std == 0
        assert contexts[0]._rng is None

    def test_full_mode_spans_chunks(self, monkeypatch):
        """A slot budget of 64 makes chunks of 16 trials at lambda = 4: the
        batches never exceed a chunk, the trials are conserved and the
        counts follow the z = 5 binomial law."""
        monkeypatch.setattr(verify, "FULL_MODE_SLOTS", 64)
        rows = []
        encode = verify._encode

        def spy(ctx, w, n):
            rows.append(n)
            return encode(ctx, w, n)

        monkeypatch.setattr(verify, "_encode", spy)
        lam, L, trials = 4, 5, 3000
        res = run_detection_experiment(lam, L, trials, mode="full", seed=9)
        assert max(rows) == 16 and rows.count(16) >= trials // 16 - 1
        assert sum(res["counts"].values()) + res["undetected"] == trials
        p = p_succ_instant(lam)
        for count, q in [(res["counts"][k], (1 - p) * p ** (k - 1)) for k in range(1, L + 1)]:
            assert abs(count - trials * q) <= 5 * math.sqrt(trials * q * (1 - q)) + 1

    @pytest.mark.parametrize("rows", [1, 2, 7])
    def test_permutations_own_their_rows(self, rows):
        """Row r of ``_permutations`` is a permutation of [r*n, r*n + n), so
        its entries are the flat slots of trial r's own block in a packed
        ciphertext; every (row, position) takes every value of its row."""
        rng = np.random.default_rng(rows)
        for n in (2, 4, 6):
            seen = [[set() for _ in range(n)] for _ in range(rows)]
            for _ in range(200):
                perm = verify._permutations(rng, rows, n)
                assert perm.shape == (rows, n)
                for r, row in enumerate(perm):
                    assert sorted(row.tolist()) == list(range(r * n, r * n + n))
                    for j, v in enumerate(row.tolist()):
                        seen[r][j].add(v)
            assert all(len(values) == n for row in seen for values in row)

    @pytest.mark.parametrize("trials, budget, slots", [
        (1, None, 4), (200, None, 1024), (3000, 64, 64)])
    def test_full_mode_op_count_law(self, monkeypatch, trials, budget, slots):
        """Trials share ciphertexts: one matrix encryption, then one enc,
        add, mul, rot and dec per batched step, which takes every live
        trial of its chunk one step. One trial packs into lambda slots."""
        if budget:
            monkeypatch.setattr(verify, "FULL_MODE_SLOTS", budget)
        rows, widths = [], []
        encode, create = verify._encode, verify.context_create

        def encode_spy(ctx, w, n):
            rows.append(n)
            return encode(ctx, w, n)

        def create_spy(config, *args):
            widths.append(config.slot_count)
            return create(config, *args)

        monkeypatch.setattr(verify, "_encode", encode_spy)
        monkeypatch.setattr(verify, "context_create", create_spy)
        L = 10
        res = run_detection_experiment(4, L, trials, mode="full", seed=3)
        s = len(rows)
        assert widths == [slots]
        assert res["ops"] == {"add": s, "mul": s, "rot": s, "enc": s + 1, "dec": s}
        trial_steps = sum(k * n for k, n in res["counts"].items()) + L * res["undetected"]
        assert sum(rows) == trial_steps
        assert s >= -(-trials // (slots // 4))  # at least one step per chunk

    def test_full_mode_memory_is_bounded(self):
        """100k trials at lambda = 64 run in chunks of 1024, packed into
        2^16-slot ciphertexts: the traced peak stays far below the ~50 MiB
        of one array over every trial's slots."""
        tracemalloc.start()
        try:
            res = run_detection_experiment(64, 10, 100_000, mode="full", seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["counts"][1] == 100_000
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    def test_full_mode_memory_is_linear_in_slots(self):
        """At lambda = 4096 the server is the verifier's 1 x 1 map on every
        slot, not a dense lambda x lambda matrix (128 MiB at this lambda)."""
        tracemalloc.start()
        try:
            res = run_detection_experiment(4096, 2, 8, mode="full", seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res["counts"][1] == 8
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

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


class OneBlockAttacker:
    """Adds 1.0 to the first slot of block ``j`` of the control ciphertext
    from step 0 on, holding the public context ``ctx``; the measurement
    passes untouched."""

    def __init__(self, ctx, block_dim, j):
        self.ctx = ctx
        self.mask = block_mask(block_dim, ctx.config.slot_count, np.array([j]), [1.0])

    def active_at(self, k):
        return k >= 0

    def tamper_measurement(self, k, c):
        return c

    def tamper_control(self, k, c):
        return hom_add(c, self.mask) if self.active_at(k) else c


class TestVerifiedClosedLoop:
    @pytest.mark.parametrize("lam", [4, 8])
    def test_one_block_attacker_caught_at_first_step(self, monkeypatch, lam):
        """Shifting any single block j ends the loop bottom at step 0: a hit
        challenge fails its own check, a hit replica fails replica agreement
        with every challenge passing. Every j faces the same step-0
        permutation (one seed, and the attacker draws nothing), so half of
        the j hit a replica."""
        model, ctrl = quadruple_tank(), tank_controller()
        d, half = verify.lifted_dim(model.p, model.m), lam // 2
        decodes = []
        real_dcd = verify.dcd

        def spy(vctx, tag, z):
            decodes.append((tag, real_dcd(vctx, tag, z)))
            return decodes[-1][1]

        monkeypatch.setattr(verify, "dcd", spy)
        replica_hits = 0
        for j in range(lam):
            ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=lam))
            vctx = setup(64, lift_affine(-ctrl.K), lam, num_challenges=8, seed=lam)
            trace = run_closed_loop(model, ctrl, TANK_X0, 10, pre_roll=3, ctx=ctx,
                                    verifier=vctx, attacker=OneBlockAttacker(
                                        context_create(ctx.config, "attacker"), d, j))
            assert trace.verdict == ["ok"] * 3 + ["bottom"] and trace.k[-1] == 0
            tag, outcome = decodes[-1]
            block = int(tag.perm[j])  # the pre-shuffle block at position j
            if block < half:
                replica_hits += 1
                assert outcome.failed_challenges == []
                assert outcome.spread == pytest.approx(1.0)
            else:
                assert outcome.failed_challenges == [block - half]
                assert outcome.spread <= 2 * outcome.eps
        assert replica_hits == half

    def test_honest_loop_never_trips(self):
        model, ctrl = quadruple_tank(), tank_controller()
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=11))
        K_aug = lift_affine(-ctrl.K)
        vctx = setup(64, K_aug, 4, num_challenges=8, seed=11)
        trace = run_closed_loop(model, ctrl, TANK_X0, 100, pre_roll=20,
                                ctx=ctx, verifier=vctx)
        assert all(v != "bottom" for v in trace.verdict)
        plain = run_closed_loop(model, ctrl, TANK_X0, 100, pre_roll=20)
        assert np.max(np.abs(np.array(trace.x) - np.array(plain.x))) < 1e-8

    def test_guessing_attacker_detected_quickly(self):
        model, ctrl = quadruple_tank(), tank_controller()
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=12))
        K_aug = lift_affine(-ctrl.K)
        vctx = setup(64, K_aug, 8, num_challenges=8, seed=12)
        attacker = GuessingAttacker(model, step_plan(), context_create(ctx.config, "attacker"),
                                    8, np.random.default_rng(12))
        trace = run_closed_loop(model, ctrl, TANK_X0, 40, pre_roll=20,
                                ctx=ctx, verifier=vctx,
                                attacker=attacker)
        # p_succ(8) = 1/70 per step: detection at the very first tampered step
        # is overwhelmingly likely, and the loop halts on bottom
        assert trace.verdict[-1] == "bottom"
        assert trace.k[-1] < 10

    def test_forged_trailer_rejected(self, trailer_forger):
        """A control ciphertext shifted by 1.0 whose trailer declares a huge
        noise bound is rejected at the first tampered step: the threshold
        is the verifier's own, not the wire's."""
        model, ctrl = quadruple_tank(), tank_controller()
        ctx = context_create(BackendConfig(slot_count=64, max_depth=4, seed=13))
        vctx = setup(64, lift_affine(-ctrl.K), 4, num_challenges=8, seed=13)
        trace = run_closed_loop(model, ctrl, TANK_X0, 30, pre_roll=5, ctx=ctx,
                                verifier=vctx,
                                attacker=trailer_forger(context_create(ctx.config, "attacker")))
        assert trace.verdict == ["ok"] * 5 + ["bottom"]
        assert trace.k[-1] == 0
