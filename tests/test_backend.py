import struct

import numpy as np
import pytest
from scipy import stats

from encloop.backend import (
    BackendConfig,
    DepthExhausted,
    KeyMismatch,
    context_create,
    deserialize_ciphertext,
    hom_add,
    hom_dot,
    hom_mul,
    hom_neg,
    hom_sub,
    pad_slots,
    rotate,
    serialize_ciphertext,
)


def make_ctx(slot_count=8, noise_std=0.0, max_depth=4, seed=1):
    return context_create(BackendConfig(slot_count=slot_count, noise_std=noise_std,
                                        max_depth=max_depth, seed=seed))


class TestConfig:
    def test_smallest_useful_config(self):
        ctx = make_ctx()
        assert ctx.config.slot_count == 8

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            BackendConfig(slot_count=7)

    def test_case_study_scale(self):
        ctx = context_create(BackendConfig(slot_count=65536, max_depth=16, seed=42))
        assert ctx.config.slot_count == 2 ** 16

    def test_bad_depth_and_noise(self):
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, max_depth=0)
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, noise_std=-1.0)


class TestEncryptDecrypt:
    def test_zero_round_trip(self):
        ctx = make_ctx()
        assert np.array_equal(ctx.decrypt(ctx.encrypt(np.zeros(8))), np.zeros(8))

    def test_exact_round_trip(self):
        ctx = make_ctx(slot_count=4)
        m = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(ctx.decrypt(ctx.encrypt(m)), m)

    def test_length_mismatch(self):
        ctx = make_ctx()
        with pytest.raises(ValueError):
            ctx.encrypt(np.zeros(5))

    def test_noisy_round_trip_bound(self):
        # statistical: fresh encryptions stay within 6 sigma over 1000 trials
        sigma = 1e-9
        ctx = make_ctx(noise_std=sigma, seed=7)
        rng = np.random.default_rng(0)
        for _ in range(1000):
            m = rng.uniform(-10, 10, 8)
            err = np.max(np.abs(ctx.decrypt(ctx.encrypt(m)) - m))
            assert err <= 6 * sigma

    def test_foreign_key_rejected(self):
        ctx1 = make_ctx(seed=1)
        ctx2 = make_ctx(seed=2)
        c = ctx1.encrypt(np.zeros(8))
        with pytest.raises(KeyMismatch):
            ctx2.decrypt(c)

    def test_additive_identity(self):
        ctx = make_ctx(slot_count=4)
        m = np.array([1.0, -2.0, 3.5, 0.0])
        c = hom_add(ctx.encrypt(m), ctx.encrypt(np.zeros(4)))
        assert np.allclose(ctx.decrypt(c), m, atol=0)


class TestHomomorphisms:
    def test_add_example(self):
        ctx = make_ctx(slot_count=2)
        c = hom_add(ctx.encrypt([1.0, 2.0]), ctx.encrypt([3.0, 4.0]))
        assert np.array_equal(ctx.decrypt(c), [4.0, 6.0])

    def test_add_plaintext_inverse(self):
        ctx = make_ctx()
        m = np.arange(8.0)
        assert np.array_equal(ctx.decrypt(hom_add(ctx.encrypt(m), -m)), np.zeros(8))

    def test_sub_self_is_zero(self):
        ctx = make_ctx()
        c = ctx.encrypt(np.arange(8.0))
        assert np.array_equal(ctx.decrypt(hom_sub(c, c)), np.zeros(8))

    def test_neg(self):
        ctx = make_ctx(slot_count=2)
        c = hom_neg(ctx.encrypt([1.0, -2.0]))
        assert np.array_equal(ctx.decrypt(c), [-1.0, 2.0])

    def test_mul_example(self):
        ctx = make_ctx(slot_count=2)
        c = hom_mul(ctx.encrypt([2.0, 3.0]), ctx.encrypt([4.0, 5.0]))
        assert np.array_equal(ctx.decrypt(c), [8.0, 15.0])

    def test_mul_identity_level(self):
        ctx = make_ctx()
        c = hom_mul(ctx.encrypt(np.arange(8.0)), np.ones(8))
        assert np.array_equal(ctx.decrypt(c), np.arange(8.0))
        assert c.level == 1

    @pytest.mark.parametrize("op,ref", [
        (hom_add, np.add), (hom_sub, np.subtract), (hom_mul, np.multiply)])
    def test_random_pair_oracle(self, op, ref):
        ctx = make_ctx(max_depth=8)
        rng = np.random.default_rng(42)
        for _ in range(50):
            m1 = rng.uniform(-10, 10, 8)
            m2 = rng.uniform(-10, 10, 8)
            got = ctx.decrypt(op(ctx.encrypt(m1), ctx.encrypt(m2)))
            assert np.max(np.abs(got - ref(m1, m2))) < 1e-12

    def test_cross_key_operands_rejected(self):
        a = make_ctx(seed=1).encrypt(np.zeros(8))
        b = make_ctx(seed=2).encrypt(np.zeros(8))
        with pytest.raises(KeyMismatch):
            hom_add(a, b)

    def test_depth_budget_boundary(self):
        ctx = make_ctx(max_depth=4)
        c = ctx.encrypt(np.ones(8))
        for _ in range(4):
            c = hom_mul(c, np.ones(8))
        with pytest.raises(DepthExhausted):
            hom_mul(c, np.ones(8))

    def test_level_monotone_only_mul_increases(self):
        ctx = make_ctx(max_depth=8)
        rng = np.random.default_rng(3)
        c = ctx.encrypt(rng.uniform(-1, 1, 8))
        level = 0
        for _ in range(30):
            op = rng.integers(0, 4)
            if op == 0:
                c2 = hom_add(c, ctx.encrypt(rng.uniform(-1, 1, 8)))
            elif op == 1:
                c2 = hom_sub(c, rng.uniform(-1, 1, 8))
            elif op == 2:
                c2 = rotate(c, int(rng.integers(0, 8)))
            else:
                if c.level == 8:
                    with pytest.raises(DepthExhausted):
                        hom_mul(c, np.ones(8))
                    continue
                c2 = hom_mul(c, rng.uniform(-1, 1, 8))
            assert c2.level >= level
            assert c2.level == level + (1 if op == 3 else 0)
            c, level = c2, c2.level


class TestRotation:
    def test_shift_by_one(self):
        ctx = make_ctx(slot_count=4)
        c = rotate(ctx.encrypt([1.0, 2.0, 3.0, 4.0]), 1)
        assert np.array_equal(ctx.decrypt(c), [2.0, 3.0, 4.0, 1.0])

    def test_identity_and_full_cycle(self):
        ctx = make_ctx(slot_count=4)
        m = np.array([5.0, 6.0, 7.0, 8.0])
        assert np.array_equal(ctx.decrypt(rotate(ctx.encrypt(m), 0)), m)
        assert np.array_equal(ctx.decrypt(rotate(ctx.encrypt(m), 4)), m)

    def test_composition(self):
        ctx = make_ctx()
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rng.uniform(-5, 5, 8)
            i, j = rng.integers(-16, 16, 2)
            lhs = ctx.decrypt(rotate(rotate(ctx.encrypt(m), int(i)), int(j)))
            rhs = ctx.decrypt(rotate(ctx.encrypt(m), int(i + j)))
            assert np.array_equal(lhs, rhs)

    def test_all_shifts_match_plain_roll(self):
        ctx = make_ctx()
        m = np.arange(8.0)
        for i in range(8):
            assert np.array_equal(ctx.decrypt(rotate(ctx.encrypt(m), i)),
                                  np.roll(m, -i))


class TestNoiseAccounting:
    def test_additive_chain_noise_bound(self):
        # 10^4 trials of short additive chains; empirical failures < 0.1%
        sigma = 1e-6
        ctx = make_ctx(noise_std=sigma, max_depth=8, seed=123)
        rng = np.random.default_rng(5)
        failures = 0
        for _ in range(10_000):
            m1 = rng.uniform(-1, 1, 8)
            m2 = rng.uniform(-1, 1, 8)
            c = hom_add(ctx.encrypt(m1), ctx.encrypt(m2))
            bound = 6 * sigma * 2
            if np.max(np.abs(ctx.decrypt(c) - (m1 + m2))) > bound:
                failures += 1
        assert failures / 10_000 < 0.001

    def test_noise_bound_tracks_operations(self):
        ctx = make_ctx(noise_std=1e-9)
        c = ctx.encrypt(np.zeros(8))
        c2 = hom_add(c, ctx.encrypt(np.zeros(8)))
        assert c2.noise_bound > c.noise_bound

    @pytest.mark.parametrize("noise_std, sign", [(0.0, 1.0), (1e-3, 1.0), (0.0, -1.0),
                                                 (1e-3, -1.0)],
                             ids=["0.0", "0.001", "0.0-negative", "0.001-negative"])
    def test_mul_noise_bound_first_order(self, noise_std, sign):
        """Each operand's bound scaled by the other's largest magnitude, plus
        the fresh operation noise; a plaintext operand carries no bound. The
        repeated products read each ciphertext's cached max|slot|, which must
        also find a largest magnitude on the negative side (sign -1)."""
        ctx = make_ctx(noise_std=noise_std)
        rng = np.random.default_rng(7)
        a = hom_add(ctx.encrypt(sign * rng.uniform(-1, 3, 8)),
                    ctx.encrypt(sign * rng.uniform(-1, 3, 8)))
        b = ctx.encrypt(sign * rng.uniform(-2, 5, 8))
        m = sign * rng.uniform(-2, 5, 8)
        sa, sb = ctx.decrypt(a), ctx.decrypt(b)
        for _ in range(2):
            assert hom_mul(a, b).noise_bound == (
                a.noise_bound * np.max(np.abs(sb)) + b.noise_bound * np.max(np.abs(sa))
                + noise_std)
            assert hom_mul(a, m).noise_bound == a.noise_bound * np.max(np.abs(m)) + noise_std
            assert hom_mul(b, a).noise_bound == (
                b.noise_bound * np.max(np.abs(sa)) + a.noise_bound * np.max(np.abs(sb))
                + noise_std)

    def test_noise_added_to_explicit_draws(self):
        """Each noisy op adds the context's next N(0, sigma) draw to its
        exact result."""
        sigma, n = 1e-3, 64
        ctx = make_ctx(slot_count=n, noise_std=sigma, seed=11)
        rng = np.random.default_rng(3)
        m1, m2 = rng.normal(size=n), rng.normal(size=n)
        c = ctx.encrypt(m1)
        s = hom_add(c, m2)
        ref = np.random.default_rng(11)
        c_ref = m1 + ref.normal(0.0, sigma, n)
        assert np.array_equal(ctx.decrypt(c), c_ref)
        assert np.array_equal(ctx.decrypt(s), (c_ref + m2) + ref.normal(0.0, sigma, n))

    def test_results_own_their_memory(self):
        """Noisy results never alias each other or the context's scratch
        buffer, and a later op leaves an earlier result unchanged."""
        ctx = make_ctx(slot_count=64, noise_std=1e-3, seed=4)
        rng = np.random.default_rng(8)
        results = []
        for _ in range(3):
            c = ctx.encrypt(rng.normal(size=64))
            results += [c, hom_dot([(c, c, 1), (c, c, 5)]), hom_dot([(c, c, 2)]),
                        hom_add(c, c), hom_mul(c, c)]
        snapshots = [ctx.decrypt(r) for r in results]
        hom_dot([(results[0], results[1], 3), (results[2], results[3], 7)])
        buffers = [r._slots for r in results] + [ctx._scratch()]
        for i, s in enumerate(buffers):
            for t in buffers[i + 1:]:
                assert not np.shares_memory(s, t)
        for r, snap in zip(results, snapshots):
            assert np.array_equal(ctx.decrypt(r), snap)

    def test_seeded_reproducibility(self):
        def run():
            ctx = make_ctx(noise_std=1e-9, seed=99)
            c = hom_mul(hom_add(ctx.encrypt(np.arange(8.0)), np.ones(8)),
                        ctx.encrypt(np.arange(8.0)))
            return ctx.decrypt(c)
        assert np.array_equal(run(), run())


def composed_dot(terms):
    """Reference for hom_dot: rotate, multiply, then a left-to-right sum."""
    acc = None
    for a, b, s in terms:
        term = hom_mul(a, rotate(b, s))
        acc = term if acc is None else hom_add(acc, term)
    return acc


def dot_operands(seed, noise_std, slot_count=16, max_depth=8):
    """Random hom_dot terms over a context and its public view, at random
    levels and nonzero noise bounds (as a received ciphertext declares
    them). Deterministic in its arguments."""
    rng = np.random.default_rng(seed)
    ctx = make_ctx(slot_count=slot_count, noise_std=noise_std, max_depth=max_depth, seed=5)
    contexts = (ctx, ctx.public_context())

    def cipher():
        c = contexts[rng.integers(2)].encrypt(rng.normal(size=slot_count))
        for _ in range(rng.integers(3)):
            c = hom_mul(c, rng.normal(size=slot_count))
        c.noise_bound += rng.uniform(0, 1e-3)
        return c

    terms = [(cipher(), cipher(), int(rng.integers(-3 * slot_count, 3 * slot_count)))
             for _ in range(rng.integers(1, 7))]
    return contexts, terms


class TestHomDot:
    @pytest.mark.parametrize("noise_std", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_composed_ops(self, seed, noise_std):
        """Same level and per-context op counts as the composed
        ops. Without noise the slots and the noise bound are bit-identical;
        with noise the composed bound reads max|rot(b)| off the noisy
        rotation, so it moves by O(sigma)."""
        (ctx, pub), terms = dot_operands(seed, noise_std)
        fused = hom_dot(terms)
        (ctx_ref, pub_ref), terms_ref = dot_operands(seed, noise_std)
        ref = composed_dot(terms_ref)
        assert (fused.level, fused.key_id) == (ref.level, ref.key_id)
        assert fused._ctx is terms[0][0]._ctx
        assert ctx.op_counts == ctx_ref.op_counts
        assert pub.op_counts == pub_ref.op_counts
        got, want = ctx.decrypt(fused), ctx_ref.decrypt(ref)
        if noise_std == 0:
            assert fused.noise_bound == ref.noise_bound > 0
            assert np.array_equal(got, want)
        else:
            assert fused.noise_bound == pytest.approx(ref.noise_bound, rel=1e-2)
            assert np.max(np.abs(got - want)) < 2 * ref.noise_bound

    def test_depth_exhausted_at_the_same_level(self):
        ctx = make_ctx(max_depth=2)
        fresh = ctx.encrypt(np.ones(8))
        once = hom_mul(fresh, np.ones(8))
        twice = hom_mul(once, np.ones(8))
        assert hom_dot([(once, fresh, 1), (fresh, once, 2)]).level == 2
        for terms in ([(twice, fresh, 1)], [(fresh, fresh, 0), (fresh, twice, 3)]):
            with pytest.raises(DepthExhausted):
                composed_dot(terms)
            with pytest.raises(DepthExhausted):
                hom_dot(terms)

    def test_mixed_keys_rejected(self):
        ctx, other = make_ctx(seed=1), make_ctx(seed=2)
        a, b, x = ctx.encrypt(np.ones(8)), ctx.encrypt(np.ones(8)), other.encrypt(np.ones(8))
        for terms in ([(a, x, 1)], [(a, b, 1), (x, b, 2)], [(a, b, 0), (b, x, 3)]):
            with pytest.raises(KeyMismatch):
                composed_dot(terms)
            with pytest.raises(KeyMismatch):
                hom_dot(terms)

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError):
            hom_dot([])

    @pytest.mark.parametrize("op", [hom_dot, composed_dot], ids=["fused", "composed"])
    def test_noise_distribution(self, op):
        """Given the input slots, the residual is N(0, sigma^2 (sum_t a_t^2 +
        2T - 1)) per slot: standardized, its mean is within 5 standard errors
        of 0 and its variance inside the two-sided 1e-6 chi-square bound."""
        sigma, n = 1e-3, 2 ** 16
        ctx = make_ctx(slot_count=n, noise_std=sigma, seed=17)
        rng = np.random.default_rng(4)
        terms = [(ctx.encrypt(rng.uniform(-2, 2, n)), ctx.encrypt(rng.normal(size=n)), s)
                 for s in (0, 1, 5, n - 1)]
        a = [ctx.decrypt(t[0]) for t in terms]
        exact = sum(ai * np.roll(ctx.decrypt(b), -s) for ai, (_, b, s) in zip(a, terms))
        scale = sigma * np.sqrt(sum(ai ** 2 for ai in a) + 2 * len(terms) - 1)
        z = (ctx.decrypt(op(terms)) - exact) / scale
        assert abs(z.mean()) < 5 / np.sqrt(n)
        lo, hi = stats.chi2.ppf([1e-6, 1 - 1e-6], n) / n
        assert lo < np.mean(z ** 2) < hi


class TestMalleability:
    def test_public_party_shifts_plaintext(self):
        # holder of the public context alone turns [[m]] into [[m + a]]
        ctx = make_ctx()
        pub = ctx.public_context()
        m = np.arange(8.0)
        a = np.full(8, 2.5)
        c = ctx.encrypt(m)
        with pytest.raises(KeyMismatch):
            pub.decrypt(c)
        shifted = hom_add(c, pub.encrypt(a))
        assert np.allclose(ctx.decrypt(shifted), m + a, atol=1e-12)


class TestSerialization:
    def test_round_trip(self):
        ctx = make_ctx()
        c = hom_mul(ctx.encrypt(np.arange(8.0)), np.full(8, 2.0))
        back = deserialize_ciphertext(ctx, serialize_ciphertext(c))
        assert np.array_equal(ctx.decrypt(back), ctx.decrypt(c))
        assert back.level == c.level
        assert back.noise_bound == c.noise_bound

    def test_byte_length(self):
        ctx = make_ctx()
        blob = serialize_ciphertext(ctx.encrypt(np.zeros(8)))
        assert len(blob) == 4 + 4 + 8 + 8 * 8 + 8

    def test_truncated_blob_rejected(self):
        ctx = make_ctx()
        blob = serialize_ciphertext(ctx.encrypt(np.zeros(8)))
        with pytest.raises(ValueError):
            deserialize_ciphertext(ctx, blob[:-1])

    def test_foreign_key_blob_rejected(self):
        blob = serialize_ciphertext(make_ctx(seed=5).encrypt(np.zeros(8)))
        with pytest.raises(KeyMismatch):
            deserialize_ciphertext(make_ctx(seed=6), blob)

    @staticmethod
    def struct_reference(c, slots):
        """The wire blob packed value by value with ``struct``."""
        n = len(slots)
        return (struct.pack("<IIQ", n, c.level, c.key_id)
                + struct.pack(f"<{n}d", *slots)
                + struct.pack("<d", c.noise_bound))

    @pytest.mark.parametrize("slot_count", [8, 2 ** 16])
    def test_bytes_match_struct_reference(self, slot_count):
        rng = np.random.default_rng(slot_count)
        ctx = make_ctx(slot_count=slot_count, noise_std=1e-6)
        c = hom_mul(ctx.encrypt(rng.normal(0, 1e3, slot_count)), rng.uniform(-2, 2, slot_count))
        blob = serialize_ciphertext(c)
        assert blob == self.struct_reference(c, ctx.decrypt(c))
        assert serialize_ciphertext(deserialize_ciphertext(ctx, blob)) == blob

    @pytest.mark.parametrize("slot_count", [8, 2 ** 16])
    def test_special_values_round_trip_bit_exact(self, slot_count):
        special = [-0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 0.0, 1.0]
        values = np.resize(np.array(special), slot_count)
        ctx = make_ctx(slot_count=slot_count)
        c = ctx.encrypt(values)
        blob = serialize_ciphertext(c)
        assert blob == self.struct_reference(c, values)
        back = ctx.decrypt(deserialize_ciphertext(ctx, blob))
        assert back.tobytes() == values.tobytes()

    def test_slots_own_their_memory(self):
        ctx = make_ctx()
        blob = bytearray(serialize_ciphertext(ctx.encrypt(np.arange(8.0))))
        slots = deserialize_ciphertext(ctx, blob)._slots
        assert slots.dtype == np.float64
        assert slots.flags.writeable and slots.flags.owndata
        assert not np.shares_memory(slots, np.frombuffer(blob, np.uint8))
        blob[16:24] = struct.pack("<d", 99.0)
        assert np.array_equal(slots, np.arange(8.0))


def test_pad_slots():
    assert np.array_equal(pad_slots([1, 2, 3], 8),
                          [1, 2, 3, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        pad_slots(np.zeros(9), 8)
