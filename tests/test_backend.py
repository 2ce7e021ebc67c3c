import struct

import numpy as np
import pytest
from scipy import stats

from encloop.backend import (
    MAX_SLOTS,
    PARTIES,
    BackendConfig,
    DepthExhausted,
    DotTerms,
    KeyMismatch,
    check_ciphertext_blob,
    ciphertext_blob_size,
    context_create,
    deserialize_ciphertext,
    dot_noise_scale,
    hand_over,
    hom_add,
    hom_mul,
    hom_neg,
    hom_sub,
    pad_slots,
    party_rng,
    rotate,
    serialize_ciphertext,
)
from helpers import fused_reference


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
        assert ctx.config.slot_count == 2 ** 16 == MAX_SLOTS

    def test_slot_count_over_the_bound_rejected(self):
        with pytest.raises(ValueError, match=f"at most {MAX_SLOTS}, got {2 ** 17}"):
            BackendConfig(slot_count=2 ** 17)

    def test_bad_depth_and_noise(self):
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, max_depth=0)
        with pytest.raises(ValueError):
            BackendConfig(slot_count=8, noise_std=-1.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            BackendConfig(slot_count=8, seed=-1)

    @pytest.mark.parametrize("noise_std", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, noise_std):
        with pytest.raises(ValueError, match="noise_std must be finite and nonnegative"):
            BackendConfig(slot_count=8, noise_std=noise_std)


class TestEncryptDecrypt:
    def test_zero_round_trip(self):
        ctx = make_ctx()
        assert np.array_equal(ctx.decrypt(ctx.encrypt(np.zeros(8))), np.zeros(8))

    def test_exact_round_trip(self):
        ctx = make_ctx(slot_count=4)
        m = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(ctx.decrypt(ctx.encrypt(m)), m)

    @pytest.mark.parametrize("noise_std", [0.0, 1e-3])
    def test_encrypt_takes_its_own_copy(self, noise_std):
        """The caller keeps its plaintext: encrypting neither writes to it
        (the noise goes to the copy) nor shares it, so a later write to it
        leaves the ciphertext as it was."""
        ctx = make_ctx(noise_std=noise_std, seed=3)
        m = np.arange(8.0)
        c = ctx.encrypt(m)
        assert np.array_equal(m, np.arange(8.0))
        before = ctx.decrypt(c)
        assert np.array_equal(before, m) == (noise_std == 0)
        m[:] = -1.0
        assert np.array_equal(ctx.decrypt(c), before)

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

    def test_noise_stream_built_on_first_draw(self):
        """A noiseless context builds no generator; a noisy one builds
        default_rng(seed) at its first draw."""
        quiet = make_ctx(seed=11)
        c = quiet.encrypt(np.ones(8))
        DotTerms([c], [1])(hom_mul(c, c))
        assert quiet._rng is None
        ctx = make_ctx(noise_std=1e-3, seed=11)
        assert ctx._rng is None
        noisy = ctx.decrypt(ctx.encrypt(np.zeros(8)))
        assert np.array_equal(noisy, np.random.default_rng(11).normal(0.0, 1e-3, 8))

    def test_stream_tag_picks_the_generator(self):
        """Every party's context builds its stream, default_rng([seed,
        *tag]) with the party's tag, at its first draw, not before; the
        plant's is default_rng(seed)."""
        ctx = make_ctx(noise_std=1e-3, seed=11)
        for party, (_, tag) in PARTIES.items():
            other = context_create(ctx.config, party)
            assert other.key_id == ctx.key_id and other._rng is None
            other.encrypt(np.zeros(8))
            ref = np.random.default_rng([11, *tag])
            ref.standard_normal(8)  # the encryption's one draw
            assert other.rng.bit_generator.state == ref.bit_generator.state
        assert party_rng("plant", 11).bit_generator.state == (
            np.random.default_rng(11).bit_generator.state)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_party_streams_start_apart(self, seed):
        """No two parties' streams start from one state, at this seed or at
        the next: a party's stream is never another's at a neighbouring
        seed, as a tag of 0 or an offset seed would make it."""
        starts = [party_rng(party, s).bit_generator.state["state"]["state"]
                  for party in PARTIES for s in (seed, seed + 1)]
        assert len(set(starts)) == len(starts) == 2 * len(PARTIES)

    def test_public_context_from_the_config(self):
        """``context_create(config, "attacker")`` is the public key of
        ``context_create(config)``, built without its secret key: it cannot
        decrypt, and what it encrypts decrypts under the secret key. Only
        the plant and the observer hold the secret key."""
        ctx = make_ctx(seed=11)
        pub = context_create(ctx.config, "attacker")
        assert (pub.key_id, pub.party, pub.has_secret_key) == (ctx.key_id, "attacker", False)
        c = pub.encrypt(np.ones(8))
        with pytest.raises(KeyMismatch, match="the attacker's context holds no secret key"):
            pub.decrypt(c)
        assert np.array_equal(ctx.decrypt(c), np.ones(8))
        holders = {p for p in PARTIES if context_create(ctx.config, p).has_secret_key}
        assert holders == {"plant", "observer", "verifier"}

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
            results += [c, DotTerms([c, c], [1, 5])(c), DotTerms([c], [2])(c),
                        hom_add(c, c), hom_mul(c, c)]
        snapshots = [ctx.decrypt(r) for r in results]
        DotTerms([results[0], results[2]], [3, 7])(results[1])
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


def fused_dot(coeffs, shifts, b):
    return DotTerms(coeffs, shifts)(b)


def composed_dot(coeffs, shifts, b):
    """Reference for ``DotTerms``: rotate, multiply, then a left-to-right sum."""
    acc = None
    for a, s in zip(coeffs, shifts):
        term = hom_mul(a, rotate(b, s))
        acc = term if acc is None else hom_add(acc, term)
    return acc


def dot_operands(seed, noise_std, slot_count=16, max_depth=8):
    """Random ``DotTerms`` operands over a context and its public view, at
    random levels: the coefficients a_t, all on one of the two contexts,
    their shifts s_t and one b, on either. Deterministic in its arguments."""
    rng = np.random.default_rng(seed)
    ctx = make_ctx(slot_count=slot_count, noise_std=noise_std, max_depth=max_depth, seed=5)
    contexts = (ctx, context_create(ctx.config, "attacker"))

    def cipher(context):
        c = context.encrypt(rng.normal(size=slot_count))
        for _ in range(rng.integers(3)):
            c = hom_mul(c, rng.normal(size=slot_count))
        return c

    T = rng.integers(1, 7)
    coeff_ctx = contexts[rng.integers(2)]
    coeffs = [cipher(coeff_ctx) for _ in range(T)]
    shifts = [int(rng.integers(-3 * slot_count, 3 * slot_count)) for _ in range(T)]
    return contexts, (coeffs, shifts, cipher(contexts[rng.integers(2)]))


class TestHomDot:
    """The fused homomorphic dot product sum_t a_t * rot_{s_t}(b),
    ``DotTerms``, against the composed rotate, multiply and add ops."""

    @pytest.mark.parametrize("noise_std", [0.0, 1e-3])
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_composed_ops(self, seed, noise_std):
        """Same level and per-context op counts as the composed ops. Without
        noise the slots are bit-identical; with noise they are the fused
        reference's (``helpers.fused_reference``), and both lie within six
        standard deviations of their common law, sigma * sqrt(sum_t a_t^2 +
        2T - 1) per slot, of the exact sum over the same operands."""
        (ctx, pub), (coeffs, shifts, b) = dot_operands(seed, noise_std)
        want_fused = fused_reference(coeffs, shifts, b)
        fused = fused_dot(coeffs, shifts, b)
        (ctx_ref, pub_ref), operands_ref = dot_operands(seed, noise_std)
        ref = composed_dot(*operands_ref)
        assert (fused.level, fused.key_id) == (ref.level, ref.key_id)
        assert fused._ctx is coeffs[0]._ctx
        assert ctx.op_counts == ctx_ref.op_counts
        assert pub.op_counts == pub_ref.op_counts
        got, want = ctx.decrypt(fused), ctx_ref.decrypt(ref)
        assert np.array_equal(got, want_fused)
        if noise_std == 0:
            assert np.array_equal(got, want)
        else:
            exact = sum(ctx.decrypt(a) * np.roll(ctx.decrypt(b), -s)
                        for a, s in zip(coeffs, shifts))
            scale = dot_noise_scale(coeffs)
            assert np.all(np.abs(got - exact) < 6 * scale)
            assert np.all(np.abs(want - exact) < 6 * scale)

    def test_depth_exhausted_at_the_same_level(self):
        ctx = make_ctx(max_depth=2)
        fresh = ctx.encrypt(np.ones(8))
        once = hom_mul(fresh, np.ones(8))
        twice = hom_mul(once, np.ones(8))
        assert fused_dot([once, fresh], [1, 2], once).level == 2
        for coeffs, b in (([twice], fresh), ([fresh, fresh], twice)):
            for op in (composed_dot, fused_dot):
                with pytest.raises(DepthExhausted):
                    op(coeffs, [1, 3][:len(coeffs)], b)

    def test_mixed_keys_rejected(self):
        """A foreign key is a ``KeyMismatch``. ``DotTerms`` also refuses, when
        it is built, a coefficient on another context of the same key."""
        ctx, other = make_ctx(seed=1), make_ctx(seed=2)
        a, b, x = ctx.encrypt(np.ones(8)), ctx.encrypt(np.ones(8)), other.encrypt(np.ones(8))
        for coeffs, v in (([a], x), ([a, x], b), ([b, a], x)):
            for op in (composed_dot, fused_dot):
                with pytest.raises(KeyMismatch):
                    op(coeffs, [1, 2][:len(coeffs)], v)
        same_key = context_create(ctx.config, "attacker").encrypt(np.ones(8))
        with pytest.raises(ValueError, match="share one context"):
            DotTerms([a, same_key], [1, 2])

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError):
            DotTerms([], [])

    @pytest.mark.parametrize("op", [fused_dot, composed_dot], ids=["fused", "composed"])
    def test_noise_distribution(self, op):
        """Given the input slots, the residual is N(0, sigma^2 (sum_t a_t^2 +
        2T - 1)) per slot: standardized, its mean is within 5 standard errors
        of 0 and its variance inside the two-sided 1e-6 chi-square bound."""
        sigma, n = 1e-3, 2 ** 16
        ctx = make_ctx(slot_count=n, noise_std=sigma, seed=17)
        rng = np.random.default_rng(4)
        shifts = (0, 1, 5, n - 1)
        coeffs = [ctx.encrypt(rng.uniform(-2, 2, n)) for _ in shifts]
        b = ctx.encrypt(rng.normal(size=n))
        a = [ctx.decrypt(c) for c in coeffs]
        bs = ctx.decrypt(b)
        exact = sum(ai * np.roll(bs, -s) for ai, s in zip(a, shifts))
        scale = sigma * np.sqrt(sum(ai ** 2 for ai in a) + 2 * len(a) - 1)
        z = (ctx.decrypt(op(coeffs, shifts, b)) - exact) / scale
        assert abs(z.mean()) < 5 / np.sqrt(n)
        lo, hi = stats.chi2.ppf([1e-6, 1 - 1e-6], n) / n
        assert lo < np.mean(z ** 2) < hi


class TestMalleability:
    def test_public_party_shifts_plaintext(self):
        # holder of the public context alone turns [[m]] into [[m + a]]
        ctx = make_ctx()
        pub = context_create(ctx.config, "attacker")
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
        blob = serialize_ciphertext(c)
        back = deserialize_ciphertext(ctx, blob)
        assert np.array_equal(ctx.decrypt(back), ctx.decrypt(c))
        assert back.level == c.level
        # the reserved trailer is written 0.0 and ignored on read
        assert blob[-8:] == bytes(8)
        blob[-8:] = struct.pack("<d", 1e6)
        assert serialize_ciphertext(deserialize_ciphertext(ctx, blob)) == serialize_ciphertext(c)

    def test_byte_length(self):
        ctx = make_ctx()
        blob = serialize_ciphertext(ctx.encrypt(np.zeros(8)))
        assert len(blob) == 4 + 4 + 8 + 8 * 8 + 8 == ciphertext_blob_size(8)

    def test_truncated_blob_rejected(self):
        ctx = make_ctx()
        blob = serialize_ciphertext(ctx.encrypt(np.zeros(8)))
        with pytest.raises(ValueError):
            deserialize_ciphertext(ctx, blob[:-1])

    @pytest.mark.parametrize("cut, slot_count, message", [
        (15, 8, "too short"), (None, 16, "slot_count 16 does not match context 8")])
    def test_header_checked_before_the_slots(self, cut, slot_count, message):
        """A blob shorter than its 16-byte header, or one of another slot
        count, is refused from the header alone."""
        blob = serialize_ciphertext(make_ctx(slot_count=slot_count).encrypt(np.zeros(slot_count)))
        with pytest.raises(ValueError, match=message):
            check_ciphertext_blob(make_ctx(), blob[:cut])

    def test_foreign_key_blob_rejected(self):
        blob = serialize_ciphertext(make_ctx(seed=5).encrypt(np.zeros(8)))
        with pytest.raises(KeyMismatch):
            deserialize_ciphertext(make_ctx(seed=6), blob)

    @staticmethod
    def struct_reference(c, slots):
        """The wire blob packed value by value with ``struct``; the reserved
        trailer is 0.0."""
        n = len(slots)
        return (struct.pack("<IIQ", n, c.level, c.key_id)
                + struct.pack(f"<{n}d", *slots)
                + struct.pack("<d", 0.0))

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


class TestHandOver:
    def test_receiver_holds_the_same_ciphertext(self):
        """The handed-over ciphertext shares the sender's slots and level,
        and is what deserializing the sender's blob on the receiver gives."""
        sender = make_ctx(noise_std=1e-3, seed=5)
        receiver = context_create(sender.config, "observer")
        c = hom_mul(sender.encrypt(np.arange(8.0)), np.full(8, 0.5))
        got = hand_over(receiver, c)
        assert got._ctx is receiver and got.key_id == c.key_id
        assert got.level == c.level == 1
        assert np.shares_memory(got._slots, c._slots)
        wire = deserialize_ciphertext(receiver, serialize_ciphertext(c))
        assert serialize_ciphertext(got) == serialize_ciphertext(wire)

    def test_later_ops_count_and_draw_on_the_receiver(self):
        sender = make_ctx(noise_std=1e-3, seed=5)
        receiver = context_create(sender.config, "observer")
        m = np.arange(8.0)
        c = sender.encrypt(m)
        sender_ops, sender_state = dict(sender.op_counts), sender.rng.bit_generator.state
        ref = party_rng("observer", 5)
        out = rotate(hom_add(hand_over(receiver, c), np.ones(8)), 1)
        expected = np.roll(sender.decrypt(c) + 1.0 + 1e-3 * ref.standard_normal(8), -1)
        expected += 1e-3 * ref.standard_normal(8)
        assert np.array_equal(receiver.decrypt(out), expected)
        assert receiver.op_counts == {"add": 1, "mul": 0, "rot": 1, "enc": 0, "dec": 1}
        sender_ops["dec"] += 1  # the reference decrypt above
        assert sender.op_counts == sender_ops
        assert sender.rng.bit_generator.state == sender_state

    def test_foreign_key_rejected(self):
        c = make_ctx(seed=5).encrypt(np.zeros(8))
        with pytest.raises(KeyMismatch):
            hand_over(make_ctx(seed=6), c)
        with pytest.raises(ValueError, match="slot_count"):
            hand_over(make_ctx(slot_count=16, seed=5), c)


def test_pad_slots():
    assert np.array_equal(pad_slots([1, 2, 3], 8),
                          [1, 2, 3, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError):
        pad_slots(np.zeros(9), 8)
