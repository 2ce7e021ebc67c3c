import re

import numpy as np
import pytest

from encloop.backend import (GATHER_MAX, BackendConfig, DepthExhausted, DotTerms,
                             KeyMismatch, context_create, hom_add, hom_mul, pad_slots, rotate)
from encloop.control import quadruple_tank
from encloop.linalg import (
    DiagMatrixCipher,
    enc_matmat,
    enc_matrix_power,
    enc_matvec,
    encrypt_matrix,
    next_pow2,
    wrapped_diagonals,
)
from helpers import decrypt_matrix, fused_reference, wrapping_diagonal


def make_ctx(slot_count, max_depth=16, seed=1):
    return context_create(BackendConfig(slot_count=slot_count, max_depth=max_depth,
                                        seed=seed))


class TestDiagonalExtraction:
    def test_two_by_two(self):
        S = [[1.0, 2.0], [3.0, 4.0]]
        diags = [wrapping_diagonal(S, i) for i in range(2)]
        assert np.array_equal(diags[0], [1, 4])
        assert np.array_equal(diags[1], [2, 3])

    def test_identity(self):
        diags = [wrapping_diagonal(np.eye(4), i) for i in range(4)]
        assert np.array_equal(diags[0], np.ones(4))
        for i in range(1, 4):
            assert np.array_equal(diags[i], np.zeros(4))

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(2)
        S = rng.uniform(-5, 5, (8, 8))
        diags = [wrapping_diagonal(S, i) for i in range(8)]
        R = np.zeros((8, 8))
        for i in range(8):
            for j in range(8):
                R[j][(i + j) % 8] = diags[i][j]
        assert np.array_equal(R, S)

    def test_modular_indexing(self):
        # wrapped index arithmetic: diagonal -i coincides with diagonal d-i
        rng = np.random.default_rng(3)
        S = rng.uniform(-1, 1, (8, 8))
        for i in range(1, 8):
            assert np.array_equal(wrapping_diagonal(S, -i % 8),
                                  wrapping_diagonal(S, 8 - i))
        # entry (d-1, d+2) is entry (d-1, 2)
        assert wrapping_diagonal(S, 3)[7] == S[7, (3 + 7) % 8] == S[7, 2]

    def test_non_square_rejected(self):
        # without ``dim`` the row count is the dimension; 3 columns exceed it
        with pytest.raises(ValueError):
            wrapping_diagonal(np.zeros((2, 3)), 0)


class TestPadding:
    def test_padded_matvec_matches_leading(self):
        # encrypt_matrix pads a 3 x 3 matrix to the 8 slots; the leading
        # slots of the product are the unpadded product
        ctx = make_ctx(8)
        rng = np.random.default_rng(4)
        for _ in range(10):
            S = rng.uniform(-3, 3, (3, 3))
            v = rng.uniform(-3, 3, 3)
            c = ctx.encrypt(pad_slots(v, 8))
            out = ctx.decrypt(enc_matvec(encrypt_matrix(ctx, S), c))
            assert np.allclose(out[:3], S @ v, atol=1e-12)
            assert np.array_equal(out[3:], np.zeros(5))


class TestEncryptMatrix:
    def test_identity_band_zero(self):
        ctx = make_ctx(4)
        M = encrypt_matrix(ctx, np.eye(4))
        assert list(M.diagonals) == [0]

    def test_dense_round_trip(self):
        ctx = make_ctx(4)
        rng = np.random.default_rng(5)
        S = rng.uniform(-5, 5, (4, 4))
        M = encrypt_matrix(ctx, S)
        assert len(M.diagonals) == 4
        for i in range(4):
            assert np.allclose(ctx.decrypt(M.diagonals[i]),
                               wrapping_diagonal(S, i), atol=1e-12)
        assert np.allclose(decrypt_matrix(ctx, M), S, atol=1e-12)

    def test_bidiagonal_stores_upper_diagonal_only(self):
        ctx = make_ctx(8)
        S = np.diag(np.arange(1.0, 9.0)) + np.diag(np.ones(7), 1)
        # wrapped diagonal -1 (index 7) is all zero and is not stored
        assert list(encrypt_matrix(ctx, S).diagonals) == [0, 1]

    def test_band_scan_matches_per_diagonal_reference(self):
        """The nonzero-entry scan (``wrapped_diagonals``), and so
        ``encrypt_matrix``, keeps exactly the wrapped diagonals that a
        scan over every diagonal of the replication kron(I_copies, S) finds
        holding a nonzero entry, in ascending order, each equal to its
        plaintext diagonal. Only one copy may be of a non-square block."""

        def reference(S, dim):
            return [i for i in range(dim) if np.any(wrapping_diagonal(S, i, dim) != 0)]

        rng = np.random.default_rng(12)
        for case in range(300):
            copies = int(rng.choice([1, 2, 3, 5]))
            dim = int(rng.choice([d for d in (2, 4, 8, 16) if d >= copies]))
            ctx = make_ctx(dim)
            rows, cols = rng.integers(1, dim // copies + 1, size=2)
            if copies > 1:
                cols = rows
            S = rng.uniform(-2, 2, (rows, cols))
            S[rng.random((rows, cols)) > rng.choice([0.0, 0.05, 0.3, 1.0])] = 0.0
            if case % 5 == 0:  # a lone entry below the diagonal wraps around
                S[:] = 0.0
                S[rows - 1, 0] = 1.0
            elif case % 5 == 1:  # the all-zero matrix stores nothing
                S[:] = 0.0
            lifted = np.kron(np.eye(copies), S)
            indices, diags = wrapped_diagonals(S, dim, copies)
            assert indices == reference(lifted, dim)
            for i, diag in zip(indices, diags):
                assert np.array_equal(diag, wrapping_diagonal(lifted, i, dim))
            M = encrypt_matrix(ctx, S, copies)
            assert list(M.diagonals) == indices
            for i, c in M.diagonals.items():
                assert np.array_equal(ctx.decrypt(c), wrapping_diagonal(lifted, i, dim))

    @pytest.mark.parametrize("copies", [1, 2, 3, 5])
    def test_copies_match_dense_replication(self, copies):
        """Encrypting S with ``copies`` equals encrypting the dense
        kron(I_copies, S): the same diagonal keys and, on identically seeded
        noisy contexts, the same slots, so the RNG stream is unchanged."""
        rng = np.random.default_rng(30 + copies)
        for case in range(40):
            dim = int(rng.choice([16, 32, 64]))
            rows, cols = rng.integers(1, dim // copies + 1, size=2)
            if copies > 1 or case % 2:  # only one copy may be of a non-square block
                cols = rows
            S = rng.uniform(-2, 2, (rows, cols))
            S[rng.random((rows, cols)) > rng.choice([0.05, 0.3, 1.0])] = 0.0
            seed = int(rng.integers(1 << 30))
            ctx, ctx_ref = (context_create(BackendConfig(slot_count=dim, noise_std=1e-6,
                                                         seed=seed)) for _ in range(2))
            got = encrypt_matrix(ctx, S, copies)
            want = encrypt_matrix(ctx_ref, np.kron(np.eye(copies), S))
            assert list(got.diagonals) == list(want.diagonals)
            for g, w in zip(got.diagonals.values(), want.diagonals.values()):
                assert np.array_equal(ctx.decrypt(g), ctx_ref.decrypt(w))

    @pytest.mark.parametrize("copies, shape", [(0, (1, 1)), (-1, (1, 1)),
                                               (3, (3, 2)), (3, (2, 3)),
                                               (2, (2, 3)), (2, (3, 1))])
    def test_copies_out_of_range_rejected(self, copies, shape):
        # three copies of a 3 x 2 (2 x 3) block need 9 rows (columns) of 8
        # slots; two copies of a 2 x 3 or 3 x 1 block fit, but are not square
        fits = copies >= 1 and copies * max(shape) <= 8
        match = re.escape(f"square block, got shape {shape}") if fits else "copies"
        with pytest.raises(ValueError, match=match):
            encrypt_matrix(make_ctx(8), np.ones(shape), copies)


class TestMatVec:
    def test_identity(self):
        ctx = make_ctx(2)
        v = ctx.encrypt([5.0, 6.0])
        out = enc_matvec(encrypt_matrix(ctx, np.eye(2)), v)
        assert np.allclose(ctx.decrypt(out), [5, 6], atol=1e-12)

    def test_hand_trace(self):
        # [1,4]*[5,6] + [2,3]*rot1([5,6]) = [5,24] + [12,15] = [17,39]
        ctx = make_ctx(2)
        S = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = enc_matvec(encrypt_matrix(ctx, S), ctx.encrypt([5.0, 6.0]))
        assert np.allclose(ctx.decrypt(out), [17, 39], atol=1e-12)

    def test_consumes_one_level(self):
        ctx = make_ctx(4)
        out = enc_matvec(encrypt_matrix(ctx, np.eye(4)), ctx.encrypt(np.ones(4)))
        assert out.level == 1

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_random_oracle(self, d):
        ctx = make_ctx(d, seed=d)
        rng = np.random.default_rng(d)
        for _ in range(50):
            S = rng.uniform(-5, 5, (d, d))
            v = rng.uniform(-5, 5, d)
            out = ctx.decrypt(enc_matvec(encrypt_matrix(ctx, S), ctx.encrypt(v)))
            assert np.max(np.abs(out - S @ v)) < 1e-9

    def test_banded_equals_dense_and_mul_count(self):
        ctx = make_ctx(16)
        rng = np.random.default_rng(9)
        beta = 2
        S = np.zeros((16, 16))
        for i in range(-beta, beta + 1):
            vals = rng.uniform(-3, 3, 16)
            j = np.arange(16)
            S[j, (j + i) % 16] = vals
        v = rng.uniform(-3, 3, 16)
        banded = encrypt_matrix(ctx, S)
        before = ctx.op_counts["mul"]
        out_banded = ctx.decrypt(enc_matvec(banded, ctx.encrypt(v)))
        assert ctx.op_counts["mul"] - before == 2 * beta + 1
        assert np.allclose(out_banded, S @ v, atol=1e-12)

    def test_band_efficiency_factor(self):
        # dense / banded multiply count = d / (2 beta + 1) when every entry
        # of the dense matrix and of the band is nonzero
        ctx = make_ctx(16)
        rng = np.random.default_rng(10)
        beta = 1
        dense = rng.uniform(1, 2, (16, 16))
        banded = np.zeros((16, 16))
        j = np.arange(16)
        for i in range(-beta, beta + 1):
            banded[j, (j + i) % 16] = rng.uniform(1, 2, 16)
        v = ctx.encrypt(np.ones(16))
        before = ctx.op_counts["mul"]
        enc_matvec(encrypt_matrix(ctx, dense), v)
        dense_muls = ctx.op_counts["mul"] - before
        before = ctx.op_counts["mul"]
        enc_matvec(encrypt_matrix(ctx, banded), v)
        banded_muls = ctx.op_counts["mul"] - before
        assert dense_muls / banded_muls == 16 / (2 * beta + 1)

    def test_all_zero_matrix(self):
        ctx = make_ctx(8)
        M = encrypt_matrix(ctx, np.zeros((8, 8)))
        assert M.diagonals == {}
        out = enc_matvec(M, ctx.encrypt(np.ones(8)))
        assert out.level == 1
        assert np.array_equal(ctx.decrypt(out), np.zeros(8))

    def test_zero_diagonals_add_nothing(self):
        """The stored form gives exactly the output of one that also holds the
        zero diagonals in the wrapped range [-3, 3] (noiseless backend)."""
        ctx = make_ctx(16)
        rng = np.random.default_rng(11)
        S = np.zeros((16, 16))
        j = np.arange(16)
        for i in (-1, 0, 2):
            S[j, (j + i) % 16] = rng.uniform(-3, 3, 16)
        sparse = encrypt_matrix(ctx, S)
        assert list(sparse.diagonals) == [0, 2, 15]
        full = DiagMatrixCipher(dim=16, diagonals={
            i: ctx.encrypt(wrapping_diagonal(S, i)) for i in (0, 1, 2, 3, 13, 14, 15)})
        v = ctx.encrypt(rng.uniform(-3, 3, 16))
        assert np.array_equal(ctx.decrypt(enc_matvec(sparse, v)),
                              ctx.decrypt(enc_matvec(full, v)))

    @pytest.mark.parametrize("n", [8, 2 ** 16])
    def test_cached_noise_scale_matches_hom_dot(self, n):
        """Repeated noisy products of one matrix, whose noise scale is cached
        after the first, equal the fused reference over its diagonals
        (``helpers.fused_reference``): slots, level and op counts."""
        ctx = context_create(BackendConfig(slot_count=n, noise_std=1e-3, seed=21))
        rng = np.random.default_rng(4)
        M = DiagMatrixCipher(dim=n, diagonals={
            i: ctx.encrypt(rng.uniform(-2, 2, n)) for i in (0, 1, 3, n - 1)})
        for _ in range(3):
            v = ctx.encrypt(rng.normal(size=n))
            want = fused_reference(M.diagonals.values(), M.diagonals, v)
            before = dict(ctx.op_counts)
            got = enc_matvec(M, v)
            assert {op: ctx.op_counts[op] - before[op] for op in before} == {
                "add": 3, "mul": 4, "rot": 4, "enc": 0, "dec": 0}
            assert np.array_equal(ctx.decrypt(got), want)
            assert got.level == 1
        assert M._terms.noise_scale is not None

    def test_noiseless_matvec_caches_no_scale(self):
        ctx = make_ctx(8)
        M = encrypt_matrix(ctx, np.diag(np.arange(1.0, 9.0)) + np.eye(8, k=1))
        enc_matvec(M, ctx.encrypt(np.ones(8)))
        assert M._terms.noise_scale is None

    def test_depth_exhausted_propagates(self):
        ctx = make_ctx(4, max_depth=1)
        v = enc_matvec(encrypt_matrix(ctx, np.eye(4)), ctx.encrypt(np.ones(4)))
        with pytest.raises(DepthExhausted):
            enc_matvec(encrypt_matrix(ctx, np.eye(4)), v)


class TestCachedMatVec:
    """The first product caches a matrix's terms; every later one reuses them.
    Its T >= 2 terms over n slots gather at T * n <= GATHER_MAX, and
    multiply slice by slice otherwise."""

    @staticmethod
    def banded(n, noise_std=0.0, seed=21):
        """A context and an 8 x 8 block with wrapping entries, replicated over
        every slot, so that its diagonals sit at shifts 0, 1, 2 and n - 1."""
        ctx = context_create(BackendConfig(slot_count=n, noise_std=noise_std, seed=seed))
        S = np.diag(np.arange(1.0, 9.0)) + np.eye(8, k=1) - 0.5 * np.eye(8, k=2)
        S += 0.25 * np.eye(8, k=-1)
        return ctx, encrypt_matrix(ctx, S, copies=n // 8)

    @pytest.mark.parametrize("n, T, gather", [
        (64, 4, True), (1024, 4, False), (2 ** 16, 4, False),
        (GATHER_MAX // 4, 4, True), (GATHER_MAX // 4, 5, False),
        (GATHER_MAX // 2, 2, True), (GATHER_MAX // 16, 2, True), (GATHER_MAX // 8, 2, True),
        (GATHER_MAX // 4, 3, True), (GATHER_MAX // 2, 3, False),
        (GATHER_MAX, 1, False), (64, 1, False)])
    def test_plan_by_size(self, n, T, gather):
        """Only the chosen plan is built; one term keeps its one multiply."""
        ctx = context_create(BackendConfig(slot_count=n))
        terms = DotTerms([ctx.encrypt(np.ones(n)) for _ in range(T)], range(T))
        assert terms.gather is gather
        assert hasattr(terms, "index") is gather
        assert hasattr(terms, "rest") is not gather
        if T == 1:
            assert terms.rest == [] and terms.tmp is None and ctx._buf is None

    @pytest.mark.parametrize("n", [64, 1024, 2 ** 16, GATHER_MAX // 4])
    def test_noiseless_equals_composed_ops(self, n):
        ctx, M = self.banded(n)
        assert list(M.diagonals) == [0, 1, 2, n - 1]
        rng = np.random.default_rng(n)
        for _ in range(2):
            v = ctx.encrypt(rng.normal(size=n))
            acc = None
            for i, diag in M.diagonals.items():
                term = hom_mul(diag, rotate(v, i))
                acc = term if acc is None else hom_add(acc, term)
            got = enc_matvec(M, v)
            assert M._terms.gather is (4 * n <= GATHER_MAX)
            assert np.array_equal(ctx.decrypt(got), ctx.decrypt(acc))
            assert got.level == acc.level == 1

    def test_noisy_equals_uncached_hom_dot(self):
        """At sigma = 1e-3 the cached product (gathered at 64 slots, sliced at
        2^16) equals the fused reference over the same terms
        (``helpers.fused_reference``), at level 1 and with the composed ops'
        op-count deltas, on two products in a row."""
        for n in (64, 2 ** 16):
            ctx, M = self.banded(n, 1e-3)
            rng = np.random.default_rng(3)
            for _ in range(2):
                v = ctx.encrypt(rng.normal(size=n))
                want = fused_reference(M.diagonals.values(), M.diagonals, v)
                before = dict(ctx.op_counts)
                got = enc_matvec(M, v)
                assert M._terms.gather is (n == 64)
                assert np.array_equal(ctx.decrypt(got), want)
                assert got.level == 1
                assert ({op: ctx.op_counts[op] - before[op] for op in before}
                        == {"add": 3, "mul": 4, "rot": 4, "enc": 0, "dec": 1})

    def test_foreign_key_and_depth_still_raise(self):
        """Through the gather plan: a foreign key or an exhausted depth
        raises, and a call that raises counts no op."""
        ctx, M = self.banded(64)
        other = context_create(BackendConfig(slot_count=64, seed=99))
        for _ in range(2):  # before and after the terms are cached
            foreign = other.encrypt(np.ones(64))
            counts, other_counts = dict(ctx.op_counts), dict(other.op_counts)
            with pytest.raises(KeyMismatch):
                enc_matvec(M, foreign)
            assert (ctx.op_counts, other.op_counts) == (counts, other_counts)
            enc_matvec(M, ctx.encrypt(np.ones(64)))
        assert M._terms.gather
        v = ctx.encrypt(np.ones(64))
        while v.level < ctx.config.max_depth:
            v = hom_mul(v, np.ones(64))
        counts = dict(ctx.op_counts)
        with pytest.raises(DepthExhausted):
            enc_matvec(M, v)
        assert ctx.op_counts == counts


class TestMatMat:
    def test_times_identity(self):
        ctx = make_ctx(4)
        rng = np.random.default_rng(10)
        S = rng.uniform(-2, 2, (4, 4))
        out = enc_matmat(encrypt_matrix(ctx, S), encrypt_matrix(ctx, np.eye(4)))
        assert np.allclose(decrypt_matrix(ctx, out), S, atol=1e-12)

    def test_random_product_oracle(self):
        ctx = make_ctx(4)
        rng = np.random.default_rng(11)
        for _ in range(20):
            S = rng.uniform(-5, 5, (4, 4))
            T = rng.uniform(-5, 5, (4, 4))
            out = enc_matmat(encrypt_matrix(ctx, S), encrypt_matrix(ctx, T))
            assert np.max(np.abs(decrypt_matrix(ctx, out) - S @ T)) < 1e-9

    def test_associativity_with_vector(self):
        ctx = make_ctx(4, max_depth=8)
        rng = np.random.default_rng(12)
        for _ in range(10):
            S = rng.uniform(-2, 2, (4, 4))
            T = rng.uniform(-2, 2, (4, 4))
            v = rng.uniform(-2, 2, 4)
            eS, eT = encrypt_matrix(ctx, S), encrypt_matrix(ctx, T)
            lhs = ctx.decrypt(enc_matvec(enc_matmat(eS, eT), ctx.encrypt(v)))
            rhs = ctx.decrypt(enc_matvec(eS, enc_matvec(eT, ctx.encrypt(v))))
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_banded_product_band(self):
        ctx = make_ctx(16)
        S = np.diag(np.ones(16)) + np.diag(np.ones(15), 1)
        out = enc_matmat(encrypt_matrix(ctx, S), encrypt_matrix(ctx, S))
        assert sorted(out.diagonals) == [0, 1, 2]
        assert np.allclose(decrypt_matrix(ctx, out), S @ S, atol=1e-10)


class TestMatrixPower:
    def test_first_power(self):
        ctx = make_ctx(4)
        rng = np.random.default_rng(13)
        S = rng.uniform(-2, 2, (4, 4))
        out = enc_matrix_power(encrypt_matrix(ctx, S), 1)
        assert np.allclose(decrypt_matrix(ctx, out), S, atol=1e-12)

    def test_identity_power(self):
        ctx = make_ctx(4)
        out = enc_matrix_power(encrypt_matrix(ctx, np.eye(4)), 5)
        assert np.allclose(decrypt_matrix(ctx, out), np.eye(4), atol=1e-10)

    def test_tank_fourth_power(self):
        ctx = make_ctx(4)
        A = quadruple_tank().A
        out = enc_matrix_power(encrypt_matrix(ctx, A), 4)
        assert np.max(np.abs(decrypt_matrix(ctx, out)
                             - np.linalg.matrix_power(A, 4))) < 1e-8

    def test_depth_is_logarithmic(self):
        ctx = make_ctx(4, max_depth=3)
        A = quadruple_tank().A
        out = enc_matrix_power(encrypt_matrix(ctx, A), 8)
        assert {c.level for c in out.diagonals.values()} == {3}

    def test_bad_exponent(self):
        ctx = make_ctx(4)
        with pytest.raises(ValueError):
            enc_matrix_power(encrypt_matrix(ctx, np.eye(4)), 0)


def test_next_pow2():
    assert [next_pow2(n) for n in (1, 2, 3, 4, 5, 9)] == [1, 2, 4, 4, 8, 16]
