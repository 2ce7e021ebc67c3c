"""Encrypted linear algebra via the diagonal method.

A square matrix S is represented by the (encrypted) tuple of its wrapping
diagonals S_i[j] = S[j, (i+j) mod d]. Matrix-vector products then reduce to
slotwise multiplies against rotated copies of the vector:

    S v = sum_i  S_i * rot_i(v)

and matrix-matrix products to the analogous recombination of diagonals.
Every such sum is the backend's fused ``hom_dot``, with the op counts and
level of the composed rotations, products and sums: one per output diagonal
of a matmat, and one per matvec in the form ``DotTerms``, which a matrix
builds on its first product (its diagonals checked once, and their noise
scale computed once).
Only the wrapped diagonals that hold a nonzero entry are stored; the missing
ones are implicitly zero and are skipped, not materialized.

All logical dimensions are padded up to the backend slot count, so every
vector occupies one full ciphertext and rotations wrap consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import (DotTerms, KeyContext, PackedCiphertext, dot_noise_scale, hom_dot,
                      hom_mul)

__all__ = [
    "DiagMatrixCipher",
    "wrapping_diagonal",
    "next_pow2",
    "encrypt_matrix",
    "decrypt_matrix",
    "enc_matvec",
    "enc_matmat",
    "enc_matrix_power",
]


@dataclass
class DiagMatrixCipher:
    """Matrix encrypted as a tuple of wrapping-diagonal ciphertexts.

    ``diagonals`` maps the wrapped diagonal index (0 <= i < dim) to its
    ciphertext; absent indices are implicitly zero.

    The first ``enc_matvec`` caches its terms (``DotTerms`` over the
    diagonals in key order) and, on a noisy context, ``hom_dot``'s noise
    scale over them, so ``diagonals`` must not be changed (no entry added,
    removed or replaced) after the first product.
    """

    dim: int
    diagonals: dict[int, PackedCiphertext]
    _terms: DotTerms | None = field(default=None, repr=False, compare=False)
    _noise_scale: np.ndarray | None = field(default=None, repr=False, compare=False)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def wrapping_diagonal(S, i: int, dim: int | None = None) -> np.ndarray:
    """The i-th wrapping diagonal of S at logical dimension ``dim``, without
    materializing the padded matrix (S may be rectangular). The per-diagonal
    reference for ``encrypt_matrix``, which places entries directly."""
    S = np.asarray(S, dtype=float)
    rows, cols = S.shape
    d = dim if dim is not None else rows
    if rows > d or cols > d:
        raise ValueError("matrix exceeds the requested dimension")
    out = np.zeros(d)
    j = np.arange(min(rows, d))
    col = (i + j) % d
    mask = col < cols
    out[j[mask]] = S[j[mask], col[mask]]
    return out


def encrypt_matrix(ctx: KeyContext, S, copies: int = 1) -> DiagMatrixCipher:
    """Encrypt the block-diagonal replication kron(I_copies, S) as its
    wrapping diagonals, padded to the slot count, without materializing it.

    Copy b of the nonzero entry S[r, c] sits at (b*rows + r, b*cols + c): it
    belongs to wrapped diagonal (c' - r') mod slot_count and fills that
    diagonal's slot r'. Only the wrapped diagonals holding a nonzero entry
    are encrypted, in ascending index order. Which ones these are is public
    structure: every party in this simulator builds its matrices from
    plaintext.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("expected a matrix")
    dim = ctx.config.slot_count
    rows, cols = S.shape
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    if copies * rows > dim or copies * cols > dim:
        raise ValueError(f"{copies} copies of a matrix of shape {S.shape} "
                         f"exceed slot_count {dim}")
    r, c = np.nonzero(S)
    if copies > 1 and rows == cols:
        # every copy of a square block's entry lies on the entry's own wrapped
        # diagonal, in every rows-th slot from r: one strided slice per entry
        entries = [((j - i) % dim, i, S[i, j]) for i, j in zip(r.tolist(), c.tolist())]
        indices = sorted({key for key, _, _ in entries})
        row = {key: k for k, key in enumerate(indices)}  # wrapped diagonal -> row of ``diags``
        diags = np.zeros((len(indices), dim))
        for key, i, v in entries:
            diags[row[key], i: i + copies * rows: rows] = v
    else:
        vals = S[r, c]
        if copies > 1:  # (copies, nnz) positions; the values broadcast over copies
            b = np.arange(copies)[:, None]
            r, c = r + b * rows, c + b * cols
        keys = (c - r) % dim
        present = np.zeros(dim, dtype=bool)
        present[keys] = True
        indices = np.flatnonzero(present)
        row = np.empty(dim, dtype=np.intp)  # wrapped diagonal -> row of ``diags``
        row[indices] = np.arange(len(indices))
        diags = np.zeros((len(indices), dim))
        diags[row[keys], r] = vals
        indices = indices.tolist()
    return DiagMatrixCipher(dim=dim, diagonals={
        i: ctx.encrypt(diag) for i, diag in zip(indices, diags)})


def decrypt_matrix(ctx: KeyContext, M: DiagMatrixCipher) -> np.ndarray:
    """Reassemble the plaintext matrix from decrypted diagonals (test aid)."""
    d = M.dim
    S = np.zeros((d, d))
    j = np.arange(d)
    for i, c in M.diagonals.items():
        S[j, (i + j) % d] = ctx.decrypt(c)
    return S


def enc_matvec(S: DiagMatrixCipher, v: PackedCiphertext) -> PackedCiphertext:
    """Encrypted matrix-vector product; consumes exactly one level and
    performs one slotwise multiply per stored diagonal."""
    if S.dim != v._ctx.config.slot_count:
        raise ValueError(f"matrix dim {S.dim} does not match ciphertext slots")
    if not S.diagonals:  # all-zero (empty) matrix
        return hom_mul(v, np.zeros(S.dim))
    if S._terms is None:
        S._terms = DotTerms(S.diagonals.values(), S.diagonals)
        if S._terms.ctx.config.noise_std:
            S._noise_scale = dot_noise_scale(S.diagonals.values())
    return S._terms(v, S._noise_scale)


def enc_matmat(S: DiagMatrixCipher, T: DiagMatrixCipher) -> DiagMatrixCipher:
    """Encrypted matrix-matrix product in diagonal form; one level deep. Each
    output diagonal's noise scale is computed afresh (its terms differ)."""
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: {S.dim} vs {T.dim}")
    d = S.dim
    terms: dict[int, list] = {}
    for i, Si in S.diagonals.items():
        for j, Tj in T.diagonals.items():
            terms.setdefault((i + j) % d, []).append((Si, Tj, i))
    return DiagMatrixCipher(dim=d, diagonals={k: hom_dot(t) for k, t in terms.items()})


def enc_matrix_power(S: DiagMatrixCipher, n: int) -> DiagMatrixCipher:
    """S^n by square-and-multiply (depth ~ ceil(log2 n))."""
    if n < 1:
        raise ValueError("exponent must be a positive integer")
    result = None
    base = S
    while n:
        if n & 1:
            result = base if result is None else enc_matmat(result, base)
        n >>= 1
        if n:
            base = enc_matmat(base, base)
    return result

