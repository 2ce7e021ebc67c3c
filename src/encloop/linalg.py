"""Encrypted linear algebra via the diagonal method.

A square matrix S is represented by the (encrypted) tuple of its wrapping
diagonals S_i[j] = S[j, (i+j) mod d]. Matrix-vector products then reduce to
slotwise multiplies against rotated copies of the vector:

    S v = sum_i  S_i * rot_i(v)

and matrix-matrix products to the analogous recombination of diagonals.
A matvec is the backend's fused ``DotTerms``, which a matrix builds on its
first product and keeps as its only cache; a matmat composes its rotations,
products and sums op by op.
Only the wrapped diagonals that hold a nonzero entry are stored; the missing
ones are implicitly zero and are skipped, not materialized.

All logical dimensions are padded up to the backend slot count, so every
vector occupies one full ciphertext and rotations wrap consistently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import DotTerms, KeyContext, PackedCiphertext, hom_add, hom_mul, rotate

__all__ = [
    "DiagMatrixCipher",
    "next_pow2",
    "wrapped_diagonals",
    "encrypt_matrix",
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
    diagonals in key order, which also holds their noise scale), so
    ``diagonals`` must not be changed (no entry added, removed or replaced)
    after the first product.
    """

    dim: int
    diagonals: dict[int, PackedCiphertext]
    _terms: DotTerms | None = field(default=None, repr=False, compare=False)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def wrapped_diagonals(S, dim: int, copies: int = 1) -> tuple[list[int], np.ndarray]:
    """The wrapped diagonals of the block-diagonal replication
    kron(I_copies, S) at logical dimension ``dim``, without materializing
    it: the ascending indices of those that hold a nonzero entry, and those
    diagonals as the rows of a (len(indices), dim) array.

    The nonzero entry S[r, c] belongs to wrapped diagonal (c - r) mod dim
    and fills its slot r. With more than one copy S must be square: copy b
    of the entry sits at (b*rows + r, b*rows + c), on the same diagonal in
    slot b*rows + r, so each entry's copies are one strided slice of its
    diagonal.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("expected a matrix")
    rows, cols = S.shape
    if copies < 1:
        raise ValueError(f"copies must be at least 1, got {copies}")
    if copies * rows > dim or copies * cols > dim:
        raise ValueError(f"{copies} copies of a matrix of shape {S.shape} "
                         f"exceed dimension {dim}")
    if copies > 1 and rows != cols:
        raise ValueError(f"{copies} copies need a square block, got shape {S.shape}")
    r, c = np.nonzero(S)
    entries = [((j - i) % dim, i, S[i, j]) for i, j in zip(r.tolist(), c.tolist())]
    indices = sorted({key for key, _, _ in entries})
    row = {key: k for k, key in enumerate(indices)}  # wrapped diagonal -> row of ``diags``
    diags = np.zeros((len(indices), dim))
    for key, i, v in entries:
        diags[row[key], i: i + copies * rows: rows] = v
    return indices, diags


def encrypt_matrix(ctx: KeyContext, S, copies: int = 1) -> DiagMatrixCipher:
    """Encrypt the block-diagonal replication kron(I_copies, S) as its
    wrapping diagonals, padded to the slot count, without materializing it
    (``wrapped_diagonals``). Only the wrapped diagonals holding a nonzero
    entry are encrypted, in ascending index order. Which ones these are is
    public structure: every party in this simulator builds its matrices from
    plaintext.
    """
    dim = ctx.config.slot_count
    indices, diags = wrapped_diagonals(S, dim, copies)
    return DiagMatrixCipher(dim=dim, diagonals={
        i: ctx.encrypt(diag) for i, diag in zip(indices, diags)})


def enc_matvec(S: DiagMatrixCipher, v: PackedCiphertext) -> PackedCiphertext:
    """Encrypted matrix-vector product; consumes exactly one level and
    performs one slotwise multiply per stored diagonal."""
    if S.dim != v._ctx.config.slot_count:
        raise ValueError(f"matrix dim {S.dim} does not match ciphertext slots")
    if not S.diagonals:  # all-zero (empty) matrix
        return hom_mul(v, np.zeros(S.dim))
    if S._terms is None:
        S._terms = DotTerms(S.diagonals.values(), S.diagonals)
    return S._terms(v)


def enc_matmat(S: DiagMatrixCipher, T: DiagMatrixCipher) -> DiagMatrixCipher:
    """Encrypted matrix-matrix product in diagonal form; one level deep.
    Output diagonal (i + j) mod d sums S_i * rot_i(T_j) over the stored
    diagonal pairs, each term a ``rotate`` and a ``hom_mul``, the terms
    added left to right in (i, j) order."""
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: {S.dim} vs {T.dim}")
    d = S.dim
    out: dict[int, PackedCiphertext] = {}
    for i, Si in S.diagonals.items():
        for j, Tj in T.diagonals.items():
            k = (i + j) % d
            term = hom_mul(Si, rotate(Tj, i))
            out[k] = hom_add(out[k], term) if k in out else term
    return DiagMatrixCipher(dim=d, diagonals=out)


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

