"""Encrypted linear algebra via the diagonal method.

A square matrix S is represented by the (encrypted) tuple of its wrapping
diagonals S_i[j] = S[j, (i+j) mod d]. Matrix-vector products then reduce to
slotwise multiplies against rotated copies of the vector:

    S v = sum_i  S_i * rot_i(v)

and matrix-matrix products to the analogous recombination of diagonals.
Every such sum goes through the backend's fused ``hom_dot``: one call per
matvec and one per output diagonal of a matmat, with the op counts, level and
noise bound of the composed rotations, products and sums.
Banded matrices store only the diagonals with wrapped index in [-band, band];
the missing diagonals are implicitly zero and are skipped, not materialized.

All logical dimensions are padded up to the backend slot count, so every
vector occupies one full ciphertext and rotations wrap consistently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import KeyContext, PackedCiphertext, hom_add, hom_dot, hom_mul, hom_neg, rotate

__all__ = [
    "DiagMatrixCipher",
    "wrapping_diagonal",
    "pad_to_pow2",
    "next_pow2",
    "encrypt_matrix",
    "decrypt_matrix",
    "enc_matvec",
    "enc_matmat",
    "enc_matrix_power",
    "enc_transpose",
    "enc_pinv_newton_schulz",
]


@dataclass
class DiagMatrixCipher:
    """Matrix encrypted as a tuple of wrapping-diagonal ciphertexts.

    ``diagonals`` maps the wrapped diagonal index (0 <= i < dim) to its
    ciphertext; absent indices are implicitly zero. ``band``, when set, is an
    upper bound: every stored index lies in the wrapped range [-band, band].
    """

    dim: int
    diagonals: dict[int, PackedCiphertext]
    band: int | None = None

    @property
    def level(self) -> int:
        return max((c.level for c in self.diagonals.values()), default=0)


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def pad_to_pow2(obj, target: int):
    """Zero-pad a vector or matrix to the given power-of-two size."""
    if target < 1 or (target & (target - 1)) != 0:
        raise ValueError(f"target {target} is not a power of two")
    a = np.asarray(obj, dtype=float)
    if a.ndim == 1:
        if len(a) > target:
            raise ValueError(f"vector of length {len(a)} exceeds target {target}")
        out = np.zeros(target)
        out[: len(a)] = a
        return out
    if a.ndim == 2:
        r, c = a.shape
        if r > target or c > target:
            raise ValueError(f"matrix of shape {a.shape} exceeds target {target}")
        out = np.zeros((target, target))
        out[:r, :c] = a
        return out
    raise ValueError("expected a vector or a matrix")


def wrapping_diagonal(S, i: int, dim: int | None = None) -> np.ndarray:
    """The i-th wrapping diagonal of S at logical dimension ``dim``, without
    materializing the padded matrix (S may be rectangular)."""
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


def _wrapped_offsets(S, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Wrapped diagonal index (c - r) mod dim of every nonzero entry S[r, c],
    and its distance min(i, dim - i) from the main diagonal."""
    r, c = np.nonzero(S)
    offs = (c - r) % dim
    return offs, np.minimum(offs, dim - offs)


def _minimal_band(dist: np.ndarray, dim: int) -> int | None:
    """Smallest beta such that all nonzero wrapped diagonals lie in
    [-beta, beta], or None if no band smaller than dense exists."""
    beta = int(dist.max(initial=0))
    return beta if 2 * beta + 1 < dim else None


def encrypt_matrix(ctx: KeyContext, S, band: int | str | None = None) -> DiagMatrixCipher:
    """Encrypt a matrix as its wrapping diagonals, padded to the slot count.

    Only the wrapped diagonals holding a nonzero entry are encrypted, in
    ascending index order. Which ones these are is public structure, like the
    band: every party in this simulator builds its matrices from plaintext.
    ``band=beta`` rejects matrices with a nonzero entry outside the wrapped
    range [-beta, beta] and records beta as a bound on the stored indices;
    ``band="auto"`` records the minimal such bound (None if it is not
    smaller than dense).
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2:
        raise ValueError("expected a matrix")
    dim = ctx.config.slot_count
    if S.shape[0] > dim or S.shape[1] > dim:
        raise ValueError(f"matrix of shape {S.shape} exceeds slot_count {dim}")
    offs, dist = _wrapped_offsets(S, dim)
    if band == "auto":
        band = _minimal_band(dist, dim)
    elif band is not None:
        if band < 0 or 2 * band + 1 > dim:
            raise ValueError(f"band {band} out of range for dimension {dim}")
        outside = offs[dist > band]
        if outside.size:
            raise ValueError(f"matrix has a nonzero wrapped diagonal "
                             f"{int(outside.min())} outside band {band}")
    indices = sorted(set(offs.tolist()))
    diagonals = {i: ctx.encrypt(wrapping_diagonal(S, i, dim)) for i in indices}
    return DiagMatrixCipher(dim=dim, diagonals=diagonals, band=band)


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
    return hom_dot((diag, v, i) for i, diag in S.diagonals.items())


def enc_matmat(S: DiagMatrixCipher, T: DiagMatrixCipher) -> DiagMatrixCipher:
    """Encrypted matrix-matrix product in diagonal form; one level deep."""
    if S.dim != T.dim:
        raise ValueError(f"dimension mismatch: {S.dim} vs {T.dim}")
    d = S.dim
    terms: dict[int, list] = {}
    for i, Si in S.diagonals.items():
        for j, Tj in T.diagonals.items():
            terms.setdefault((i + j) % d, []).append((Si, Tj, i))
    out = {k: hom_dot(t) for k, t in terms.items()}
    band = None
    if S.band is not None and T.band is not None and 2 * (S.band + T.band) + 1 <= d:
        band = S.band + T.band
    return DiagMatrixCipher(dim=d, diagonals=out, band=band)


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


def enc_transpose(S: DiagMatrixCipher) -> DiagMatrixCipher:
    """Transpose in diagonal form: (S^T)_i = rot_i(S_{-i}); rotations only."""
    d = S.dim
    out = {}
    for i, c in S.diagonals.items():
        k = (d - i) % d
        out[k] = rotate(c, k)
    return DiagMatrixCipher(dim=d, diagonals=out, band=S.band)


def enc_pinv_newton_schulz(ctx: KeyContext, S: DiagMatrixCipher, scale: float,
                           iterations: int = 12) -> DiagMatrixCipher:
    """Approximate Moore-Penrose inverse of an encrypted matrix.

    Newton-Schulz iteration X <- X (2I - S X) starting from X0 = scale * S^T.
    ``scale`` must be a public constant in (0, 2 / sigma_max(S)^2); the caller
    supplies it since the backend cannot compute spectral norms under
    encryption. Each iteration costs two encrypted matrix products.
    """
    d = S.dim
    two_eye = 2.0 * np.eye(d)
    St = enc_transpose(S)
    X = DiagMatrixCipher(
        dim=d,
        diagonals={i: hom_mul(c, np.full(d, scale)) for i, c in St.diagonals.items()},
        band=St.band,
    )
    for _ in range(iterations):
        SX = enc_matmat(S, X)
        # R = 2I - S X, computed diagonal-wise against the plaintext identity
        R_diags = {}
        j = np.arange(d)
        for i, c in SX.diagonals.items():
            eye_diag = two_eye[j, (i + j) % d]
            R_diags[i] = hom_add(hom_neg(c), eye_diag)
        R = DiagMatrixCipher(dim=d, diagonals=R_diags, band=SX.band)
        X = enc_matmat(X, R)
    return X
