"""Verifiable outsourced evaluation with zero communication overhead.

The client packs lambda/2 replicas of its payload block together with
lambda/2 precomputed challenge blocks into the unused SIMD slots of a single
ciphertext, block-shuffled under a fresh secret permutation each step. The
server evaluates the lifted function on all blocks at once; the client checks
the challenge blocks against stored reference outputs and rejects the whole
response if any deviates by more than a threshold, or if the payload replicas
disagree. The client fixes that threshold at set-up (``setup``); nothing on
the wire or in a config sets it.

An attacker that wants to modify the payload consistently must hit exactly
the replica blocks; guessing them succeeds with probability 1/C(lambda,
lambda/2) per step, which decays geometrically over multi-step attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backend import MAX_SLOTS, BackendConfig, context_create, hom_add, pad_slots
from .linalg import enc_matvec, encrypt_matrix, next_pow2, wrapped_diagonals

__all__ = [
    "VerifierContext",
    "PermutationTag",
    "DecodeOutcome",
    "check_params",
    "setup",
    "lift_affine",
    "lifted_dim",
    "lifted_input",
    "measurement_offset",
    "ecd",
    "dcd",
    "p_succ_instant",
    "p_succ_cumulative",
    "block_mask",
    "guess_blocks",
    "run_detection_experiment",
]


@dataclass
class VerifierContext:
    expansion: int                  # even number of blocks per ciphertext
    block_dim: int                  # payload dimension d
    noise_std: float                # the backend's per-operation noise sigma
    h: np.ndarray                   # (d, d): the map the server applies to each block
    challenges: np.ndarray          # (M, d): one challenge input per row
    challenge_outputs: np.ndarray   # (M, d): h of each row of ``challenges``
    rng: np.random.Generator = field(repr=False, default=None)
    # (M + 1, d): ``challenges`` and a last row for the payload, which every
    # encode overwrites with its own payload block
    table: np.ndarray = field(init=False, repr=False, compare=False)
    eps: float = field(init=False, compare=False)  # the threshold of every response
    # ``_decode``'s checks over the lambda*d errors of one unshuffled
    # response, the replicas' then each challenge block's: where each check
    # starts, and its bound (2 eps for the replica spread, eps for a
    # challenge), as a column
    checks: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    # ``challenge_outputs`` as a list of rows, for the scalar decode
    references: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.table = np.concatenate((self.challenges, self.challenges[:1]))
        self.references = self.challenge_outputs.tolist()
        half, d = self.expansion // 2, self.block_dim
        self.eps = EPS_FLOOR
        if self.noise_std:
            # 8 times the first-order noise bound of the honest response to any
            # input w~ within CHALLENGE_RANGE: term t of the matvec multiplies
            # the stored diagonal K_t (noise sigma) by the rotated w~ (2 sigma)
            # and adds sigma, and T - 1 sums add sigma each. The >= 2d slots of
            # ``encrypt_matrix``'s kron(I, h) hold h's 2d - 1 K_t apart.
            indices, diags = wrapped_diagonals(self.h, 2 * d)
            T = len(indices)
            bound = self.noise_std * (T * CHALLENGE_RANGE
                                      + 2.0 * float(np.abs(diags).max(axis=1).sum()) + 2 * T - 1)
            self.eps = max(EPS_FLOOR, 8.0 * bound)
        self.checks = (np.array([0, *range(half * d, self.expansion * d, d)]),
                       np.array([[2.0 * self.eps]] + [[self.eps]] * half))

    @property
    def encoded_dim(self) -> int:
        return self.expansion * self.block_dim


@dataclass
class PermutationTag:
    """Client-side record of one encode step; never transmitted."""

    perm: np.ndarray               # encoded block j carries pre-shuffle block perm[j]
    challenge_indices: np.ndarray  # challenge of pre-shuffle block half + i, per i


@dataclass
class DecodeOutcome:
    eps: float                 # the acceptance threshold applied, ``VerifierContext.eps``
    deviation: np.ndarray      # max |z - h(c)| of each challenge block, in check order
    spread: float              # max |replica - first replica| over the payload replicas
    payload: np.ndarray | None = None
    bottom: bool = False
    failed_challenges: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bottom


# the plaintext range of every encoded entry: challenges are drawn uniformly
# from [-10, 10), and an encrypted loop's u0 and y must lie in [-10, 10]
CHALLENGE_RANGE = 10.0
FULL_MODE_SLOTS = MAX_SLOTS  # most slots full mode packs into a ciphertext: bounds its memory
# The floor of eps. At noise_std 0 the server's diagonal-method sums and the
# verifier's ``challenges @ h.T`` differ only by rounding: at most 2.8e-14 over
# 200 honest noiseless verified tank steps at 64, 1024 and 2^16 slots.
EPS_FLOOR = 1e-9


def check_params(expansion: int, num_challenges: int = 1):
    """Raise ``ValueError`` unless the expansion is even and >= 2 and there
    is a challenge value."""
    if expansion < 2 or expansion % 2 != 0:
        raise ValueError(f"expansion factor must be even and >= 2, got {expansion}")
    if num_challenges < 1:
        raise ValueError("need at least one challenge value")


def setup(slot_count: int, h, expansion: int, num_challenges: int, noise_std: float = 0.0,
          seed: int | np.random.Generator = 0) -> VerifierContext:
    """Instantiate the verifier for a server that evaluates the d x d matrix
    ``h`` on every block, as ``encrypt_matrix(ctx, h, copies)`` on a backend
    of ``slot_count`` slots and noise ``noise_std``: draw challenge inputs,
    precompute their reference outputs h c, and fix the expansion factor and
    ``eps``. It draws from ``default_rng(seed)``: a generator ``seed`` itself."""
    check_params(expansion, num_challenges)
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"h must be a square matrix mapping one block to one block, "
                         f"got shape {h.shape}")
    block_dim = len(h)
    if expansion * block_dim > slot_count:
        raise ValueError(
            f"expansion {expansion} x block_dim {block_dim} exceeds slot_count {slot_count}")
    rng = np.random.default_rng(seed)
    challenges = rng.uniform(-CHALLENGE_RANGE, CHALLENGE_RANGE, (num_challenges, block_dim))
    return VerifierContext(expansion=expansion, block_dim=block_dim, noise_std=noise_std, h=h,
                           challenges=challenges, challenge_outputs=challenges @ h.T, rng=rng)


def lift_affine(K):
    """Turn the affine map w -> K w + offset into the linear form evaluated
    on one block of an encoded input.

    Returns K_aug, the d x d padded matrix that maps the block
    [offset_0 .. offset_{m-2}, w, offset_{m-1}] of ``lifted_input`` to
    [K w + offset; 0]. K's columns start at slot ``measurement_offset(m)``
    = m - 1, so K fills the wrapped diagonals 0 .. p + m - 2, and every
    identity entry lands on one of them (diagonal 0, and p for
    offset_{m-1}): a dense K stores p + m - 1 diagonals for m >= 2, the
    fewest its m rows and p columns allow (|A - B| >= |A| + |B| - 1), and
    p + 1 for m = 1. The server applies its block-diagonal replication
    kron(I_lambda, K_aug) to every block at once;
    ``encrypt_matrix(ctx, K_aug, copies=lambda)`` encodes that replication
    from K_aug's nonzero entries, storing only the wrapped diagonals that
    hold one (for the tank controller, d = 4: diagonals {0, 1, 2}).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    m, p = K.shape
    start = measurement_offset(m)
    d = lifted_dim(p, m)
    K_aug = np.zeros((d, d))
    K_aug[:m, start:start + p] = K
    K_aug[:start, :start] = np.eye(start)
    K_aug[start, start + p] = 1.0
    return K_aug


def lifted_dim(p: int, m: int) -> int:
    """Block dimension of the lifted map from p inputs to m outputs."""
    return next_pow2(p + m)


def measurement_offset(m: int) -> int:
    """The slot of a lifted block where the controller input w starts, for
    a controller of m >= 1 outputs: after all offset entries but the last
    (``lift_affine``). The outputs stay in slots [0, m)."""
    return m - 1


def lifted_input(w, offset, block_dim: int) -> np.ndarray:
    """The block [offset_0 .. offset_{m-2}, w, offset_{m-1}] that
    ``lift_affine`` maps to K w + offset, zero-padded to ``block_dim``."""
    w = np.asarray(w, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    start = measurement_offset(len(offset))
    block = np.zeros(block_dim)
    block[:start] = offset[:start]
    block[start:start + len(w)] = w
    block[start + len(w)] = offset[start]
    return block


def ecd(ctx: VerifierContext, w) -> tuple[np.ndarray, PermutationTag]:
    """Encode one payload block: replicate, append fresh challenges, shuffle.

    The challenge indices (with replacement), then the permutation (uniform
    shuffle), are drawn fresh from the context RNG, as ``_encode(ctx, w, 1)``
    draws them, and the step runs on Python scalars at every width.
    """
    w = np.asarray(w, dtype=float).ravel()
    if len(w) != ctx.block_dim:
        raise ValueError(f"payload has length {len(w)}, expected {ctx.block_dim}")
    encoded, perm, indices = _encode_one(ctx, w)
    return encoded, PermutationTag(perm=perm, challenge_indices=indices)


def dcd(ctx: VerifierContext, tag: PermutationTag, z_tilde) -> DecodeOutcome:
    """Decode a server response: un-shuffle, check every challenge block
    against its stored reference output and the payload replicas against each
    other, and on success return one replica chosen uniformly at random. A
    challenge passes within ``ctx.eps`` in the infinity norm, and each replica
    within twice it of the first, as honest replicas lie within it of h(w).
    The outcome records eps, each challenge block's deviation and the
    replicas' spread, accepted or not. The checks run on Python scalars
    (``_decode_one``), with ``_decode``'s outcome and draws."""
    z_tilde = np.asarray(z_tilde, dtype=float).ravel()
    lam, d = ctx.expansion, ctx.block_dim
    if len(z_tilde) != lam * d:
        raise ValueError(f"response has length {len(z_tilde)}, expected {lam * d}")
    deviation, spread, payload = _decode_one(ctx, tag, z_tilde.tolist())
    if payload is not None:
        return DecodeOutcome(ctx.eps, deviation, spread, payload=payload)
    return DecodeOutcome(ctx.eps, deviation, spread, bottom=True,
                         failed_challenges=np.flatnonzero(~(deviation <= ctx.eps)).tolist())


# -- one step on Python scalars ---------------------------------------------------
# A loop step encodes and decodes a few dozen numbers, for which a numpy
# call's fixed cost outweighs its arithmetic. ecd and dcd run the batch core's
# one-row case on Python scalars, with the same draws in the same order and
# the same outcome, bit for bit; every batch goes through _encode and _decode.


def _encode_one(ctx: VerifierContext, w: np.ndarray):
    """``_encode(ctx, w, 1)``'s row: the same draws in the same order, the
    encoded vector (lambda*d,), the permutation (lambda,) and the challenge
    indices (lambda/2,)."""
    lam, m = ctx.expansion, len(ctx.challenges)
    half, rng = lam // 2, ctx.rng
    if half <= 2:
        indices = np.array([int(rng.integers(0, m)) for _ in range(half)])
    else:
        indices = rng.integers(0, m, size=half)
    # a list shuffled in place draws the stream of rng.permutation(lam), cheaper
    perm = list(range(lam))
    rng.shuffle(perm)
    source = [m] * half + indices.tolist()
    table = ctx.table
    table[m] = w
    return table.take([source[p] for p in perm], axis=0).ravel(), np.array(perm), indices


def _decode_one(ctx: VerifierContext, tag: PermutationTag, z: list):
    """``_decode``'s checks of one response ``z`` (a list), with its maxima
    NaN-sticky as ``np.maximum`` is: the deviation of each challenge block
    (an array), the replica spread, and on acceptance one replica drawn
    uniformly at random, else ``None``."""
    lam, d = ctx.expansion, ctx.block_dim
    half = lam // 2
    perm = tag.perm.tolist()  # response block j carries pre-shuffle block perm[j]
    s = perm.index(0) * d
    first = z[s:s + d]
    references = ctx.references
    # what each pre-shuffle block is checked against: the first replica (itself
    # too, as inf - inf is NaN), or its challenge's reference output
    expected = [first] * half + [references[i] for i in tag.challenge_indices.tolist()]
    maxima = [0.0] * lam
    s = 0
    for p in perm:
        m = 0.0
        for a, b in zip(z[s:s + d], expected[p]):
            e = abs(a - b)
            if e > m or e != e:
                m = e
        maxima[p] = m
        s += d
    spread = 0.0
    for e in maxima[:half]:
        if e > spread or e != e:
            spread = e
    deviation = maxima[half:]
    eps = ctx.eps
    if not (spread <= 2.0 * eps and all(e <= eps for e in deviation)):
        return np.array(deviation), spread, None
    s = perm.index(int(ctx.rng.integers(0, half))) * d
    return np.array(deviation), spread, np.array(z[s:s + d])


# -- the batch core: encoding and decoding for B steps at once -------------------
# Full-mode Monte Carlo packs B trials into one ciphertext through it. A batch
# draws each kind of value for all rows at once, in the one-step order
# (challenge indices, permutations, then replica picks), so one row draws the
# one-step stream exactly: integers(0, M, size=k) is the stream of k scalar
# integers(0, M). Where an array call's fixed cost would dominate (a draw or
# two, one row), the scalar calls are made instead.

def _permutations(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """A (rows, n) array whose row r is a uniform permutation of r*n ..
    r*n + n - 1: indices into a flattened (rows, n) array, so that a gather
    or scatter by them needs no row offsets. Row 0 is a permutation of
    range(n)."""
    if rows == 1:
        return rng.permutation(n)[None]
    out = np.arange(rows * n).reshape(rows, n)
    return rng.permuted(out, axis=1, out=out)


def _encode(ctx: VerifierContext, w: np.ndarray, rows: int):
    """Encode payload block ``w`` for ``rows`` steps: per row, lambda/2
    challenge indices, then a permutation. Returns the encoded rows
    (rows, lambda*d), the permutations (rows, lambda) in the flat form of
    ``_permutations`` and the challenge indices (rows, lambda/2)."""
    lam, d, m = ctx.expansion, ctx.block_dim, len(ctx.challenges)
    half = lam // 2
    # source[r, p] is the table row of pre-shuffle block p: challenge i is
    # row i, the payload row m
    if rows * half <= 2:
        source = np.array([[m] * half + [int(ctx.rng.integers(0, m)) for _ in range(half)]
                           for _ in range(rows)])
    else:
        source = np.empty((rows, lam), dtype=np.int64)
        source[:, :half] = m
        source[:, half:] = ctx.rng.integers(0, m, size=(rows, half))
    perm = _permutations(ctx.rng, rows, lam)
    table = ctx.table
    table[m] = w
    encoded = table[source.ravel()[perm]]
    return encoded.reshape(rows, lam * d), perm, source[:, half:]


def _decode(ctx: VerifierContext, perm: np.ndarray, indices: np.ndarray, z: np.ndarray):
    """Check ``rows`` responses ``z`` (rows, lambda*d) encoded with the flat
    permutations ``perm`` and challenge ``indices`` against ``ctx.eps``: a
    row passes when every challenge block is within eps of its reference
    and every payload replica within 2 eps of the first.
    Returns each challenge block's deviation (rows, lambda/2), each row's
    replica spread (rows,), the rows that passed, and one payload replica of
    each of them, drawn uniformly at random (accepted rows, d)."""
    lam, d = ctx.expansion, ctx.block_dim
    half, rows = lam // 2, perm.size // lam
    blocks = np.empty((rows * lam, d))
    blocks[perm.ravel()] = z.reshape(rows * lam, d)
    blocks = blocks.reshape(rows, lam, d)
    # |replica - first replica| and |challenge block - reference|, laid out
    # (lambda, d, rows) so that the reductions run over the rows at once: a
    # reduction along a short last axis costs many rows several times more
    err = np.empty((lam, d, rows))
    by_row = err.transpose(2, 0, 1)
    # a forged infinity makes inf - inf, a NaN that fails below, not a warning
    with np.errstate(invalid="ignore"):
        np.subtract(blocks[:, :half], blocks[:, :1], out=by_row[:, :half])
        np.subtract(blocks[:, half:], ctx.challenge_outputs[indices], out=by_row[:, half:])
    np.abs(err, out=err)
    # one reduction for every check: the spread, then each challenge's deviation
    starts, bound = ctx.checks
    maxima = np.maximum.reduceat(err.reshape(lam * d, rows), starts, axis=0)
    spread, deviation = maxima[0], maxima[1:].T
    # a NaN deviation or spread fails
    passed = np.logical_and.reduce(maxima <= bound, axis=0)
    accepted = passed.nonzero()[0]
    if not len(accepted):
        return deviation, spread, accepted, blocks[:0, 0]
    # one scalar draw is the stream of size=1, and cheaper
    picks = ctx.rng.integers(0, half, size=None if len(accepted) == 1 else len(accepted))
    return deviation, spread, accepted, blocks[accepted, picks]


# -- attack success statistics ------------------------------------------------

def p_succ_instant(expansion: int) -> float:
    """Probability of guessing the replica block set in a single step."""
    check_params(expansion)
    # int / int rounds exactly and underflows to 0 instead of overflowing
    return 1 / math.comb(expansion, expansion // 2)


def p_succ_cumulative(expansion: int, steps: int) -> float:
    """Probability of staying undetected over ``steps`` consecutive guesses
    (the permutation is resampled every step)."""
    if steps < 1:
        raise ValueError("attack length must be at least 1")
    return p_succ_instant(expansion) ** steps


# -- the guessing attacker -----------------------------------------------------

def block_mask(block_dim: int, slot_count: int, blocks, delta,
               start: int = 0) -> np.ndarray:
    """Plaintext mask carrying ``delta`` from slot ``start`` of each block
    indexed by the integer array ``blocks`` (any shape); ``block_dim``
    divides ``slot_count``."""
    delta = np.asarray(delta, dtype=float).ravel()
    if start + len(delta) > block_dim:
        raise ValueError(f"delta of length {len(delta)} from slot {start} exceeds "
                         f"block_dim {block_dim}")
    mask = np.zeros(slot_count)
    mask.reshape(-1, block_dim)[blocks, start:start + len(delta)] = delta
    return mask


def guess_blocks(rng: np.random.Generator, rows: int, expansion: int) -> np.ndarray:
    """(rows, lambda/2): row r guesses a uniform half of its own blocks, flat
    indices r*lambda .. r*lambda + lambda - 1 (``_permutations``)."""
    return _permutations(rng, rows, expansion)[:, :expansion // 2]


# -- detection experiments -----------------------------------------------------

def run_detection_experiment(expansion: int, attack_len: int, trials: int,
                             mode: str = "fast", seed: int = 0) -> dict:
    """Monte Carlo estimate of the detection-step distribution.

    Per trial the attacker guesses a block subset each step; the detection
    step k* is the first step whose guess misses the replica set. Returns
    ``{"counts": {k: int}, "undetected": int, "fractions": {...}, ...}`` with
    k in 1..attack_len; a full-mode result also carries ``"ops"``, the HE op
    counts of its key context.

    ``fast`` draws the guess/replica subsets directly (no ciphertexts,
    vectorized); ``full`` runs the complete encrypted encode-evaluate-decode
    pipeline per step. Full mode builds one deployment per experiment (key
    context, verifier, and the verifier's map h encrypted on every slot) and
    packs its trials into one ciphertext, lambda slots per trial (block
    dimension 1), as the verifier packs blocks: at most ``FULL_MODE_SLOTS``
    slots, so the trials run in chunks of ``FULL_MODE_SLOTS // lambda``.
    Every live trial of a chunk takes its step k in one encrypt, splice (that
    of ``GuessingAttacker``), matvec and decrypt; detected trials drop out.
    One RNG stream, ``default_rng(seed)``, draws every step's permutations,
    challenges and guesses; each step draws afresh, so trials stay
    independent. Full mode's key context has noise 0 and draws nothing, so
    that stream is the experiment's only one. Both modes follow the same
    detection law. Raises ``ValueError`` unless the expansion is even and at
    least 2, the attack length and the number of trials are at least 1 and
    the seed is non-negative.
    """
    p_succ_cumulative(expansion, attack_len)  # validates both
    if trials < 1:
        raise ValueError("need at least one trial")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    extra = {}
    if mode == "fast":
        counts = _detect_fast(expansion, attack_len, trials, seed)
    elif mode == "full":
        counts, extra["ops"] = _detect_full(expansion, attack_len, trials, seed)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    undetected = trials - sum(counts.values())
    fractions = {k: c / trials for k, c in counts.items()}
    return {
        "expansion": expansion,
        "attack_len": attack_len,
        "trials": trials,
        "counts": counts,
        "undetected": undetected,
        "fractions": fractions,
        "undetected_fraction": undetected / trials,
        **extra,
    }


def _detect_fast(lam: int, L: int, trials: int, seed: int) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    half = lam // 2
    counts = {k: 0 for k in range(1, L + 1)}
    alive = trials
    for k in range(1, L + 1):
        if alive == 0:
            break
        # The half smallest of lam uniform draws is a uniform half-subset; by
        # permutation symmetry, hitting the fixed reference subset {0..half-1}
        # is the same experiment as guessing a hidden shuffle.
        r = rng.random((alive, lam))
        hit = r[:, :half].max(axis=1) < r[:, half:].min(axis=1)
        detected = int(np.count_nonzero(~hit))
        counts[k] = detected
        alive -= detected
    return counts


def _detect_full(lam: int, L: int, trials: int, seed: int):
    """The per-step counts and the key context's op counts of a full-mode
    experiment. Trial r of a chunk owns slots [r*lam, r*lam + lam)."""
    chunk = max(1, FULL_MODE_SLOTS // lam)
    slot_count = next_pow2(min(trials, chunk) * lam)
    counts = {k: 0 for k in range(1, L + 1)}
    # one deployment serves every trial; the verifier's stream draws each
    # step's permutations, challenges and guesses, so trials stay independent
    ctx = context_create(BackendConfig(slot_count=slot_count, max_depth=L + 2, seed=seed))
    vctx = setup(slot_count, 2.0 * np.eye(1), lam, num_challenges=4, seed=seed)
    enc_h = encrypt_matrix(ctx, vctx.h, copies=slot_count)
    w, delta = np.array([1.0]), 3.0
    for first in range(0, trials, chunk):
        alive = min(chunk, trials - first)
        for k in range(1, L + 1):
            encoded, perm, indices = _encode(vctx, w, alive)
            c = ctx.encrypt(pad_slots(encoded, slot_count))
            # one-slot blocks: each trial's guess is a half of its own lam slots
            mask = block_mask(1, slot_count, guess_blocks(vctx.rng, alive, lam), delta)
            z = ctx.decrypt(enc_matvec(enc_h, hom_add(c, mask)))
            z = z[:alive * lam].reshape(alive, lam)
            accepted = len(_decode(vctx, perm, indices, z)[2])
            counts[k] += alive - accepted
            alive = accepted
            if not alive:
                break
    return counts, dict(ctx.op_counts)
