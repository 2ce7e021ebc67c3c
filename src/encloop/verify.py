"""Verifiable outsourced evaluation with zero communication overhead.

The client packs lambda/2 replicas of its payload block together with
lambda/2 precomputed challenge blocks into the unused SIMD slots of a single
ciphertext, block-shuffled under a fresh secret permutation each step. The
server evaluates the lifted function on all blocks at once; the client checks
the challenge blocks against stored reference outputs and rejects the whole
response if any deviates by more than a threshold.

An attacker that wants to modify the payload consistently must hit exactly
the replica blocks; guessing them succeeds with probability 1/C(lambda,
lambda/2) per step, which decays geometrically over multi-step attacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backend import BackendConfig, context_create, hom_add, pad_slots
from .linalg import enc_matvec, encrypt_matrix, next_pow2

__all__ = [
    "VerifierContext",
    "PermutationTag",
    "DecodeOutcome",
    "setup",
    "lift_affine",
    "lifted_dim",
    "lifted_input",
    "ecd",
    "dcd",
    "p_succ_instant",
    "p_succ_cumulative",
    "block_mask",
    "run_detection_experiment",
]


@dataclass
class VerifierContext:
    expansion: int                  # even number of blocks per ciphertext
    block_dim: int                  # payload dimension d
    threshold: float                # infinity-norm acceptance threshold
    challenges: np.ndarray          # (M, d): one challenge input per row
    challenge_outputs: np.ndarray   # (M, d): h of each row of ``challenges``
    rng: np.random.Generator = field(repr=False, default=None)

    @property
    def encoded_dim(self) -> int:
        return self.expansion * self.block_dim


@dataclass
class PermutationTag:
    """Client-side record of one encode step; never transmitted."""

    perm: np.ndarray           # encoded block j carries pre-shuffle block perm[j]
    challenge_indices: list[int]

    def payload_positions(self) -> set[int]:
        half = len(self.perm) // 2
        return {j for j, b in enumerate(self.perm) if b < half}


@dataclass
class DecodeOutcome:
    eps: float                 # the acceptance threshold this decode applied
    deviation: np.ndarray      # max |z - h(c)| of each challenge block, in check order
    payload: np.ndarray | None = None
    bottom: bool = False
    failed_challenges: list[int] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.bottom


def setup(slot_count: int, block_dim: int, h, expansion: int, num_challenges: int,
          threshold: float = 1e-9, seed: int = 0, challenge_range: float = 10.0,
          ) -> VerifierContext:
    """Instantiate the verifier: draw challenge inputs, precompute their
    reference outputs, and fix the expansion factor."""
    if expansion < 2 or expansion % 2 != 0:
        raise ValueError(f"expansion factor must be even and >= 2, got {expansion}")
    if expansion * block_dim > slot_count:
        raise ValueError(
            f"expansion {expansion} x block_dim {block_dim} exceeds slot_count {slot_count}")
    if num_challenges < 1:
        raise ValueError("need at least one challenge value")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    rng = np.random.default_rng(seed)
    challenges = rng.uniform(-challenge_range, challenge_range, (num_challenges, block_dim))
    outputs = np.array([h(c) for c in challenges], dtype=float)
    if outputs.shape != challenges.shape:
        raise ValueError(f"h must map a challenge to a vector of length {block_dim}, "
                         f"got shape {outputs.shape[1:]}")
    return VerifierContext(expansion=expansion, block_dim=block_dim,
                           threshold=threshold, challenges=challenges,
                           challenge_outputs=outputs, rng=rng)


def lift_affine(K, offset):
    """Turn the affine map w -> K w + offset into the linear form evaluated
    on one block of an encoded input.

    Returns K_aug, the d x d padded matrix [K I] acting on stacked
    [w; offset] blocks. The server applies its block-diagonal replication
    kron(I_lambda, K_aug) to every block at once; ``encrypt_matrix`` stores
    only the wrapped diagonals of that replication which hold a nonzero
    entry (for the tank controller, d = 4: offsets {-1, 0, 1, 2}).
    """
    K = np.atleast_2d(np.asarray(K, dtype=float))
    offset = np.asarray(offset, dtype=float).ravel()
    m, p = K.shape
    d = lifted_dim(p, m)
    K_aug = np.zeros((d, d))
    K_aug[:m, :p] = K
    K_aug[:m, p:p + m] = np.eye(m)
    return K_aug


def lifted_dim(p: int, m: int) -> int:
    """Block dimension of the lifted map from p inputs to m outputs."""
    return next_pow2(p + m)


def lifted_input(w, offset, block_dim: int) -> np.ndarray:
    """Stack [w; offset] and zero-pad to one block."""
    w = np.asarray(w, dtype=float).ravel()
    offset = np.asarray(offset, dtype=float).ravel()
    block = np.zeros(block_dim)
    block[: len(w)] = w
    block[len(w): len(w) + len(offset)] = offset
    return block


def ecd(ctx: VerifierContext, w, perm=None, challenge_indices=None,
        ) -> tuple[np.ndarray, PermutationTag]:
    """Encode one payload block: replicate, append fresh challenges, shuffle.

    ``perm`` / ``challenge_indices`` may be forced for tests; by default both
    are drawn fresh from the context RNG (uniform shuffle, indices with
    replacement).
    """
    w = np.asarray(w, dtype=float).ravel()
    if len(w) != ctx.block_dim:
        raise ValueError(f"payload has length {len(w)}, expected {ctx.block_dim}")
    lam, d = ctx.expansion, ctx.block_dim
    half = lam // 2
    if challenge_indices is None:
        challenge_indices = [int(ctx.rng.integers(0, len(ctx.challenges)))
                             for _ in range(half)]
    if perm is None:
        perm = ctx.rng.permutation(lam)
    perm = np.asarray(perm)
    blocks = [w] * half + [ctx.challenges[i] for i in challenge_indices]
    encoded = np.concatenate([blocks[perm[j]] for j in range(lam)])
    return encoded, PermutationTag(perm=perm, challenge_indices=list(challenge_indices))


def dcd(ctx: VerifierContext, tag: PermutationTag, z_tilde,
        noise_bound: float = 0.0) -> DecodeOutcome:
    """Decode a server response: un-shuffle, check every challenge block
    against its stored reference output, and on success return one payload
    replica chosen uniformly at random. The acceptance rule lives here only:
    a challenge passes within ``max(ctx.threshold, 8 * noise_bound)`` in the
    infinity norm, ``noise_bound`` being the response ciphertext's. The
    outcome records that threshold (``eps``) and each challenge block's
    infinity-norm deviation (``deviation``), accepted or not."""
    z_tilde = np.asarray(z_tilde, dtype=float).ravel()
    lam, d = ctx.expansion, ctx.block_dim
    if len(z_tilde) != lam * d:
        raise ValueError(f"response has length {len(z_tilde)}, expected {lam * d}")
    eps = max(ctx.threshold, 8.0 * noise_bound)
    half = lam // 2
    blocks = np.zeros((lam, d))
    blocks[tag.perm] = z_tilde.reshape(lam, d)
    deviation = np.abs(blocks[half:] - ctx.challenge_outputs[tag.challenge_indices]).max(axis=1)
    failed = np.flatnonzero(deviation > eps).tolist()
    if failed:
        return DecodeOutcome(eps=eps, deviation=deviation, bottom=True,
                             failed_challenges=failed)
    pick = int(ctx.rng.integers(0, half))
    return DecodeOutcome(eps=eps, deviation=deviation, payload=blocks[pick])


# -- attack success statistics ------------------------------------------------

def p_succ_instant(expansion: int) -> float:
    """Probability of guessing the replica block set in a single step."""
    if expansion < 2 or expansion % 2 != 0:
        raise ValueError(f"expansion factor must be even and >= 2, got {expansion}")
    # int / int rounds exactly and underflows to 0 instead of overflowing
    return 1 / math.comb(expansion, expansion // 2)


def p_succ_cumulative(expansion: int, steps: int) -> float:
    """Probability of staying undetected over ``steps`` consecutive guesses
    (the permutation is resampled every step)."""
    if steps < 1:
        raise ValueError("attack length must be at least 1")
    return p_succ_instant(expansion) ** steps


# -- the guessing attacker -----------------------------------------------------

def block_mask(block_dim: int, slot_count: int, blocks, delta) -> np.ndarray:
    """Plaintext mask carrying ``delta`` in the given block positions."""
    delta = np.asarray(delta, dtype=float).ravel()
    mask = np.zeros(slot_count)
    for b in blocks:
        mask[b * block_dim: b * block_dim + len(delta)] = delta
    return mask


def guess_blocks(expansion: int, rng: np.random.Generator) -> frozenset[int]:
    """Uniformly random lambda/2-subset of block indices."""
    return frozenset(int(i) for i in rng.permutation(expansion)[: expansion // 2])


# -- detection experiments -----------------------------------------------------

def run_detection_experiment(expansion: int, attack_len: int, trials: int,
                             mode: str = "fast", seed: int = 0) -> dict:
    """Monte Carlo estimate of the detection-step distribution.

    Per trial the attacker guesses a block subset each step; the detection
    step k* is the first step whose guess misses the replica set. Returns
    ``{"counts": {k: int}, "undetected": int, "fractions": {...}, ...}`` with
    k in 1..attack_len.

    ``fast`` draws the guess/replica subsets directly (no ciphertexts,
    vectorized); ``full`` runs the complete encrypted encode-evaluate-decode
    pipeline per step. Full mode builds one deployment per experiment (key
    context, verifier and encrypted server matrix) and shares it across
    trials, with one RNG stream, the verifier's, drawing every step's
    permutation, challenges and guess; each step draws afresh, so trials stay
    independent. Both modes follow the same detection law. Raises
    ``ValueError`` unless the expansion is even and at least 2, and the
    attack length and the number of trials are at least 1.
    """
    p_succ_cumulative(expansion, attack_len)  # validates both
    if trials < 1:
        raise ValueError("need at least one trial")
    if mode == "fast":
        counts = _detect_fast(expansion, attack_len, trials, seed)
    elif mode == "full":
        counts = _detect_full(expansion, attack_len, trials, seed)
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
    }


def _detect_fast(lam: int, L: int, trials: int, seed: int) -> dict[int, int]:
    rng = np.random.default_rng(seed)
    half = lam // 2
    counts = {k: 0 for k in range(1, L + 1)}
    alive = trials
    for k in range(1, L + 1):
        if alive == 0:
            break
        # Draw uniform half-subsets for every surviving trial at once; by
        # permutation symmetry, comparing against the fixed reference subset
        # {0..half-1} is the same experiment as guessing a hidden shuffle.
        ranks = np.argsort(rng.random((alive, lam)), axis=1)[:, :half]
        hit = (np.sort(ranks, axis=1) == np.arange(half)).all(axis=1)
        detected = int(np.count_nonzero(~hit))
        counts[k] = detected
        alive -= detected
    return counts


def _detect_full(lam: int, L: int, trials: int, seed: int) -> dict[int, int]:
    slot_count = next_pow2(lam)  # block_dim 1: smallest pipeline that fits
    counts = {k: 0 for k in range(1, L + 1)}
    # one deployment serves every trial; the verifier's stream draws each
    # step's permutation, challenges and guess, so trials stay independent
    ctx = context_create(BackendConfig(slot_count=slot_count, max_depth=L + 2, seed=seed))
    vctx = setup(slot_count, 1, lambda x: 2.0 * x, lam, num_challenges=4, seed=seed)
    enc_h = encrypt_matrix(ctx, 2.0 * np.eye(slot_count))
    w, delta = np.array([1.0]), np.array([3.0])
    for _ in range(trials):
        for k in range(1, L + 1):
            encoded, tag = ecd(vctx, w)
            c = ctx.encrypt(pad_slots(encoded, slot_count))
            c = hom_add(c, block_mask(1, slot_count, guess_blocks(lam, vctx.rng), delta))
            z = enc_matvec(enc_h, c)
            if dcd(vctx, tag, ctx.decrypt(z)[:lam]).bottom:
                counts[k] += 1
                break
    return counts
