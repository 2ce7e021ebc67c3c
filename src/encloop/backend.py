"""Simulated packed (SIMD) homomorphic-encryption backend.

This is a functional simulator, not a cryptosystem: ciphertexts carry their
slot values in the clear and "encryption" only gates access behind an API.
What it does model faithfully is the *interface* of a leveled arithmetic HE
scheme with ciphertext packing: slotwise add/sub/mul (ciphertext-ciphertext
and ciphertext-plaintext), negation, circular slot rotation, a multiplicative
depth budget, and an optional per-operation Gaussian noise term mimicking
approximate arithmetic.

``hom_dot`` is the fused linear transform sum_t a_t * rot_{s_t}(b_t) that real
HE libraries evaluate in one pass (Halevi & Shoup, CRYPTO 2018). It returns
the slots, level, noise bound and op counts of the composed rotate, multiply
and add chain, but fills one buffer and draws its noise once: per slot,
sigma * sqrt(sum_t a_t^2 + 2T - 1) * N(0, 1) for T terms, which given the
a_t slots is the exact law of the composed ops' 3T - 1 noise terms. That
per-slot scale depends on the a_t alone, so a caller whose a_t are fixed (the
diagonals of an encrypted matrix) computes it once with ``dot_noise_scale``
and passes it in.

Per-step work that does not change is done once: every ``KeyContext`` owns
one slot-width scratch buffer (allocated on first use) that its noise draws
and ``hom_dot``'s partial products go through, and a ciphertext computes its
max|slot| for the first-order noise bound once. The scratch buffer never ends
up inside a ciphertext, and ciphertext slots are never mutated once built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "BackendConfig",
    "KeyContext",
    "PackedCiphertext",
    "DepthExhausted",
    "KeyMismatch",
    "context_create",
    "hom_add",
    "hom_sub",
    "hom_neg",
    "hom_mul",
    "hom_dot",
    "dot_noise_scale",
    "rotate",
    "pad_slots",
    "serialize_ciphertext",
    "check_ciphertext_blob",
    "deserialize_ciphertext",
]


class DepthExhausted(RuntimeError):
    """Raised when a multiplication would exceed the level budget."""


class KeyMismatch(ValueError):
    """Raised when ciphertexts from different key contexts are mixed."""


@dataclass(frozen=True)
class BackendConfig:
    slot_count: int
    noise_std: float = 0.0
    max_depth: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.slot_count < 1 or (self.slot_count & (self.slot_count - 1)) != 0:
            raise ValueError(f"slot_count must be a power of two, got {self.slot_count}")
        if self.noise_std < 0:
            raise ValueError("noise_std must be nonnegative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")


@dataclass
class PackedCiphertext:
    """One SIMD ciphertext. Slot values are private to the backend."""

    _slots: np.ndarray
    level: int
    noise_bound: float
    key_id: int
    _ctx: "KeyContext" = field(repr=False)
    _max_abs: float | None = field(default=None, repr=False, compare=False)

    def _magnitude(self) -> float:
        """max|slot|, computed on first use (the slots are never mutated)."""
        if self._max_abs is None:
            self._max_abs = _max_abs(self._slots)
        return self._max_abs


def _max_abs(s: np.ndarray) -> float:
    """max|s| (0 for no slots) without a slot-width temporary."""
    return float(max(s.max(initial=0.0), -s.min(initial=0.0)))


class KeyContext:
    """Holds the backend config, a deterministic PRNG stream, and op counters.

    ``public_context()`` returns a view that can encrypt and operate on
    ciphertexts but not decrypt them, modeling a party holding only the
    public key.
    """

    def __init__(self, config: BackendConfig, key_id: int, has_secret_key: bool = True,
                 rng: np.random.Generator | None = None):
        self.config = config
        self.key_id = key_id
        self.has_secret_key = has_secret_key
        self.rng = rng if rng is not None else np.random.default_rng(config.seed)
        self.op_counts = {"add": 0, "mul": 0, "rot": 0, "enc": 0, "dec": 0}
        self._buf: np.ndarray | None = None

    def public_context(self) -> "KeyContext":
        pub = KeyContext(self.config, self.key_id, has_secret_key=False,
                         rng=np.random.default_rng([self.config.seed, 0x5EC0]))
        return pub

    # -- core API ---------------------------------------------------------

    def encrypt(self, slots) -> PackedCiphertext:
        m = np.asarray(slots, dtype=float)
        if m.shape != (self.config.slot_count,):
            raise ValueError(
                f"plaintext length {m.shape} does not match slot_count {self.config.slot_count}")
        self.op_counts["enc"] += 1
        return PackedCiphertext(
            _slots=self._noisy(m.copy()),
            level=0,
            noise_bound=self.config.noise_std,
            key_id=self.key_id,
            _ctx=self,
        )

    def decrypt(self, c: PackedCiphertext) -> np.ndarray:
        if not self.has_secret_key:
            raise KeyMismatch("this context holds no secret key")
        if c.key_id != self.key_id:
            raise KeyMismatch("ciphertext was created under a different key")
        self.op_counts["dec"] += 1
        return c._slots.copy()

    def _scratch(self) -> np.ndarray:
        """The context's slot-width work buffer, allocated on first use. Its
        contents are dead between calls; it is never returned in a ciphertext."""
        if self._buf is None:
            self._buf = np.empty(self.config.slot_count)
        return self._buf

    def _noisy(self, slots: np.ndarray) -> np.ndarray:
        # slots is always a fresh result buffer, so the draw is added in place;
        # sigma * z is what normal(0, sigma) computes from the same z stream
        if self.config.noise_std > 0:
            z = self.rng.standard_normal(out=self._scratch())
            z *= self.config.noise_std
            slots += z
        return slots


def context_create(config: BackendConfig) -> KeyContext:
    """Create a key context. The key tag is derived from the seed so that two
    processes configured identically interoperate (needed by the networked
    deployment)."""
    key_id = (config.seed * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) & 0xFFFFFFFFFFFFFFFF
    return KeyContext(config, key_id)


# -- homomorphic operations -------------------------------------------------

def _as_operands(a: PackedCiphertext, b):
    """Return (ctx, a_slots, b_slots, b_level, b_bound) handling plaintext b."""
    ctx = a._ctx
    if isinstance(b, PackedCiphertext):
        if b.key_id != a.key_id:
            raise KeyMismatch("operands were created under different keys")
        return ctx, a._slots, b._slots, b.level, b.noise_bound
    m = np.asarray(b, dtype=float)
    if m.shape != a._slots.shape:
        raise ValueError(f"plaintext operand shape {m.shape} does not match slots")
    return ctx, a._slots, m, 0, 0.0


def _result(ctx, slots, level, noise_bound) -> PackedCiphertext:
    if level > ctx.config.max_depth:
        raise DepthExhausted(
            f"operation requires level {level} but max_depth is {ctx.config.max_depth}")
    return PackedCiphertext(
        _slots=ctx._noisy(slots),
        level=level,
        noise_bound=noise_bound + ctx.config.noise_std,
        key_id=ctx.key_id,
        _ctx=ctx,
    )


def hom_add(a: PackedCiphertext, b) -> PackedCiphertext:
    """Slotwise addition; second operand may be a plaintext vector."""
    ctx, sa, sb, lev_b, nb_b = _as_operands(a, b)
    ctx.op_counts["add"] += 1
    return _result(ctx, sa + sb, max(a.level, lev_b), a.noise_bound + nb_b)


def hom_sub(a: PackedCiphertext, b) -> PackedCiphertext:
    ctx, sa, sb, lev_b, nb_b = _as_operands(a, b)
    ctx.op_counts["add"] += 1
    return _result(ctx, sa - sb, max(a.level, lev_b), a.noise_bound + nb_b)


def hom_neg(a: PackedCiphertext) -> PackedCiphertext:
    ctx = a._ctx
    ctx.op_counts["add"] += 1
    return _result(ctx, -a._slots, a.level, a.noise_bound)


def hom_mul(a: PackedCiphertext, b) -> PackedCiphertext:
    """Slotwise product. Consumes one multiplicative level; raises
    DepthExhausted when the budget would be exceeded (no bootstrapping)."""
    ctx, sa, sb, lev_b, nb_b = _as_operands(a, b)
    ctx.op_counts["mul"] += 1
    # First-order noise propagation: each operand's noise scaled by the
    # other's magnitude, plus the fresh operation noise. A zero coefficient
    # skips its magnitude scan (the same sum for finite slots).
    bound = 0.0
    if a.noise_bound:
        bound = a.noise_bound * (b._magnitude() if isinstance(b, PackedCiphertext)
                                 else _max_abs(sb))
    if nb_b:
        bound += nb_b * a._magnitude()
    return _result(ctx, sa * sb, max(a.level, lev_b) + 1, bound)


def rotate(a: PackedCiphertext, i: int) -> PackedCiphertext:
    """Circular left rotation: result slot j holds input slot (j+i) mod d."""
    ctx = a._ctx
    i = i % ctx.config.slot_count
    ctx.op_counts["rot"] += 1
    s = a._slots
    return _result(ctx, np.concatenate((s[i:], s[:i])), a.level, a.noise_bound)


def hom_dot(terms, noise_scale: np.ndarray | None = None) -> PackedCiphertext:
    """Fused sum_t a_t * rot_{s_t}(b_t) over ciphertext ``terms`` (a, b, s).

    Equal to ``rotate(b, s)``, then ``hom_mul(a, .)``, then a left-to-right
    ``hom_add`` chain: the same noiseless slots (products and sums taken in
    the same order), level, noise bound and op counts (each rotation on b's
    context, each product on a's, the sums on the first a's), and the same
    DepthExhausted and KeyMismatch. Operands under one key share
    the first a's backend config. It fills one result buffer and draws the
    noise once: sigma * sqrt(sum_t a_t^2 + 2T - 1) * N(0, 1) per slot, the
    law of the composed noise sum_t a_t * e_rot + sum e_mul + sum e_add given
    the a_t slots.

    ``noise_scale``, if given, is ``dot_noise_scale`` of the same a_t in the
    same order, precomputed by a caller whose a_t do not change; otherwise it
    is computed here. The partial products and the draw go through the first
    a's context's scratch buffer.
    """
    terms = list(terms)
    if not terms:
        raise ValueError("hom_dot needs at least one term")
    ctx = terms[0][0]._ctx
    cfg = ctx.config
    sigma, n = cfg.noise_std, cfg.slot_count
    out = np.empty(n)
    tmp = ctx._scratch() if len(terms) > 1 else None
    for t, (a, b, s) in enumerate(terms):
        if a.key_id != ctx.key_id or b.key_id != ctx.key_id:
            raise KeyMismatch("operands were created under different keys")
        level = max(a.level, b.level) + 1
        if level > cfg.max_depth:
            raise DepthExhausted(
                f"operation requires level {level} but max_depth is {cfg.max_depth}")
        # hom_mul's first-order rule on rot_s(b), whose max|slot| is max|b|
        rot_bound = b.noise_bound + sigma
        bound = a.noise_bound * b._magnitude() if a.noise_bound else 0.0
        if rot_bound:
            bound += rot_bound * a._magnitude()
        bound += sigma
        if t == 0:
            acc_level, acc_bound = level, bound
        else:
            acc_level = max(acc_level, level)
            acc_bound = acc_bound + bound + sigma
        # a * rot_s(b) without materializing the rotation
        i = s % n
        dst = out if t == 0 else tmp
        np.multiply(a._slots[:n - i], b._slots[i:], out=dst[:n - i])
        if i:
            np.multiply(a._slots[n - i:], b._slots[:i], out=dst[n - i:])
        if t:
            out += tmp
    for a, b, _ in terms:
        b._ctx.op_counts["rot"] += 1
        a._ctx.op_counts["mul"] += 1
    ctx.op_counts["add"] += len(terms) - 1
    if sigma > 0:
        if noise_scale is None:
            noise_scale = dot_noise_scale(a for a, _, _ in terms)
        z = ctx.rng.standard_normal(out=ctx._scratch())
        z *= noise_scale
        out += z
    return PackedCiphertext(_slots=out, level=acc_level, noise_bound=acc_bound,
                            key_id=ctx.key_id, _ctx=ctx)


def dot_noise_scale(coeffs) -> np.ndarray:
    """Per-slot standard deviation of ``hom_dot``'s one noise draw for the
    coefficient ciphertexts a_t, in term order: sigma * sqrt(sum_t a_t^2 +
    2T - 1), with sigma of the first a_t's context."""
    coeffs = list(coeffs)
    ctx = coeffs[0]._ctx
    scale = np.full(ctx.config.slot_count, 2.0 * len(coeffs) - 1)
    sq = ctx._scratch()
    for a in coeffs:
        scale += np.square(a._slots, out=sq)
    np.sqrt(scale, out=scale)
    scale *= ctx.config.noise_std
    return scale


# -- helpers ----------------------------------------------------------------

def pad_slots(values, slot_count: int) -> np.ndarray:
    """Zero-pad a vector to the full slot width."""
    v = np.asarray(values, dtype=float).ravel()
    if len(v) > slot_count:
        raise ValueError(f"vector of length {len(v)} exceeds slot_count {slot_count}")
    out = np.zeros(slot_count)
    out[: len(v)] = v
    return out


# -- wire format --------------------------------------------------------------
# little-endian: u32 slot_count, u32 level, u64 key_id,
# slot_count f64 slot values, f64 noise_bound.

def serialize_ciphertext(c: PackedCiphertext) -> bytearray:
    """The wire blob, written into one buffer."""
    n = len(c._slots)
    blob = bytearray(24 + 8 * n)
    struct.pack_into("<IIQ", blob, 0, n, c.level, c.key_id)
    np.frombuffer(blob, "<f8", count=n, offset=16)[:] = c._slots
    struct.pack_into("<d", blob, 16 + 8 * n, c.noise_bound)
    return blob


def check_ciphertext_blob(ctx: KeyContext, data: bytes) -> tuple[int, int]:
    """Check a wire blob against ``ctx`` from its header alone: its length,
    slot count and key tag. Returns the slot count and the level; raises
    ``ValueError`` (``KeyMismatch`` for a foreign key tag) otherwise."""
    if len(data) < 16:
        raise ValueError("ciphertext blob too short")
    n, level, key_id = struct.unpack_from("<IIQ", data, 0)
    expected = 16 + 8 * n + 8
    if len(data) != expected:
        raise ValueError(f"ciphertext blob has {len(data)} bytes, expected {expected}")
    if n != ctx.config.slot_count:
        raise ValueError(f"slot_count {n} does not match context {ctx.config.slot_count}")
    if key_id != ctx.key_id:
        raise KeyMismatch("serialized ciphertext carries a foreign key tag")
    return n, level


def deserialize_ciphertext(ctx: KeyContext, data: bytes) -> PackedCiphertext:
    n, level = check_ciphertext_blob(ctx, data)
    # astype copies: the slots own native float64 memory, never the blob's
    slots = np.frombuffer(data, "<f8", count=n, offset=16).astype(np.float64)
    (noise_bound,) = struct.unpack_from("<d", data, 16 + 8 * n)
    return PackedCiphertext(_slots=slots, level=level, noise_bound=noise_bound,
                            key_id=ctx.key_id, _ctx=ctx)
