"""Covert man-in-the-middle attacks on the (encrypted) control loop.

Two variants are provided. The plaintext-model attacker knows (A, B, C) and
runs its compensation dynamics in the clear, needing only homomorphic
addition to splice the bias signals into the encrypted channel. The
encrypted-model attacker knows only encrypted copies of the model and runs
the same recursion entirely under encryption, which costs one multiplicative
level per step.

Both variants share the finite-length structure: an active phase with a
chosen input bias schedule, followed by a cooldown phase of n steps whose
inputs are computed from the controllability matrix so the internal
compensation state returns to zero and the attack can stop undetected.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backend import KeyContext, PackedCiphertext, hom_add, hom_neg, pad_slots, rotate
from .control import LtiModel
from .linalg import (
    DiagMatrixCipher,
    enc_matmat,
    enc_matrix_power,
    enc_matvec,
    enc_pinv_newton_schulz,
    encrypt_matrix,
)
from . import verify

__all__ = [
    "AttackPlan",
    "EncModel",
    "CovertAttacker",
    "GuessingAttacker",
    "controllability_matrix",
    "pseudo_inverse",
    "cooldown_inputs",
    "cooldown_inputs_encrypted",
    "delta_step",
    "delta_step_encrypted",
    "inject",
    "build_enc_model",
]


@dataclass
class AttackPlan:
    """Input-bias schedule for a finite-length covert attack.

    ``schedule`` maps time step -> bias vector for the active phase; steps
    not listed get zero. The final ``cooldown_len`` steps before ``length``
    are reserved for the computed cooldown inputs.
    """

    schedule: dict[int, np.ndarray]
    length: int
    cooldown_len: int
    variant: str = "plain_model"

    def __post_init__(self):
        self.schedule = {int(k): np.asarray(v, dtype=float).ravel()
                         for k, v in self.schedule.items()}
        if self.variant not in ("plain_model", "enc_model"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if not 1 <= self.cooldown_len <= self.length:
            raise ValueError("cooldown length must lie in [1, length]")
        for k in self.schedule:
            if not 0 <= k < self.length - self.cooldown_len:
                raise ValueError(
                    f"scheduled step {k} outside the active phase "
                    f"[0, {self.length - self.cooldown_len})")

    def active_input(self, k: int, m: int) -> np.ndarray:
        return self.schedule.get(k, np.zeros(m))


def controllability_matrix(model: LtiModel) -> np.ndarray:
    """[B  AB  ...  A^{n-1}B], block columns in that order."""
    blocks = []
    Ak = np.eye(model.n)
    for _ in range(model.n):
        blocks.append(Ak @ model.B)
        Ak = model.A @ Ak
    return np.hstack(blocks)


def pseudo_inverse(M) -> np.ndarray:
    """Moore-Penrose inverse via SVD."""
    return np.linalg.pinv(np.asarray(M, dtype=float))


def delta_step(model: LtiModel, dx, a_u) -> tuple[np.ndarray, np.ndarray]:
    """Advance the compensation dynamics one step; the output bias is taken
    from the pre-update state."""
    dx = np.asarray(dx, dtype=float).ravel()
    a_u = np.asarray(a_u, dtype=float).ravel()
    if dx.shape != (model.n,) or a_u.shape != (model.m,):
        raise ValueError("dimension mismatch in compensation recursion")
    a_y = model.C @ dx
    dx_next = model.A @ dx + model.B @ a_u
    return dx_next, a_y


def cooldown_inputs(model: LtiModel, dx, tol: float = 1e-8) -> list[np.ndarray]:
    """Inputs for the last n attack steps that drive the compensation state
    to zero. The stacking order and sign are fixed by the terminal condition
    dx(L) = 0 under the standard reachability expansion:

        dx(L) = A^n dx(L-n) + [A^{n-1}B ... B] [a(L-n); ...; a(L-1)]

    so the solved stack reads newest-first and carries a minus sign.
    """
    dx = np.asarray(dx, dtype=float).ravel()
    n, m = model.n, model.m
    Cc = controllability_matrix(model)
    An = np.linalg.matrix_power(model.A, n)
    stacked = -pseudo_inverse(Cc) @ (An @ dx)
    blocks = stacked.reshape(n, m)
    inputs = [blocks[n - 1 - i] for i in range(n)]
    # verify the terminal condition before handing the inputs out
    probe = dx.copy()
    for a in inputs:
        probe, _ = delta_step(model, probe, a)
    residual = float(np.max(np.abs(probe))) if n else 0.0
    if residual > tol:
        raise ValueError(
            f"cooldown residual {residual:.3e} exceeds {tol:.1e}; "
            "system may be uncontrollable or badly conditioned")
    return inputs


# -- encrypted-model machinery -------------------------------------------------

@dataclass
class EncModel:
    """Encrypted system knowledge of the second attack variant, padded to the
    backend slot count. ``cooldown_matrix`` holds the encrypted product of
    the pseudo-inverse of the controllability matrix with A^n, precomputed so
    the online cooldown costs a single encrypted matrix-vector product."""

    A: DiagMatrixCipher
    B: DiagMatrixCipher
    C: DiagMatrixCipher
    Cc_pinv: DiagMatrixCipher
    cooldown_matrix: DiagMatrixCipher
    n: int
    m: int
    p: int


def build_enc_model(ctx: KeyContext, model: LtiModel, pinv_mode: str = "oracle",
                    ns_iterations: int = 25) -> EncModel:
    """Encrypt the model matrices for the encrypted-model attacker.

    ``pinv_mode="oracle"`` encrypts the plaintext pseudo-inverse at setup,
    standing in for an attacker that obtained it through an encrypted
    identification pipeline. ``pinv_mode="newton_schulz"`` computes it
    homomorphically from the encrypted controllability matrix (deep circuit;
    the spectral scaling constant is treated as public).
    """
    enc_A = encrypt_matrix(ctx, model.A)
    enc_B = encrypt_matrix(ctx, model.B)
    enc_C = encrypt_matrix(ctx, model.C)
    Cc = controllability_matrix(model)
    if pinv_mode == "oracle":
        enc_pinv = encrypt_matrix(ctx, pseudo_inverse(Cc))
    elif pinv_mode == "newton_schulz":
        enc_Cc = encrypt_matrix(ctx, Cc)
        scale = 1.0 / float(np.linalg.norm(Cc, 2)) ** 2
        enc_pinv = enc_pinv_newton_schulz(ctx, enc_Cc, scale, ns_iterations)
    else:
        raise ValueError(f"unknown pinv_mode {pinv_mode!r}")
    enc_An = enc_matrix_power(enc_A, model.n)
    cooldown_matrix = enc_matmat(enc_pinv, enc_An)
    return EncModel(A=enc_A, B=enc_B, C=enc_C, Cc_pinv=enc_pinv,
                    cooldown_matrix=cooldown_matrix,
                    n=model.n, m=model.m, p=model.p)


def delta_step_encrypted(enc_model: EncModel, dx_cipher: PackedCiphertext,
                         a_u, pub_ctx: KeyContext,
                         ) -> tuple[PackedCiphertext, PackedCiphertext]:
    """One step of the compensation recursion entirely under encryption.
    ``a_u`` may be a plaintext vector (active phase) or a ciphertext whose
    leading input slots are valid (cooldown phase)."""
    a_y_cipher = enc_matvec(enc_model.C, dx_cipher)
    if isinstance(a_u, PackedCiphertext):
        a_u_cipher = a_u
    else:
        a_u_cipher = pub_ctx.encrypt(pad_slots(a_u, pub_ctx.config.slot_count))
    dx_next = hom_add(enc_matvec(enc_model.A, dx_cipher),
                      enc_matvec(enc_model.B, a_u_cipher))
    return dx_next, a_y_cipher


def cooldown_inputs_encrypted(enc_model: EncModel, dx_cipher: PackedCiphertext,
                              ) -> list[PackedCiphertext]:
    """Encrypted cooldown inputs, newest-last. Each returned ciphertext is
    valid in its leading m slots only (the block extraction is a rotation,
    which is level-free; a masking multiply would cost depth the scenario
    budget does not have)."""
    stacked = enc_matvec(enc_model.cooldown_matrix, dx_cipher)
    stacked = hom_neg(stacked)
    n, m = enc_model.n, enc_model.m
    return [rotate(stacked, (n - 1 - i) * m) for i in range(n)]


def inject(ctx: KeyContext, channel: str, signal, value):
    """Splice a bias into a channel value using only the public encryption
    capability: the input channel gets ``+value``, the output channel
    ``-value``. Works on plaintext vectors and packed ciphertexts."""
    value = np.asarray(value, dtype=float).ravel()
    signed = value if channel == "input" else -value
    if channel not in ("input", "output"):
        raise ValueError(f"unknown channel {channel!r}")
    if isinstance(signal, PackedCiphertext):
        return hom_add(signal, ctx.encrypt(pad_slots(signed, ctx.config.slot_count)))
    signal = np.asarray(signal, dtype=float).ravel()
    out = signal.copy()
    out[: len(signed)] += signed
    return out


class CovertAttacker:
    """Man-in-the-middle covert attacker for ``run_closed_loop``.

    Call order per step k: ``tamper_measurement`` (plant -> controller link),
    then ``tamper_control`` (controller -> plant link), which also advances
    the internal compensation state. Transparent outside [0, plan.length).
    """

    def __init__(self, model: LtiModel, plan: AttackPlan,
                 ctx: KeyContext | None = None,
                 enc_model: EncModel | None = None):
        self.model = model
        self.plan = plan
        self.ctx = ctx  # public context; needed for encrypted channels
        self.enc_model = enc_model
        if plan.variant == "enc_model":
            if ctx is None or enc_model is None:
                raise ValueError("encrypted-model attacks need a context and EncModel")
            self._dx_cipher = ctx.encrypt(np.zeros(ctx.config.slot_count))
        self._dx = np.zeros(model.n)
        self._cooldown: list | None = None
        self._pending_a_y = None

    # -- schedule ------------------------------------------------------------

    def _current_input(self, k: int):
        """Bias input for step k; plaintext vector or (cooldown, encrypted
        variant) a ciphertext."""
        L, n = self.plan.length, self.plan.cooldown_len
        if k < 0 or k >= L:
            return np.zeros(self.model.m)
        if k < L - n:
            return self.plan.active_input(k, self.model.m)
        if self._cooldown is None:
            if self.plan.variant == "enc_model":
                self._cooldown = cooldown_inputs_encrypted(self.enc_model,
                                                           self._dx_cipher)
            else:
                self._cooldown = cooldown_inputs(self.model, self._dx)
        return self._cooldown[k - (L - n)]

    def active_at(self, k: int) -> bool:
        return 0 <= k < self.plan.length

    # -- channel hooks ---------------------------------------------------------

    def tamper_measurement(self, k: int, y):
        if not self.active_at(k):
            return y
        if self.plan.variant == "enc_model":
            a_y_cipher = enc_matvec(self.enc_model.C, self._dx_cipher)
            return hom_add(y, hom_neg(a_y_cipher))
        a_y = self.model.C @ self._dx
        if isinstance(y, PackedCiphertext):
            return inject(self.ctx, "output", y, a_y)
        return y - a_y

    def tamper_control(self, k: int, u_c):
        if not self.active_at(k):
            return u_c
        a_u = self._current_input(k)
        if self.plan.variant == "enc_model":
            if isinstance(a_u, PackedCiphertext):
                u = hom_add(u_c, a_u)
            else:
                u = inject(self.ctx, "input", u_c, a_u)
            self._dx_cipher, _ = delta_step_encrypted(self.enc_model,
                                                      self._dx_cipher, a_u, self.ctx)
            return u
        if isinstance(u_c, PackedCiphertext):
            u = inject(self.ctx, "input", u_c, a_u)
        else:
            u = u_c + a_u
        self._dx, _ = delta_step(self.model, self._dx, a_u)
        return u


class GuessingAttacker:
    """Covert attacker facing the verification scheme: the bias signals must
    land exactly on the payload replica blocks, whose positions are hidden by
    the per-step permutation, so the attacker guesses a block subset
    uniformly at random. One guess per step covers both channel directions.
    """

    def __init__(self, model: LtiModel, plan: AttackPlan, ctx: KeyContext,
                 expansion: int, block_dim: int, rng: np.random.Generator):
        if plan.variant != "plain_model":
            raise ValueError("the guessing attacker runs the plaintext-model variant")
        self.model = model
        self.plan = plan
        self.ctx = ctx
        self.expansion = expansion
        self.block_dim = block_dim
        self.rng = rng
        self._inner = CovertAttacker(model, plan, ctx=ctx)
        self._guess: frozenset[int] | None = None

    def _step_guess(self) -> frozenset[int]:
        if self._guess is None:
            self._guess = verify.guess_blocks(self.expansion, self.rng)
        return self._guess

    def _add_to_blocks(self, cipher, delta):
        mask = verify.block_mask(self.expansion, self.block_dim,
                                 self.ctx.config.slot_count,
                                 self._step_guess(), delta)
        return hom_add(cipher, mask)

    def tamper_measurement(self, k: int, cipher):
        self._guess = None  # fresh guess each step
        if not self._inner.active_at(k):
            return cipher
        a_y = self.model.C @ self._inner._dx
        if np.any(a_y != 0):
            cipher = self._add_to_blocks(cipher, -a_y)
        return cipher

    def tamper_control(self, k: int, cipher):
        if not self._inner.active_at(k):
            return cipher
        a_u = self._inner._current_input(k)
        if np.any(a_u != 0):
            cipher = self._add_to_blocks(cipher, a_u)
        self._inner._dx, _ = delta_step(self.model, self._inner._dx, a_u)
        return cipher
