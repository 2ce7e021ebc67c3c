"""Covert man-in-the-middle attacks on the (encrypted) control loop.

Every attack here runs one mechanism. A compensation state dx follows the
plant's dynamics, dx(k+1) = A dx(k) + B a_u(k); the attacker adds the input
bias a_u(k) to the control channel and -C dx(k) to the measurement channel,
so the controller sees the attack-free loop. The plaintext-model attacker
knows (A, B, C), runs dx in the clear and splices a nonzero bias as a
plaintext vector (a zero bias is skipped). The encrypted-model attacker
knows only encrypted copies of the model (an ``EncModel``) and runs the same
recursion under encryption, one multiplicative level per step. Against the
verified loop, ``GuessingAttacker`` lands the plaintext-model splice on a
guessed half of the blocks. The scenario kind alone picks the attacker
(``scenario.build_attacker``).

The attack has finite length: an active phase with a chosen input bias
schedule, then a cooldown of n steps whose inputs, computed from the
controllability matrix, return dx to zero so the attack stops undetected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import (KeyContext, PackedCiphertext, hom_add, hom_neg, hom_sub, pad_slots,
                      rotate)
from .control import LtiModel, plant_step
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
    "check_cooldown",
    "controllability_matrix",
    "cooldown_inputs",
    "cooldown_inputs_encrypted",
    "delta_step_encrypted",
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

    def __post_init__(self):
        self.schedule = {int(k): np.asarray(v, dtype=float).ravel()
                         for k, v in self.schedule.items()}
        if not 1 <= self.cooldown_len <= self.length:
            raise ValueError("cooldown length must lie in [1, length]")
        for k in self.schedule:
            if not 0 <= k < self.length - self.cooldown_len:
                raise ValueError(
                    f"scheduled step {k} outside the active phase "
                    f"[0, {self.length - self.cooldown_len})")

    def active_input(self, k: int, m: int) -> np.ndarray:
        return self.schedule.get(k, np.zeros(m))


def check_cooldown(model: LtiModel, plan: AttackPlan):
    """Raise ValueError unless the plan's cooldown fits the model: the
    cooldown solves the n-step terminal condition dx(n) = 0 only."""
    if plan.cooldown_len != model.n:
        raise ValueError(f"cooldown_len must equal the state dimension {model.n}, "
                         f"got {plan.cooldown_len}")


def controllability_matrix(model: LtiModel) -> np.ndarray:
    """[B  AB  ...  A^{n-1}B], block columns in that order."""
    blocks = []
    Ak = np.eye(model.n)
    for _ in range(model.n):
        blocks.append(Ak @ model.B)
        Ak = model.A @ Ak
    return np.hstack(blocks)


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
    stacked = -np.linalg.pinv(Cc) @ (An @ dx)
    blocks = stacked.reshape(n, m)
    inputs = [blocks[n - 1 - i] for i in range(n)]
    # verify the terminal condition before handing the inputs out
    probe = dx.copy()
    for a in inputs:
        probe, _ = plant_step(model, probe, a)
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
        enc_pinv = encrypt_matrix(ctx, np.linalg.pinv(Cc))
    elif pinv_mode == "newton_schulz":
        enc_Cc = encrypt_matrix(ctx, Cc)
        scale = 1.0 / float(np.linalg.norm(Cc, 2)) ** 2
        enc_pinv = enc_pinv_newton_schulz(ctx, enc_Cc, scale, ns_iterations)
    else:
        raise ValueError(f"unknown pinv_mode {pinv_mode!r}")
    enc_An = enc_matrix_power(enc_A, model.n)
    cooldown_matrix = enc_matmat(enc_pinv, enc_An)
    return EncModel(A=enc_A, B=enc_B, C=enc_C, cooldown_matrix=cooldown_matrix,
                    n=model.n, m=model.m, p=model.p)


def delta_step_encrypted(enc_model: EncModel, dx_cipher: PackedCiphertext,
                         a_u_cipher: PackedCiphertext) -> PackedCiphertext:
    """The next compensation state A dx + B a_u, entirely under encryption.
    ``a_u_cipher`` is the bias ciphertext the splice adds; only its leading
    input slots are read."""
    return hom_add(enc_matvec(enc_model.A, dx_cipher),
                   enc_matvec(enc_model.B, a_u_cipher))


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


class CovertAttacker:
    """Man-in-the-middle covert attacker for ``run_closed_loop``.

    Call order per step k: ``tamper_measurement`` (plant -> controller link),
    then ``tamper_control`` (controller -> plant link), which also advances
    the internal compensation state. Transparent outside [0, plan.length).
    A bias lands in the channel's leading slots (``_place``). Given an
    ``enc_model`` (which needs the public ``ctx``), the compensation state
    runs under encryption; otherwise it runs in the clear.
    """

    def __init__(self, model: LtiModel, plan: AttackPlan,
                 ctx: KeyContext | None = None,
                 enc_model: EncModel | None = None):
        check_cooldown(model, plan)
        self.model = model
        self.plan = plan
        self.ctx = ctx  # public context; needed for encrypted channels
        self.enc_model = enc_model
        if enc_model is not None:
            if ctx is None:
                raise ValueError("an encrypted-model attack needs a context")
            self._dx_cipher = ctx.encrypt(np.zeros(ctx.config.slot_count))
        self._dx = np.zeros(model.n)
        self._cooldown: list | None = None

    # -- schedule ------------------------------------------------------------

    def _current_input(self, k: int):
        """Bias input for an active step k; a plaintext vector or (cooldown,
        encrypted model) a ciphertext."""
        L, n = self.plan.length, self.plan.cooldown_len
        if k < L - n:
            return self.plan.active_input(k, self.model.m)
        if self._cooldown is None:
            if self.enc_model is not None:
                self._cooldown = cooldown_inputs_encrypted(self.enc_model,
                                                           self._dx_cipher)
            else:
                self._cooldown = cooldown_inputs(self.model, self._dx)
        return self._cooldown[k - (L - n)]

    def active_at(self, k: int) -> bool:
        return 0 <= k < self.plan.length

    # -- splicing ------------------------------------------------------------

    def _place(self, bias) -> np.ndarray:
        """The slot vector that carries ``bias`` onto the payload."""
        return pad_slots(bias, self.ctx.config.slot_count)

    def _splice(self, signal, bias):
        """Add a plaintext ``bias`` to a channel value; a zero bias leaves
        the value as it is."""
        if not np.any(bias):
            return signal
        if isinstance(signal, PackedCiphertext):
            return hom_add(signal, self._place(bias))
        return signal + bias

    # -- channel hooks ---------------------------------------------------------

    def tamper_measurement(self, k: int, y):
        if not self.active_at(k):
            return y
        if self.enc_model is not None:
            return hom_sub(y, enc_matvec(self.enc_model.C, self._dx_cipher))
        return self._splice(y, -(self.model.C @ self._dx))

    def tamper_control(self, k: int, u_c):
        if not self.active_at(k):
            return u_c
        a_u = self._current_input(k)
        if self.enc_model is not None:
            if not isinstance(a_u, PackedCiphertext):
                a_u = self.ctx.encrypt(self._place(a_u))
            u = hom_add(u_c, a_u)
            self._dx_cipher = delta_step_encrypted(self.enc_model, self._dx_cipher, a_u)
            return u
        u = self._splice(u_c, a_u)
        self._dx, _ = plant_step(self.model, self._dx, a_u)
        return u


class GuessingAttacker(CovertAttacker):
    """Covert attacker facing the verification scheme: the bias signals must
    land exactly on the payload replica blocks, whose positions are hidden by
    the per-step permutation, so the attacker guesses a block subset
    uniformly at random. It is the plaintext-model ``CovertAttacker`` with
    one change, where a bias lands (``_place``): on each of the guessed
    ``expansion / 2`` blocks of the lifted controller's block size
    ``verify.lifted_dim(p, m)``. One guess per step covers both channel
    directions; it is drawn from ``rng`` at the step's first nonzero splice.
    """

    def __init__(self, model: LtiModel, plan: AttackPlan, ctx: KeyContext,
                 expansion: int, rng: np.random.Generator):
        super().__init__(model, plan, ctx=ctx)
        self.expansion = expansion
        self.block_dim = verify.lifted_dim(model.p, model.m)
        self.rng = rng
        self._guess: frozenset[int] | None = None

    def _place(self, bias) -> np.ndarray:
        if self._guess is None:
            self._guess = verify.guess_blocks(self.expansion, self.rng)
        return verify.block_mask(self.block_dim, self.ctx.config.slot_count,
                                 self._guess, bias)

    # Both hooks are defined here rather than inherited, so that a tool which
    # rebinds and later restores a method per class finds it on this class.

    def tamper_measurement(self, k: int, cipher):
        self._guess = None  # fresh guess each step
        return super().tamper_measurement(k, cipher)

    def tamper_control(self, k: int, cipher):
        return super().tamper_control(k, cipher)
