"""Covert man-in-the-middle attacks on the (encrypted) control loop.

Every attack here runs one mechanism. A compensation state dx follows the
plant's dynamics, dx(k+1) = A dx(k) + B a_u(k); the attacker adds the input
bias a_u(k) to the control channel and -C dx(k) to the measurement channel,
so the controller sees the attack-free loop. The plaintext-model attacker
knows (A, B, C), runs dx in the clear and splices a nonzero bias as a
plaintext vector (a zero bias is skipped). The encrypted-model attacker
knows only encrypted copies of the model (an ``EncModel``) and runs the same
recursion under encryption, one multiplicative level per step
(``encrypted_attack_depth`` is the depth budget this needs). Against the
verified loop, ``GuessingAttacker`` lands the plaintext-model splice on a
guessed half of the blocks. The scenario kind alone picks the attacker
(``scenario.build_attacker``).

The attack has finite length: an active phase with a chosen input bias
schedule, then a cooldown of n steps whose inputs, computed from the
controllability matrix (``cooldown_gain``, for both attacker models),
return dx to zero so the attack stops undetected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .backend import KeyContext, PackedCiphertext, hom_add, hom_sub, rotate
from .control import LtiModel, plant_step
from .linalg import DiagMatrixCipher, enc_matvec, encrypt_matrix
from . import verify

__all__ = [
    "AttackPlan",
    "EncModel",
    "CovertAttacker",
    "GuessingAttacker",
    "check_cooldown",
    "controllability_matrix",
    "cooldown_gain",
    "cooldown_inputs",
    "cooldown_inputs_encrypted",
    "delta_step_encrypted",
    "build_enc_model",
    "encrypted_attack_depth",
]

COOLDOWN_TOL = 1e-8  # the largest terminal residual that cooldown_inputs accepts


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


def cooldown_gain(model: LtiModel) -> np.ndarray:
    """The (n·m x n) map from dx(L-n) to the n cooldown inputs, stacked in
    the order they are applied. The terminal condition dx(L) = 0 of

        dx(L) = A^n dx(L-n) + [A^{n-1}B ... B] [a(L-n); ...; a(L-1)]

    gives -pinv([B ... A^{n-1}B]) A^n, whose block rows read newest-first."""
    n, m, Cc = model.n, model.m, controllability_matrix(model)
    newest_first = -np.linalg.pinv(Cc) @ np.linalg.matrix_power(model.A, n)
    return newest_first.reshape(n, m, n)[::-1].reshape(n * m, n)


def cooldown_inputs(model: LtiModel, dx) -> list[np.ndarray]:
    """Inputs for the last n attack steps that drive the compensation state
    to zero, in application order: the block rows of ``cooldown_gain(model)
    @ dx``, checked against the terminal condition to within ``COOLDOWN_TOL``."""
    dx = np.asarray(dx, dtype=float).ravel()
    inputs = list((cooldown_gain(model) @ dx).reshape(model.n, model.m))
    # verify the terminal condition before handing the inputs out
    probe = dx.copy()
    for a in inputs:
        probe, _ = plant_step(model, probe, a)
    residual = float(np.max(np.abs(probe))) if model.n else 0.0
    if residual > COOLDOWN_TOL:
        raise ValueError(
            f"cooldown residual {residual:.3e} exceeds {COOLDOWN_TOL:.1e}; "
            "system may be uncontrollable or badly conditioned")
    return inputs


# -- encrypted-model machinery -------------------------------------------------

@dataclass
class EncModel:
    """Encrypted system knowledge of the encrypted-model attacker, padded to
    the backend slot count. ``cooldown_matrix`` is the encrypted
    ``cooldown_gain``, so that the online cooldown costs one encrypted
    matrix-vector product. Every matrix is a fresh encryption (level 0)."""

    A: DiagMatrixCipher
    B: DiagMatrixCipher
    C: DiagMatrixCipher
    cooldown_matrix: DiagMatrixCipher
    n: int
    m: int


def build_enc_model(ctx: KeyContext, model: LtiModel) -> EncModel:
    """Encrypt the model matrices for the encrypted-model attacker.

    C is encrypted with its rows moved down to where the measurement sits in
    the lifted block (``verify.measurement_offset``), so that C dx lands on
    y's slots. The cooldown gain is computed in the clear and encrypted once
    at setup, standing in for an attacker that obtained it through an
    encrypted identification pipeline.
    """
    C_placed = np.zeros((verify.measurement_offset(model.m) + model.p, model.n))
    C_placed[-model.p:] = model.C
    return EncModel(A=encrypt_matrix(ctx, model.A), B=encrypt_matrix(ctx, model.B),
                    C=encrypt_matrix(ctx, C_placed),
                    cooldown_matrix=encrypt_matrix(ctx, cooldown_gain(model)),
                    n=model.n, m=model.m)


def encrypted_attack_depth(plan: AttackPlan) -> int:
    """The smallest ``max_depth`` that runs the plan's encrypted-model attack
    to its end, from the plan alone (no HE run).

    Every model matrix and each active step's bias is a fresh encryption
    (level 0). The compensation state dx starts fresh, and each step's
    A dx + B a_u sits one level above dx and above a_u, so dx after active
    step k sits at k + 1. The cooldown stack, one matvec of dx(L - n), sits
    at L - n + 1, so the first cooldown step lifts dx to L - n + 2, and dx
    after cooldown step k sits at k + 2. The controller's output at step k
    sits two above dx before it (the measurement splice, then its matvec),
    and the last step's update one above: with a cooldown of n >= 2 steps
    the output of step L - 1 sits highest, at L + 2, and with n = 1 the
    last update and that output both sit at L + 1.
    """
    return plan.length + min(plan.cooldown_len, 2)


def delta_step_encrypted(enc_model: EncModel, dx_cipher: PackedCiphertext,
                         a_u_cipher: PackedCiphertext) -> PackedCiphertext:
    """The next compensation state A dx + B a_u, entirely under encryption.
    ``a_u_cipher`` is the bias ciphertext the splice adds; only its leading
    input slots are read."""
    return hom_add(enc_matvec(enc_model.A, dx_cipher),
                   enc_matvec(enc_model.B, a_u_cipher))


def cooldown_inputs_encrypted(enc_model: EncModel, dx_cipher: PackedCiphertext,
                              ) -> list[PackedCiphertext]:
    """Encrypted cooldown inputs in application order: the matvec output,
    then its rotations by i·m. Each is valid in its leading m slots only (a
    rotation is level-free; a masking multiply would cost depth the scenario
    budget does not have)."""
    stacked = enc_matvec(enc_model.cooldown_matrix, dx_cipher)
    return [stacked] + [rotate(stacked, i * enc_model.m) for i in range(1, enc_model.n)]


class CovertAttacker:
    """Man-in-the-middle covert attacker for ``run_closed_loop``.

    Call order per step k: ``tamper_measurement`` (plant -> controller link),
    then ``tamper_control`` (controller -> plant link), which also advances
    the internal compensation state. Transparent outside [0, plan.length).
    A bias lands on its signal's slots of the lifted block (``_place``): a
    measurement bias from ``verify.measurement_offset(m)``, an input bias
    from slot 0. Given an ``enc_model`` (which needs the public ``ctx``),
    the compensation state ``_dx`` is a ciphertext and runs under
    encryption; otherwise it is a plaintext vector and runs in the clear.
    """

    def __init__(self, model: LtiModel, plan: AttackPlan,
                 ctx: KeyContext | None = None,
                 enc_model: EncModel | None = None):
        check_cooldown(model, plan)
        self.model = model
        self.plan = plan
        self.ctx = ctx  # public context; needed for encrypted channels
        self.enc_model = enc_model
        if enc_model is not None and ctx is None:
            raise ValueError("an encrypted-model attack needs a context")
        self._dx = (np.zeros(model.n) if enc_model is None
                    else ctx.encrypt(np.zeros(ctx.config.slot_count)))
        self._cooldown: list | None = None

    # -- schedule ------------------------------------------------------------

    def _current_input(self, k: int):
        """Bias input for an active step k; a plaintext vector or (cooldown,
        encrypted model) a ciphertext."""
        L, n = self.plan.length, self.plan.cooldown_len
        if k < L - n:
            return self.plan.active_input(k, self.model.m)
        if self._cooldown is None:
            self._cooldown = (cooldown_inputs(self.model, self._dx) if self.enc_model is None
                              else cooldown_inputs_encrypted(self.enc_model, self._dx))
        return self._cooldown[k - (L - n)]

    def active_at(self, k: int) -> bool:
        return 0 <= k < self.plan.length

    # -- splicing ------------------------------------------------------------

    def _place(self, bias, start: int) -> np.ndarray:
        """The slot vector that carries ``bias`` onto the payload from slot
        ``start`` of its block, here the whole ciphertext."""
        slot_count = self.ctx.config.slot_count
        return verify.block_mask(slot_count, slot_count, 0, bias, start)

    def _splice(self, signal, bias, start: int):
        """Add a plaintext ``bias`` to a channel value, on a ciphertext from
        slot ``start`` of the payload; a zero bias leaves the value as it is."""
        if not np.any(bias):
            return signal
        if isinstance(signal, PackedCiphertext):
            return hom_add(signal, self._place(bias, start))
        return signal + bias

    # -- channel hooks ---------------------------------------------------------

    def tamper_measurement(self, k: int, y):
        if not self.active_at(k):
            return y
        if self.enc_model is not None:
            return hom_sub(y, enc_matvec(self.enc_model.C, self._dx))
        return self._splice(y, -(self.model.C @ self._dx),
                            verify.measurement_offset(self.model.m))

    def tamper_control(self, k: int, u_c):
        if not self.active_at(k):
            return u_c
        a_u = self._current_input(k)
        if self.enc_model is not None:
            if not isinstance(a_u, PackedCiphertext):
                a_u = self.ctx.encrypt(self._place(a_u, 0))
            u = hom_add(u_c, a_u)
            self._dx = delta_step_encrypted(self.enc_model, self._dx, a_u)
            return u
        u = self._splice(u_c, a_u, 0)
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
        self._guess: np.ndarray | None = None

    def _place(self, bias, start: int) -> np.ndarray:
        if self._guess is None:
            self._guess = verify.guess_blocks(self.rng, 1, self.expansion)
        return verify.block_mask(self.block_dim, self.ctx.config.slot_count,
                                 self._guess, bias, start)

    # Both hooks are defined here rather than inherited, so that a tool which
    # rebinds and later restores a method per class finds it on this class.

    def tamper_measurement(self, k: int, cipher):
        self._guess = None  # fresh guess each step
        return super().tamper_measurement(k, cipher)

    def tamper_control(self, k: int, cipher):
        return super().tamper_control(k, cipher)
