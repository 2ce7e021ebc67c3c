"""Discrete-time LTI plant and the (optionally encrypted, optionally
verified) static output-feedback control loop.

The loop is synchronous and lock-step: per time step the plant measures,
sends one message to the controller, and receives one message back. In
encrypted modes each message is a single packed ciphertext carrying the
stacked [y; u0] input (respectively the control block) so that the controller
evaluation reduces to one encrypted matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import verify
from .backend import KeyContext, pad_slots
from .linalg import DiagMatrixCipher, enc_matvec, encrypt_matrix

__all__ = [
    "LtiModel",
    "AffineController",
    "SimTrace",
    "plant_step",
    "controller_eval_plain",
    "controller_eval_encrypted",
    "encrypt_controller",
    "run_closed_loop",
    "quadruple_tank",
    "tank_controller",
    "TANK_X0",
    "TANK_XREF",
]


@dataclass(frozen=True)
class LtiModel:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", np.asarray(self.A, dtype=float))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float))
        object.__setattr__(self, "C", np.asarray(self.C, dtype=float))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError(f"A must be square, got {self.A.shape}")
        if self.B.shape[0] != n:
            raise ValueError(f"B has {self.B.shape[0]} rows, expected {n}")
        if self.C.shape[1] != n:
            raise ValueError(f"C has {self.C.shape[1]} columns, expected {n}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class AffineController:
    """u = -K y + u0 with K stored as the positive gain matrix."""

    K: np.ndarray
    u0: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", np.atleast_2d(np.asarray(self.K, dtype=float)))
        object.__setattr__(self, "u0", np.asarray(self.u0, dtype=float).ravel())
        if self.K.shape[0] != len(self.u0):
            raise ValueError("gain row count must match offset length")


def quadruple_tank() -> LtiModel:
    """Linearized four-tank process used throughout the test scenarios."""
    A = np.array([
        [0.984, 0.000, 0.041, 0.000],
        [0.000, 0.989, 0.000, 0.033],
        [0.000, 0.000, 0.959, 0.000],
        [0.000, 0.000, 0.000, 0.967],
    ])
    B = np.array([
        [0.083, 0.001],
        [0.001, 0.063],
        [0.000, 0.047],
        [0.031, 0.000],
    ])
    C = np.array([
        [0.500, 0.000, 0.000, 0.000],
        [0.000, 0.500, 0.000, 0.000],
    ])
    return LtiModel(A=A, B=B, C=C)


def tank_controller() -> AffineController:
    return AffineController(
        K=np.array([[11.545, 0.061], [1.609, 11.131]]),
        u0=np.array([6.80, 7.76]),
    )


TANK_X0 = np.array([1.0, 1.0, 0.0, 0.0])
TANK_XREF = np.array([1.15, 1.20, 0.17, 0.13])


def plant_step(model: LtiModel, x, u) -> tuple[np.ndarray, np.ndarray]:
    """One state update. The output is taken from the pre-update state:
    y(k) = C x(k), x(k+1) = A x(k) + B u(k)."""
    x = np.asarray(x, dtype=float).ravel()
    u = np.asarray(u, dtype=float).ravel()
    if x.shape != (model.n,) or u.shape != (model.m,):
        raise ValueError(f"expected x of length {model.n} and u of length {model.m}")
    y = model.C @ x
    x_next = model.A @ x + model.B @ u
    return x_next, y


def controller_eval_plain(ctrl: AffineController, y_c) -> np.ndarray:
    return -ctrl.K @ np.asarray(y_c, dtype=float).ravel() + ctrl.u0


def encrypt_controller(ctx: KeyContext, ctrl: AffineController,
                       expansion: int = 1) -> DiagMatrixCipher:
    """Encrypt the controller in lifted linear form: the block-diagonal
    replication of K_aug over ``expansion`` stacked [y; u0] blocks."""
    K_aug = verify.lift_affine(-ctrl.K, ctrl.u0)
    return encrypt_matrix(ctx, np.kron(np.eye(expansion), K_aug))


def controller_eval_encrypted(enc_ctrl: DiagMatrixCipher, y_cipher):
    """Single encrypted matrix-vector product applying the lifted controller."""
    return enc_matvec(enc_ctrl, y_cipher)


@dataclass
class SimTrace:
    """Per-step record of the loop; channel values on both sides of the
    (possibly attacked) links."""

    k: list[int] = field(default_factory=list)
    x: list[np.ndarray] = field(default_factory=list)
    u: list[np.ndarray] = field(default_factory=list)
    y: list[np.ndarray] = field(default_factory=list)
    u_c: list[np.ndarray] = field(default_factory=list)
    y_c: list[np.ndarray] = field(default_factory=list)
    verdict: list[str] = field(default_factory=list)

    def append(self, k, x, u, y, u_c, y_c, verdict="n/a"):
        self.k.append(int(k))
        self.x.append(np.asarray(x, dtype=float).copy())
        self.u.append(np.asarray(u, dtype=float).copy())
        self.y.append(np.asarray(y, dtype=float).copy())
        self.u_c.append(np.asarray(u_c, dtype=float).copy())
        self.y_c.append(np.asarray(y_c, dtype=float).copy())
        self.verdict.append(verdict)

    def __len__(self):
        return len(self.k)

    def to_csv(self, path):
        n = len(self.x[0]) if self.x else 0
        m = len(self.u[0]) if self.u else 0
        p = len(self.y[0]) if self.y else 0
        header = (["k"]
                  + [f"x{i+1}" for i in range(n)]
                  + [f"u{i+1}" for i in range(m)]
                  + [f"y{i+1}" for i in range(p)]
                  + [f"uc{i+1}" for i in range(m)]
                  + [f"yc{i+1}" for i in range(p)]
                  + ["verdict"])
        lines = [",".join(header)]
        for i in range(len(self.k)):
            vals = np.concatenate([self.x[i], self.u[i], self.y[i],
                                   self.u_c[i], self.y_c[i]])
            lines.append(",".join([str(self.k[i])]
                                  + [f"{v:.12g}" for v in vals]
                                  + [self.verdict[i]]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def _in_process_link(ctx: KeyContext, enc_ctrl: DiagMatrixCipher, attacker,
                     p: int, m: int):
    """The default link: attacker hooks around the controller, in-process."""
    def link(k, y_cipher, lo):
        if attacker is not None:
            y_cipher = attacker.tamper_measurement(k, y_cipher)
        y_c = ctx.decrypt(y_cipher)[lo: lo + p]
        u_cipher = controller_eval_encrypted(enc_ctrl, y_cipher)
        u_c = ctx.decrypt(u_cipher)[lo: lo + m]
        if attacker is not None:
            u_cipher = attacker.tamper_control(k, u_cipher)
        return u_cipher, y_c, u_c
    return link


def run_closed_loop(model: LtiModel, ctrl: AffineController, x0, steps: int,
                    attacker=None, mode: str = "plain",
                    ctx: KeyContext | None = None, pre_roll: int = 0,
                    verifier: verify.VerifierContext | None = None,
                    link=None) -> SimTrace:
    """Simulate the closed loop for ``pre_roll + steps`` steps.

    Attack time runs from k = -pre_roll to steps - 1; an attached attacker is
    consulted at every step and passes values through unchanged outside its
    own active window (``active_at``). In
    ``encrypted`` mode each step encodes y, encrypts it once, hands the
    ciphertext to ``link(k, y_cipher, lo)``, and decrypts and decodes the
    reply; with a ``verifier`` the encoding is ``verify.ecd`` and the loop
    terminates at the first rejected response (verdict ``"bottom"``). The
    link returns ``(u_cipher, y_c, u_c)``: the reply and the controller-side
    view of the payload block at slot offset ``lo``, or ``None`` twice where
    it cannot see it (the trace then records the plant's y and u). The
    default link encrypts the controller and runs ``attacker`` in-process.
    """
    if mode not in ("plain", "encrypted"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "encrypted":
        if ctx is None:
            raise ValueError("encrypted mode requires a key context")
        block_dim = verify.lifted_dim(model.p, model.m)
        if verifier is not None and verifier.block_dim != block_dim:
            raise ValueError("verifier block dimension does not match controller lift")
        if link is None:
            expansion = verifier.expansion if verifier is not None else 1
            enc_ctrl = encrypt_controller(ctx, ctrl, expansion)
            link = _in_process_link(ctx, enc_ctrl, attacker, model.p, model.m)
        elif attacker is not None:
            raise ValueError("an attacker tampers on the in-process link only")

    x = np.asarray(x0, dtype=float).ravel().copy()
    trace = SimTrace()
    for k in range(-pre_roll, steps):
        y = model.C @ x
        verdict = "n/a"

        if mode == "plain":
            y_c = attacker.tamper_measurement(k, y) if attacker is not None else y
            u_c = controller_eval_plain(ctrl, y_c)
            u = attacker.tamper_control(k, u_c) if attacker is not None else u_c
        else:
            w = verify.lifted_input(y, ctrl.u0, block_dim)
            if verifier is None:
                tag, lo = None, 0
            else:
                w, tag = verify.ecd(verifier, w)
                # trace the payload block the controller effectively processes
                lo = min(tag.payload_positions()) * block_dim
            y_cipher = ctx.encrypt(pad_slots(w, ctx.config.slot_count))
            u_cipher, y_c, u_c = link(k, y_cipher, lo)
            z = ctx.decrypt(u_cipher)
            if verifier is None:
                u = z[: model.m]
            else:
                outcome = verify.dcd(verifier, tag, z[: verifier.encoded_dim],
                                     u_cipher.noise_bound)
                if outcome.bottom:
                    u, verdict = np.zeros(model.m), "bottom"
                else:
                    u, verdict = outcome.payload[: model.m], "ok"
            if y_c is None:
                y_c, u_c = y, u

        trace.append(k, x, u, y, u_c, y_c, verdict)
        if verdict == "bottom":
            break
        x = model.A @ x + model.B @ u
    return trace
