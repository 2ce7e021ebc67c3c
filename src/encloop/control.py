"""Discrete-time LTI plant and the (optionally encrypted, optionally
verified) static output-feedback control loop.

The loop is synchronous and lock-step: per time step the plant measures,
sends one message to the controller, and receives one message back. In
encrypted modes each message is a single packed ciphertext carrying the
lifted block of y and u0 (``verify.lifted_input``; respectively the control
block) so that the controller evaluation reduces to one encrypted
matrix-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import verify
from .backend import BackendConfig, KeyContext, context_create, hand_over
from .linalg import DiagMatrixCipher, enc_matvec, encrypt_matrix

__all__ = [
    "LtiModel",
    "AffineController",
    "SimTrace",
    "plant_step",
    "check_controller",
    "controller_eval_plain",
    "controller_eval_encrypted",
    "encrypt_controller",
    "controller_role",
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
        if self.B.shape[1] == 0 or self.C.shape[0] == 0:
            raise ValueError(f"the model needs at least one input and one output, "
                             f"got B of shape {self.B.shape} and C of shape {self.C.shape}")

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


def check_controller(model: LtiModel, ctrl: AffineController):
    """Raise ``ValueError`` unless the controller maps the model's p outputs
    to its m inputs: K is m x p."""
    if ctrl.K.shape != (model.m, model.p):
        raise ValueError(f"K must be {model.m} x {model.p} (inputs x outputs of the "
                         f"model), got {ctrl.K.shape[0]} x {ctrl.K.shape[1]}")


def controller_eval_plain(ctrl: AffineController, y_c) -> np.ndarray:
    return -ctrl.K @ np.asarray(y_c, dtype=float).ravel() + ctrl.u0


def encrypt_controller(ctx: KeyContext, ctrl: AffineController,
                       expansion: int = 1) -> DiagMatrixCipher:
    """Encrypt the controller in lifted linear form: the block-diagonal
    replication kron(I_expansion, K_aug) over ``expansion`` lifted blocks
    (``verify.lifted_input``), encoded from the d x d block alone (no dense
    replication)."""
    K_aug = verify.lift_affine(-ctrl.K)
    return encrypt_matrix(ctx, K_aug, copies=expansion)


def controller_eval_encrypted(enc_ctrl: DiagMatrixCipher, y_cipher):
    """Single encrypted matrix-vector product applying the lifted controller."""
    return enc_matvec(enc_ctrl, y_cipher)


@dataclass
class SimTrace:
    """Per-step record of the loop; channel values on both sides of the
    (possibly attacked) links. ``append`` stores float arrays as given, without
    a copy: the trace owns them, so a caller hands over arrays it no longer
    writes, and copies a small slice of a wide array rather than keep the
    whole array alive. Other values (lists) are converted."""

    k: list[int] = field(default_factory=list)
    x: list[np.ndarray] = field(default_factory=list)
    u: list[np.ndarray] = field(default_factory=list)
    y: list[np.ndarray] = field(default_factory=list)
    u_c: list[np.ndarray] = field(default_factory=list)
    y_c: list[np.ndarray] = field(default_factory=list)
    verdict: list[str] = field(default_factory=list)

    def append(self, k, x, u, y, u_c, y_c, verdict="n/a"):
        self.k.append(int(k))
        # the dtype by position: numpy takes it faster than the keyword
        self.x.append(np.asarray(x, float))
        self.u.append(np.asarray(u, float))
        self.y.append(np.asarray(y, float))
        self.u_c.append(np.asarray(u_c, float))
        self.y_c.append(np.asarray(y_c, float))
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


def controller_role(config: BackendConfig, ctrl: AffineController, expansion: int = 1):
    """The controller of the encrypted loop, as one party: its own key
    context, without the secret key, holding the lifted controller
    replicated over ``expansion`` blocks (``encrypt_controller``), and
    ``serve(y_cipher) -> (u_cipher, y_c, u_c)``, which takes one measurement
    ciphertext into that context (``backend.hand_over``) and answers it with
    one ``controller_eval_encrypted``. ``y_c`` and ``u_c`` are the
    controller's view of its input and output block, which an observer
    context decrypts for the trace, a simulation privilege; with more than
    one block the controller cannot tell the payload from a challenge, so
    there is no observer and the view is ``None`` twice. Returns ``(ctx,
    serve)``. Used in-process by ``run_closed_loop`` and over TCP by
    ``netloop.run_controller``."""
    ctx = context_create(config, "controller")
    enc_ctrl = encrypt_controller(ctx, ctrl, expansion)
    observer = context_create(config, "observer") if expansion == 1 else None
    m, p = ctrl.K.shape
    start = verify.measurement_offset(m)

    def serve(y_cipher):
        y_cipher = hand_over(ctx, y_cipher)
        u_cipher = controller_eval_encrypted(enc_ctrl, y_cipher)
        if observer is None:
            return u_cipher, None, None
        # copies, not views that keep the slot-width decrypts alive
        return (u_cipher, observer.decrypt(y_cipher)[start: start + p].copy(),
                observer.decrypt(u_cipher)[:m].copy())
    return ctx, serve


def _in_process_link(serve, attacker):
    """The default link: the TCP exchange without the codec. On an active
    step the attacker's hooks take each ciphertext into its own context
    (``attacker.ctx``) around the controller's ``serve``, as the proxy
    deserializes a frame on those steps only."""
    def link(k, y_cipher):
        active = attacker is not None and attacker.active_at(k)
        if active:
            y_cipher = attacker.tamper_measurement(k, hand_over(attacker.ctx, y_cipher))
        u_cipher, y_c, u_c = serve(y_cipher)
        if active:
            u_cipher = attacker.tamper_control(k, hand_over(attacker.ctx, u_cipher))
        return u_cipher, y_c, u_c
    return link


def run_closed_loop(model: LtiModel, ctrl: AffineController, x0, steps: int,
                    attacker=None, ctx: KeyContext | None = None, pre_roll: int = 0,
                    verifier: verify.VerifierContext | None = None,
                    link=None) -> SimTrace:
    """Simulate the closed loop for ``pre_roll + steps`` steps.

    Attack time runs from k = -pre_roll to steps - 1; an attached attacker
    passes values through unchanged outside its own active window
    (``active_at``). The channel is encrypted exactly when a key context
    ``ctx`` (the plant's) is given: each step then encodes y, encrypts it
    once, hands the ciphertext to ``link(k, y_cipher)``, and decrypts and
    decodes the reply; with a ``verifier`` the encoding is ``verify.ecd`` and
    the loop terminates at the first rejected response (verdict
    ``"bottom"``); a y outside ``verify.CHALLENGE_RANGE``, or not finite,
    ends it before encryption (verdict ``"range"``, u = 0). The link returns
    ``(u_cipher, y_c, u_c)``: the reply and the controller's view of its
    input and output, or ``None`` twice where it has none (the trace then
    records the plant's y and u). The default link is the networked
    exchange without the codec: the ``attacker``'s hooks, in its own
    context, around a ``controller_role`` of its own. A controller that is
    not ``model.m`` x ``model.p``, a ``verifier`` or ``link`` without
    ``ctx``, and an attacker without a context (``ctx`` attribute) on an
    encrypted channel raise ``ValueError`` before step 0. A step allocates
    only the arrays it hands on, and the trace keeps them (``SimTrace``).
    """
    check_controller(model, ctrl)
    if ctx is None:
        if verifier is not None or link is not None:
            raise ValueError("a verifier or link needs a key context")
    else:
        block_dim = verify.lifted_dim(model.p, model.m)
        if verifier is not None and verifier.block_dim != block_dim:
            raise ValueError("verifier block dimension does not match controller lift")
        if link is None:
            if attacker is not None and attacker.ctx is None:
                raise ValueError("an attacker on an encrypted channel needs a key context")
            expansion = verifier.expansion if verifier is not None else 1
            link = _in_process_link(controller_role(ctx.config, ctrl, expansion)[1],
                                    attacker)
        elif attacker is not None:
            raise ValueError("an attacker tampers on the in-process link only")
        # One plaintext buffer serves the run, as ``ctx.encrypt`` copies it.
        # The lifted block (the buffer's head, or the verifier's input) holds
        # u0 from here on, and a step writes only y into it; with a verifier,
        # ``ecd``'s encoding of the block goes to the buffer's head.
        slots = np.zeros(ctx.config.slot_count)
        if verifier is None:
            block = slots[:block_dim]
        else:
            block, head = np.empty(block_dim), slots[: verifier.encoded_dim]
        block[:] = verify.lifted_input(np.zeros(model.p), ctrl.u0, block_dim)
        start = verify.measurement_offset(model.m)
        measured = block[start: start + model.p]

    x = np.asarray(x0, dtype=float).ravel().copy()
    bound = verify.CHALLENGE_RANGE
    trace = SimTrace()
    for k in range(-pre_roll, steps):
        y = model.C @ x
        verdict = "n/a"

        if ctx is None:
            y_c = attacker.tamper_measurement(k, y) if attacker is not None else y
            u_c = controller_eval_plain(ctrl, y_c)
            u = attacker.tamper_control(k, u_c) if attacker is not None else u_c
        elif not all(-bound <= v <= bound for v in y.tolist()):  # NaN fails too
            u = np.zeros(model.m)
            y_c, u_c, verdict = y, u, "range"
        else:
            measured[:] = y
            if verifier is None:
                tag = None
            else:
                w, tag = verify.ecd(verifier, block)
                head[:] = w
            u_cipher, y_c, u_c = link(k, ctx.encrypt(slots))
            z = ctx.decrypt(u_cipher)
            if verifier is None:
                u = z[: model.m].copy()  # not a view that keeps z alive
            else:
                outcome = verify.dcd(verifier, tag, z[: verifier.encoded_dim])
                if outcome.bottom:
                    u, verdict = np.zeros(model.m), "bottom"
                else:
                    u, verdict = outcome.payload[: model.m], "ok"
            if y_c is None:
                y_c, u_c = y, u

        trace.append(k, x, u, y, u_c, y_c, verdict)
        if verdict in ("bottom", "range"):
            break
        x = model.A @ x
        x += model.B @ u
    return trace
