"""Encrypted networked control loop simulator: a packed-HE backend,
diagonal-method encrypted linear algebra, covert man-in-the-middle attacks,
and a zero-communication-overhead verification scheme that detects them."""

from .backend import (
    BackendConfig,
    DepthExhausted,
    KeyContext,
    KeyMismatch,
    PackedCiphertext,
    context_create,
    hom_add,
    hom_mul,
    hom_neg,
    hom_sub,
    rotate,
)
from .control import (
    AffineController,
    LtiModel,
    SimTrace,
    quadruple_tank,
    run_closed_loop,
    tank_controller,
)
from .linalg import DiagMatrixCipher, enc_matmat, enc_matvec, encrypt_matrix
from .attack import AttackPlan, CovertAttacker, GuessingAttacker
from .verify import VerifierContext, dcd, ecd, p_succ_cumulative, p_succ_instant, setup
from .scenario import ConfigError, ScenarioConfig, run_scenario

__version__ = "0.1.0"
