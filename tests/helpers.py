"""Plaintext references the tests compare the encrypted linear algebra and
the verifier with: wrapping diagonals, matrix reassembly, the fused
product's slots and a tag's payload blocks. Also the step attack the tests
share, as a config section and as a plan, a stand-in socket that
records the reads a frame reader makes, a stand-in controller that answers
one measurement with the bytes it is given, and the harness that runs
``encloop`` role processes."""

import contextlib
import copy
import select
import socket
import subprocess
import sys

import numpy as np

from encloop.attack import AttackPlan
from encloop.backend import KeyContext, dot_noise_scale
from encloop.linalg import DiagMatrixCipher
from encloop.netloop import FrameReader, recv_frame
from encloop.verify import PermutationTag


# the step attack as a config section; ``step_plan()`` is its plan
STEP_ATTACK = {"a_u": {str(k): [2.0, 2.0] for k in range(5)},
               "length": 10, "cooldown_len": 4}


def step_plan() -> AttackPlan:
    """Input bias of [2, 2] on steps 0..4, zero at 5, cooldown 6..9."""
    return AttackPlan(schedule={k: np.array([2.0, 2.0]) for k in range(5)},
                      length=10, cooldown_len=4)


def wrapping_diagonal(S, i: int, dim: int | None = None) -> np.ndarray:
    """The i-th wrapping diagonal S[j, (i + j) mod dim] of S at logical
    dimension ``dim`` (default: S's row count), without materializing the
    padded matrix (S may be rectangular)."""
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


def decrypt_matrix(ctx: KeyContext, M: DiagMatrixCipher) -> np.ndarray:
    """Reassemble the plaintext matrix from decrypted diagonals."""
    d = M.dim
    S = np.zeros((d, d))
    j = np.arange(d)
    for i, c in M.diagonals.items():
        S[j, (i + j) % d] = ctx.decrypt(c)
    return S


def fused_reference(coeffs, shifts, b) -> np.ndarray:
    """The slots that the fused product sum_t a_t * rot_{s_t}(b) over the
    coefficient ciphertexts ``coeffs`` returns next: the noiseless composed
    product (each rotated b times its a_t, summed left to right), plus, on a
    noisy context, ``dot_noise_scale`` times the next standard-normal block
    of a clone of the a_t's context's generator. Reads the slots directly,
    so it counts no op and draws nothing."""
    coeffs = list(coeffs)
    out = None
    for a, s in zip(coeffs, shifts):
        term = a._slots * np.roll(b._slots, -s)
        out = term if out is None else out + term
    ctx = coeffs[0]._ctx
    if ctx.config.noise_std > 0:
        z = copy.deepcopy(ctx.rng).standard_normal(ctx.config.slot_count)
        out = out + dot_noise_scale(coeffs) * z
    return out


def payload_positions(tag: PermutationTag) -> set[int]:
    """The encoded blocks that carry a payload replica: those whose
    pre-shuffle block is one of the first lambda/2."""
    half = len(tag.perm) // 2
    return {j for j, b in enumerate(tag.perm) if b < half}


class QueuedSocket:
    """Stand-in socket whose ``recv_into`` hands out the queued bytes, at
    most ``chunk`` per call (default: as many as fit), and records the
    length of the buffer each call was given. Once the queue is empty it
    returns 0, as a closed peer does."""

    def __init__(self, data: bytes, chunk: int | None = None):
        self.data = memoryview(bytes(data))
        self.chunk = chunk
        self.reads = []  # the buffer length of each recv_into call

    @property
    def calls(self) -> int:
        return len(self.reads)

    def recv_into(self, buf) -> int:
        self.reads.append(len(buf))
        n = min(len(buf), len(self.data), self.chunk or len(buf))
        buf[:n] = self.data[:n]
        self.data = self.data[n:]
        return n


HOST = "127.0.0.1"
# seconds a role process may take to print its readiness line, and to end
# once ``finish`` awaits it
ROLE_TIMEOUT = 30


def free_port() -> int:
    """A port on HOST that was free when asked: the kernel's pick for port 0."""
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


@contextlib.contextmanager
def role_process(*args):
    """``encloop ARGS`` as a child process for the with block, its stdout and
    stderr piped as text. A process that the block has not ``finish``-ed is
    killed when the block is left, so none outlives it, pass or fail."""
    with subprocess.Popen([sys.executable, "-m", "encloop.cli", *args], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            yield proc
        finally:
            if proc.poll() is None:
                proc.kill()


@contextlib.contextmanager
def listening_role(role: str, *args):
    """``encloop net --role ROLE --listen HOST:PORT ARGS`` on a free port, as
    ``role_process``. The block starts once the role has printed its
    readiness line, and it gets the process and the port. A role that ends,
    or stays silent for ROLE_TIMEOUT, before that line fails the test."""
    port = free_port()
    with role_process("net", "--role", role, "--listen", f"{HOST}:{port}", *args) as proc:
        ready, _, _ = select.select([proc.stdout], [], [], ROLE_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        if line != f"listening on {HOST}:{port}\n":
            proc.kill()
            raise AssertionError(f"{role} did not listen on port {port}: "
                                 f"{line!r}, stderr {proc.communicate()[1]!r}")
        yield proc, port


def finish(proc: subprocess.Popen, code: int = 0) -> subprocess.CompletedProcess:
    """Await a ``role_process`` for at most ROLE_TIMEOUT and check its exit
    code. Returns its remaining output."""
    out, err = proc.communicate(timeout=ROLE_TIMEOUT)
    assert proc.returncode == code, f"{proc.args[3:]} exited {proc.returncode}: {err}"
    return subprocess.CompletedProcess(proc.args, code, out, err)


def reply_once(srv: socket.socket, reply: bytes) -> list[int]:
    """A stand-in controller on the listening socket ``srv``: it accepts one
    plant, reads its HELLO and its first measurement frame, sends the raw
    bytes ``reply`` and waits for the plant to hang up. Returns the types of
    the two frames it read."""
    conn, _ = srv.accept()
    with conn:
        conn.settimeout(ROLE_TIMEOUT)
        reader = FrameReader(conn)
        kinds = [recv_frame(reader)[0] for _ in range(2)]
        conn.sendall(reply)
        conn.recv(1)
    return kinds
