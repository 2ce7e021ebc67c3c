"""Role launcher: runs ``netloop.run_controller`` and ``netloop.run_attacker``
each in a fresh process, and one plant session against them from the
benchmark process.

Readiness comes from the roles' own ``ready`` argument, so there is no sleep
and no probe connection (the controller accepts exactly one connection). The
attacker starts only after the controller listens. A role that returns an
``"error"`` key, exits nonzero or sends no result fails the session.

Each role is this file run as a script in a fresh interpreter. It reports
over one inherited pipe: first ``READY``, then its result. (A
``multiprocessing`` spawn would also start a resource-tracker process that
outlives the benchmark.)
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection

import tracing

HOST = "127.0.0.1"
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
READY_TIMEOUT_S = 60.0
RESULT_TIMEOUT_S = 120.0
READY = "ready"


class RoleError(RuntimeError):
    pass


class ReadySignal:
    """The ``ready`` argument of a role: ``set()`` tells the parent that the
    role listens."""

    def __init__(self, conn):
        self._conn = conn

    def set(self):
        self._conn.send(READY)


def _free_ports(count: int) -> list[int]:
    socks = [socket.socket() for _ in range(count)]
    try:
        for s in socks:
            s.bind((HOST, 0))
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def role_main(role, listen, upstream, conn, traced):
    """Body of a role process. Sends ``READY`` once it listens, then the
    role's result, its HE op counts and (when traced) its spans, through
    ``conn``."""
    from encloop import netloop

    _exit_with_parent()
    counters = tracing.Counters()
    counters.install(frames=False)
    tracer = tracing.Tracer("netloop.recv_frame", tracing.MSG_ENC_Y)
    if traced:
        tracer.install()
    try:
        if role == "controller":
            result = netloop.run_controller(listen, ready=ReadySignal(conn))
        else:
            result = netloop.run_attacker(listen, upstream, ready=ReadySignal(conn))
    except Exception as exc:  # noqa: BLE001 - reported to the parent as a failed role
        result = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        tracer.uninstall()
    result["op_counts"] = counters.drain_ops()
    result["spans"] = tracer.spans
    conn.send(result)
    conn.close()


def _exit_with_parent():
    """End this role process if the benchmark that started it is gone (a
    role blocked in ``accept`` would otherwise wait forever)."""
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


class Role:
    """One role process; ``ready_s`` is the time from spawn to listening."""

    def __init__(self, role: str, listen, upstream, traced: bool):
        self.role = role
        read_fd, write_fd = os.pipe()
        self._conn = Connection(read_fd, writable=False)
        upstream = upstream or ("", 0)
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, __file__, _SRC, role, str(write_fd),
             str(int(traced)), listen[0], str(listen[1]), upstream[0], str(upstream[1])],
            pass_fds=(write_fd,), stdin=subprocess.DEVNULL)
        os.close(write_fd)
        try:
            first = self._conn.recv() if self._conn.poll(READY_TIMEOUT_S) else None
        except EOFError:  # the role died before it listened
            first = None
        self.ready_s = time.perf_counter() - start
        if first != READY:
            self.stop()
            detail = first.get("error", "") if isinstance(first, dict) else "no signal"
            raise RoleError(f"{role} did not start listening: {detail}")

    def result(self) -> dict:
        if not self._conn.poll(RESULT_TIMEOUT_S):
            raise RoleError(f"{self.role} sent no result")
        result = self._conn.recv()
        code = self.process.wait(RESULT_TIMEOUT_S)
        if code != 0:
            raise RoleError(f"{self.role} exited with code {code}")
        if "error" in result:
            raise RoleError(f"{self.role}: {result['error']}")
        return result

    def stop(self):
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._conn.close()


@dataclass
class Session:
    trace: object             # the plant's SimTrace
    ready_s: list[float]      # spawn to listening: controller, attacker
    first_reply_s: float      # run_plant start to the first control frame
    sent_at: list[float]      # when the plant sent each measurement frame
    controller: dict
    attacker: dict
    ops: dict[str, int]       # HE ops over the plant's and both roles' contexts
    frames: int               # ciphertext frames the plant sent and received
    frame_bytes: int

    @property
    def setup_s(self) -> float:
        """Everything before the first step completes: role spawn, HELLO,
        both sides' set-up and one round trip."""
        return sum(self.ready_s) + self.first_reply_s


def run_session(cfg, counters: tracing.Counters, traced: bool) -> Session:
    """Plant -> attacker proxy -> controller, one process per role."""
    from encloop import netloop

    ctrl_port, atk_port = _free_ports(2)
    roles: list[Role] = []
    try:
        roles.append(Role("controller", (HOST, ctrl_port), None, traced))
        roles.append(Role("attacker", (HOST, atk_port), (HOST, ctrl_port), traced))
        counters.drain_ops()
        counters.drain_frames()
        start = time.perf_counter()
        trace = netloop.run_plant((HOST, atk_port), cfg)
        ops = counters.drain_ops()
        frames, frame_bytes, sent_at, received_at = counters.drain_frames()
        controller, attacker = (role.result() for role in roles)
    finally:
        for role in roles:
            role.stop()
    for result in (controller, attacker):
        for op, n in result["op_counts"].items():
            ops[op] += n
    return Session(trace=trace, ready_s=[r.ready_s for r in roles],
                   first_reply_s=received_at[0] - start, sent_at=sent_at,
                   controller=controller, attacker=attacker, ops=ops,
                   frames=frames, frame_bytes=frame_bytes)


if __name__ == "__main__":
    src, role, fd, traced, host, port, up_host, up_port = sys.argv[1:]
    sys.path.insert(0, src)
    role_main(role, (host, int(port)), (up_host, int(up_port)) if up_host else None,
              Connection(int(fd), readable=False), traced == "1")
