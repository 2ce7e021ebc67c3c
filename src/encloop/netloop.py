"""Three-role networked deployment of the encrypted loop.

The plant (client) connects to its configured peer, which is either the
controller (server) directly or a man-in-the-middle attacker proxy that
terminates both connections and relays frames, tampering with the ciphertext
payloads in flight. The protocol is strictly lock-step: one measurement
frame out, one control frame back, per time step.

Each role is the in-process one behind a codec: the plant runs the shared
``control.run_closed_loop`` step over a TCP link (a frame exchange in place
of the in-process link), the controller answers each frame with
``control.controller_role``'s ``serve``, and the proxy's attacker comes from
``scenario.build_attacker``, as in ``run_scenario``. So a run over TCP
through the proxy is the in-process run, bit for bit, at any noise level.

Frame layout (little-endian): u32 payload length, u8 message type, payload.
A frame leaves in one ``sendmsg`` of header and payload (the rest goes by
``sendall`` only after a partial write). Each connection is read through
one ``FrameReader``, an ``io.BufferedReader`` with a ``READ_BUFFER``-byte
buffer over the socket's ``recv_into``: a small frame (a 64-slot
ciphertext, a short HELLO) costs one ``recv_into``, the bytes of a frame
read ahead (HELLO then ENC_Y, ABORT then BYE) wait for the next
``recv_frame``, and a long payload (a 2^16-slot ciphertext) is read
straight into its own bytes, so the buffer never grows. A receiver checks
the declared length against its limit before it reads the payload: the
controller and the proxy read the HELLO under ``HELLO_MAX_PAYLOAD`` and
every later frame under the size of one serialized ciphertext of the
configured slot count (``backend.ciphertext_blob_size``; ABORT and BYE
payloads are shorter); the plant reads under ``MAX_PAYLOAD``, the largest
legitimate frame. A bad peer ends every role the same way: the role raises.

This is a simulator: each role builds its party's key context
(``backend.PARTIES``) from the shared configuration. Only the plant's holds
the secret key; the controller and the attacker proxy encrypt and operate
on ciphertexts only.
"""

from __future__ import annotations

import io
import json
import socket
import struct

from . import control
from .backend import (MAX_SLOTS, check_ciphertext_blob, ciphertext_blob_size, context_create,
                      deserialize_ciphertext, serialize_ciphertext)
from .scenario import ConfigError, ScenarioConfig, build_attacker, build_verifier, exit_code

__all__ = [
    "MSG_ENC_Y", "MSG_ENC_U", "MSG_HELLO", "MSG_BYE", "MSG_ABORT",
    "FrameError", "FrameReader", "send_frame", "recv_frame",
    "run_plant", "run_controller", "run_attacker",
]

MSG_ENC_Y = 0x01
MSG_ENC_U = 0x02
MSG_HELLO = 0x03
MSG_BYE = 0x04
MSG_ABORT = 0x05
_VALID_TYPES = {MSG_ENC_Y, MSG_ENC_U, MSG_HELLO, MSG_BYE, MSG_ABORT}

HELLO_MAX_PAYLOAD = 2 ** 20  # a scenario configuration as JSON
# the largest legitimate frame: a HELLO, or one ciphertext of the most slots
MAX_PAYLOAD = max(HELLO_MAX_PAYLOAD, ciphertext_blob_size(MAX_SLOTS))


class FrameError(ValueError):
    pass


_HEADER = struct.Struct("<IB")
# a connection's read buffer: a 64-slot ciphertext frame (541 bytes) fits it,
# a 2^16-slot payload (512 KiB) is read straight into its own bytes
READ_BUFFER = 8192


class _SocketRaw(io.RawIOBase):
    """The unbuffered stream under a ``FrameReader``: its ``readinto`` is the
    socket's own ``recv_into``, so the buffered reader calls it in C."""

    def __init__(self, sock: socket.socket):
        self.readinto = sock.recv_into

    def readable(self) -> bool:
        return True


class FrameReader(io.BufferedReader):
    """The receive side of one connection: a ``READ_BUFFER``-byte buffered
    reader over the socket. A small frame costs one ``recv_into``, bytes read
    past a frame's end wait for the next ``recv_frame``, and a longer read
    goes straight into its own bytes, so the buffer never grows. Every read
    of the connection goes through its reader; closing it leaves the socket
    open."""

    def __init__(self, sock: socket.socket):
        super().__init__(_SocketRaw(sock), READ_BUFFER)


def send_frame(sock: socket.socket, msg_type: int, payload: bytes = b""):
    # one write per frame: a separate header write would stall small frames
    # behind Nagle's algorithm and the peer's delayed ACK. sendmsg gathers
    # header and payload without joining them into a copy.
    if msg_type not in _VALID_TYPES:
        raise FrameError(f"unknown message type {msg_type:#x}")
    size = len(payload)
    if size > MAX_PAYLOAD:
        raise FrameError("payload too large")
    header = _HEADER.pack(size, msg_type)
    sent = sock.sendmsg((header, payload))
    if sent < 5:  # a partial write: send the rest, the payload uncopied
        sock.sendall(header[sent:])
        sent = 5
    if sent < 5 + size:
        sock.sendall(memoryview(payload)[sent - 5:])


def recv_frame(reader: FrameReader, max_payload: int = MAX_PAYLOAD) -> tuple[int, bytes]:
    """Read one frame through the connection's reader: its type and its
    payload, an immutable ``bytes``. Raises FrameError on an unknown type or
    a declared length over ``max_payload``, before the payload is read, and
    ConnectionError if the peer hangs up mid-frame."""
    header = reader.read(5)
    if len(header) < 5:
        raise ConnectionError("peer closed the connection mid-frame")
    length, msg_type = _HEADER.unpack(header)
    if msg_type not in _VALID_TYPES:
        raise FrameError(f"unknown message type {msg_type:#x}")
    if length > max_payload:
        raise FrameError(f"declared payload of {length} bytes exceeds the limit "
                         f"of {max_payload}")
    payload = reader.read(length)
    if len(payload) < length:
        raise ConnectionError("peer closed the connection mid-frame")
    return msg_type, payload


def _accept_one(addr: tuple[str, int], ready) -> socket.socket:
    """Listen on ``addr``, signal ``ready`` and accept exactly one peer."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as srv:
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind(addr)
        srv.listen(1)
        if ready is not None:
            ready.set()
        return srv.accept()[0]


def _check_encrypted(cfg: ScenarioConfig):
    if cfg.mode != "encrypted":
        raise ConfigError("mode", f"the networked loop is encrypted, got {cfg.mode!r}")


def _recv_hello(reader: FrameReader) -> tuple[ScenarioConfig, bytes]:
    """The peer's first frame: HELLO carrying the plant's config document.
    A payload that is not JSON, or a document that the plant's own parse
    refuses (``ConfigError``), is the peer's fault: ``FrameError``."""
    msg_type, payload = recv_frame(reader, HELLO_MAX_PAYLOAD)
    if msg_type != MSG_HELLO:
        raise FrameError("expected HELLO as the first frame")
    try:
        cfg = ScenarioConfig.from_dict(json.loads(payload.decode()))
        _check_encrypted(cfg)
    except ValueError as exc:
        raise FrameError(f"refused HELLO: {exc}") from exc
    return cfg, payload


# -- roles ---------------------------------------------------------------------

def run_plant(connect: tuple[str, int], cfg: ScenarioConfig) -> control.SimTrace:
    """Plant client: runs the shared ``control.run_closed_loop`` step with a
    link that ships each encrypted measurement frame and waits for the
    control frame. A run that ends early (``scenario.exit_code``) announces
    its last step with ABORT before it says BYE. Refuses a plain ``cfg``."""
    _check_encrypted(cfg)
    ctx = context_create(cfg.backend)
    verifier = build_verifier(cfg)
    with socket.create_connection(connect) as sock:
        reader = FrameReader(sock)
        send_frame(sock, MSG_HELLO, json.dumps(cfg.document).encode())

        def exchange(k, y_cipher):
            send_frame(sock, MSG_ENC_Y, serialize_ciphertext(y_cipher))
            msg_type, payload = recv_frame(reader)
            if msg_type != MSG_ENC_U:
                raise FrameError(f"expected control frame, got type {msg_type:#x}")
            return deserialize_ciphertext(ctx, payload), None, None

        trace = control.run_closed_loop(cfg.model, cfg.controller, cfg.x0, cfg.steps,
                                        ctx=ctx, pre_roll=cfg.pre_roll,
                                        verifier=verifier, link=exchange)
        if exit_code(trace):  # not 0: the run ended early
            send_frame(sock, MSG_ABORT, json.dumps({"step": trace.k[-1]}).encode())
        send_frame(sock, MSG_BYE)
    return trace


def run_controller(listen: tuple[str, int], ready=None) -> dict:
    """Controller server: builds ``control.controller_role`` from the HELLO
    configuration, then answers one control frame per measurement frame
    with its ``serve``. Returns the role's view of the exchange, the inputs
    and outputs that ``serve``'s observer decrypts (a simulation privilege):
    none in ``verified_attack``, where the controller cannot tell the
    payload block from a challenge."""
    result = {"y_c": [], "u_c": [], "aborted": False}
    with _accept_one(listen, ready) as conn:
        reader = FrameReader(conn)
        cfg, _ = _recv_hello(reader)
        ctx, serve = control.controller_role(cfg.backend, cfg.controller,
                                             cfg.lifted_blocks)
        limit = ciphertext_blob_size(cfg.backend.slot_count)
        while True:
            msg_type, payload = recv_frame(reader, limit)
            if msg_type == MSG_BYE:
                break
            if msg_type == MSG_ABORT:
                result["aborted"] = True
                continue
            if msg_type != MSG_ENC_Y:
                raise FrameError(f"unexpected frame type {msg_type:#x}")
            u_cipher, y_c, u_c = serve(deserialize_ciphertext(ctx, payload))
            if y_c is not None:
                result["y_c"].append(y_c)
                result["u_c"].append(u_c)
            send_frame(conn, MSG_ENC_U, serialize_ciphertext(u_cipher))
    return result


def _relay_payload(pub, payload, tamper, k: int):
    """The payload to forward for one relayed ciphertext frame, and whether
    ``tamper`` changed it. ``tamper`` is ``None`` on a step the attacker
    leaves alone: the frame's header is checked (length, slot count and key
    tag) and the frame goes on as received. Otherwise the frame is
    deserialized for the hook; a ciphertext the hook returns untouched goes
    on as the bytes received, and only a tampered one is serialized."""
    if tamper is None:
        check_ciphertext_blob(pub, payload)
        return payload, False
    c = deserialize_ciphertext(pub, payload)
    tampered = tamper(k, c)
    if tampered is c:
        return payload, False
    return serialize_ciphertext(tampered), True


def run_attacker(listen: tuple[str, int], upstream: tuple[str, int],
                 ready=None) -> dict:
    """Attacker proxy: terminates the plant connection, relays to the
    controller, and tampers with ciphertext frames per the attack plan found
    in the relayed HELLO. Only the public capability (encrypt, homomorphic
    add) touches the payloads."""
    stats = {"relayed": 0, "tampered": 0}
    with (_accept_one(listen, ready) as plant_conn,
          socket.create_connection(upstream) as up):
        plant_reader, up_reader = FrameReader(plant_conn), FrameReader(up)
        cfg, payload = _recv_hello(plant_reader)
        pub = context_create(cfg.backend, "attacker")
        attacker = build_attacker(cfg, pub)
        send_frame(up, MSG_HELLO, payload)

        limit = ciphertext_blob_size(cfg.backend.slot_count)
        k = -cfg.pre_roll
        while True:
            msg_type, payload = recv_frame(plant_reader, limit)
            if msg_type in (MSG_BYE, MSG_ABORT):
                send_frame(up, msg_type, payload)
                if msg_type == MSG_BYE:
                    break
                continue
            if msg_type != MSG_ENC_Y:
                raise FrameError(f"unexpected frame type {msg_type:#x}")
            # outside the attack window the hooks are the identity
            active = attacker is not None and attacker.active_at(k)
            tamper_y = attacker.tamper_measurement if active else None
            tamper_u = attacker.tamper_control if active else None
            payload, modified_y = _relay_payload(pub, payload, tamper_y, k)
            send_frame(up, MSG_ENC_Y, payload)
            msg_type, payload = recv_frame(up_reader, limit)
            if msg_type != MSG_ENC_U:
                raise FrameError(f"unexpected upstream frame {msg_type:#x}")
            payload, modified_u = _relay_payload(pub, payload, tamper_u, k)
            send_frame(plant_conn, MSG_ENC_U, payload)
            stats["relayed"] += 1
            # a step counts once, whichever direction was modified
            stats["tampered"] += modified_y or modified_u
            k += 1
    return stats
