import contextlib
import itertools
import json
import socket
import struct
import threading
import time
from typing import NamedTuple

import numpy as np
import pytest

from encloop import control, netloop
from encloop.backend import (
    MAX_SLOTS,
    BackendConfig,
    DepthExhausted,
    KeyMismatch,
    ciphertext_blob_size,
    context_create,
    deserialize_ciphertext,
    serialize_ciphertext,
)
from encloop.netloop import (
    HELLO_MAX_PAYLOAD,
    MAX_PAYLOAD,
    MSG_ABORT,
    MSG_BYE,
    MSG_ENC_U,
    MSG_ENC_Y,
    MSG_HELLO,
    READ_BUFFER,
    FrameError,
    FrameReader,
    recv_frame,
    run_attacker,
    run_controller,
    run_plant,
    send_frame,
)
from encloop.scenario import (EXIT_VERIFICATION, ConfigError, ScenarioConfig, exit_code,
                              run_scenario)
from helpers import HOST, STEP_ATTACK, QueuedSocket, free_port, reply_once


def raw_frame(msg_type, payload=b""):
    """One frame as it goes on the wire: u32 length, u8 type, payload."""
    return struct.pack("<IB", len(payload), msg_type) + payload


def baseline_cfg(steps=20, pre_roll=5, **extra):
    raw = {"scenario": "baseline", "mode": "encrypted", "steps": steps,
           "pre_roll": pre_roll, "backend": {"slot_count": 64, "max_depth": 16},
           "seed": 42}
    raw.update(extra)
    return ScenarioConfig.from_dict(raw)


class CappedSendSocket:
    """Stand-in socket whose sendmsg accepts at most ``cap`` bytes per call,
    as a send interrupted after a partial write would; ``sendall`` loops
    over it, as the socket's own does over its capped sends."""

    def __init__(self, cap):
        self.cap = cap
        self.calls = 0
        self.data = bytearray()

    def sendmsg(self, buffers):
        self.calls += 1
        sent = b"".join(bytes(b) for b in buffers)[: self.cap]
        self.data += sent
        return len(sent)

    def sendall(self, data):
        view = memoryview(data)
        while view:
            view = view[self.sendmsg((view,)):]


def start_thread(fn, *args, **kwargs):
    """Run ``fn`` in a daemon thread; its return value lands in
    ``box["result"]``, an exception it raises in ``box["raised"]``."""
    box = {}

    def runner():
        try:
            box["result"] = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - handed to the test
            box["raised"] = exc

    t = threading.Thread(target=runner, daemon=True)
    t.start()
    return t, box


def joined(t, box):
    """What the thread of ``start_thread`` returned, once it has ended
    within 10 s; what it raised is raised here."""
    t.join(10)
    assert not t.is_alive(), "the role did not finish within 10 s"
    if "raised" in box:
        raise box["raised"]
    return box["result"]


def enc_frame(config):
    """One ENC_Y frame carrying a ciphertext under the key of ``config``, a
    ``BackendConfig``."""
    n = config.slot_count
    c = context_create(config).encrypt(np.random.default_rng(1).uniform(-1, 1, n))
    return raw_frame(MSG_ENC_Y, bytes(serialize_ciphertext(c)))


BACKEND_64 = BackendConfig(slot_count=64)


@pytest.fixture
def read_spy(monkeypatch):
    """Records ``(reader, size)`` for every ``FrameReader.read``."""
    calls = []
    read = FrameReader.read

    def spy(reader, size=-1):
        calls.append((reader, size))
        return read(reader, size)

    monkeypatch.setattr(FrameReader, "read", spy)
    return calls


class TestFraming:
    def test_round_trip(self):
        sock = CappedSendSocket(1 << 20)
        send_frame(sock, MSG_ENC_Y, b"payload")
        assert sock.data == raw_frame(MSG_ENC_Y, b"payload")
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(raw_frame(MSG_ENC_Y, b"payload"))
            assert recv_frame(FrameReader(b)) == (MSG_ENC_Y, b"payload")

    def test_empty_payload(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            send_frame(a, MSG_BYE)
            assert recv_frame(FrameReader(b)) == (MSG_BYE, b"")

    def test_layout_is_little_endian(self):
        sock = CappedSendSocket(1 << 20)
        send_frame(sock, MSG_HELLO, b"ab")
        assert sock.data[:4] == (2).to_bytes(4, "little")
        assert sock.data[4] == MSG_HELLO

    def test_unknown_type_rejected(self):
        sock = CappedSendSocket(1 << 20)
        with pytest.raises(FrameError, match="unknown message type"):
            send_frame(sock, 0x7F, b"")
        assert sock.calls == 0
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(bytes([0, 0, 0, 0, 0x7F]))
            with pytest.raises(FrameError, match="unknown message type"):
                recv_frame(FrameReader(b))

    def test_oversized_payload_not_sent(self):
        sock = CappedSendSocket(1 << 21)
        with pytest.raises(FrameError, match="payload too large"):
            send_frame(sock, MSG_ENC_Y, bytes(MAX_PAYLOAD + 1))
        assert sock.calls == 0

    def test_truncation_rejected(self):
        # one byte short of the header, one byte short of the payload
        for cut in (4, 7):
            a, b = socket.socketpair()
            with b:
                with a:
                    a.sendall(raw_frame(MSG_ENC_U, b"xyz")[:cut])
                with pytest.raises(ConnectionError):
                    recv_frame(FrameReader(b))

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            send_frame(a, MSG_ENC_Y, b"\x00" * 100)
            assert recv_frame(FrameReader(b)) == (MSG_ENC_Y, b"\x00" * 100)

    def test_back_to_back_frames(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            send_frame(a, MSG_HELLO, b"one")
            send_frame(a, MSG_ENC_Y, b"two")
            reader = FrameReader(b)
            assert recv_frame(reader) == (MSG_HELLO, b"one")
            assert recv_frame(reader) == (MSG_ENC_Y, b"two")

    @pytest.mark.parametrize("first, second", [
        ((MSG_HELLO, b'{"scenario": "baseline"}'), (MSG_ENC_Y, bytes(range(200)))),
        ((MSG_ABORT, b'{"step": 3}'), (MSG_BYE, b""))])
    def test_coalesced_frames_come_back_as_two(self, first, second):
        """Two frames that arrive in one read (the proxy's HELLO then ENC_Y,
        the plant's ABORT then BYE) come back one per ``recv_frame``."""
        sock = QueuedSocket(raw_frame(*first) + raw_frame(*second))
        reader = FrameReader(sock)
        assert recv_frame(reader) == first
        assert recv_frame(reader) == second
        assert sock.calls == 1

    def test_small_frame_costs_one_read(self):
        """A queued 64-slot ciphertext frame (541 bytes) is read whole with
        one ``recv_into``."""
        frame = enc_frame(BACKEND_64)
        assert len(frame) == 541
        sock = QueuedSocket(frame)
        assert recv_frame(FrameReader(sock)) == (MSG_ENC_Y, frame[5:])
        assert sock.calls == 1

    @pytest.mark.parametrize("chunk", [None, 1, 541, 4099])
    def test_frames_across_the_buffer_end(self, chunk):
        """Frames of every size class, back to back, with headers and
        payloads that straddle the end of the reader's buffer: each comes
        back whole and in order. A read asks for more than ``READ_BUFFER``
        bytes only while a longer payload is read, and never for more than
        that payload, so the buffer never grows."""
        lengths = [536] * 20 + [0, READ_BUFFER, 3, READ_BUFFER + 1, 536, 2 * READ_BUFFER, 7]
        payloads = [bytes([i % 251]) * n for i, n in enumerate(lengths)]
        sock = QueuedSocket(b"".join(raw_frame(MSG_ENC_Y, p) for p in payloads), chunk)
        reader = FrameReader(sock)
        for payload in payloads:
            before = sock.calls
            assert recv_frame(reader) == (MSG_ENC_Y, payload)
            assert max(sock.reads[before:], default=0) <= max(len(payload), READ_BUFFER)

    @pytest.mark.parametrize("slot_count, chunk", [(8, 1), (2 ** 16, 7919)])
    def test_reassembles_chunked_frame(self, slot_count, chunk):
        blob = enc_frame(BackendConfig(slot_count=slot_count))
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)

            def trickle():
                for i in range(0, len(blob), chunk):
                    a.sendall(blob[i:i + chunk])
                    time.sleep(0.0005)

            t = threading.Thread(target=trickle, daemon=True)
            t.start()
            msg_type, got = recv_frame(FrameReader(b))
            t.join(10)
            assert not t.is_alive()
        assert msg_type == MSG_ENC_Y
        assert got == blob[5:]

    def test_buffer_does_not_grow_after_a_wide_frame(self):
        """A 2^16-slot payload (512 KiB) is read straight into its own bytes,
        between two reads of the reader's buffer; the buffer keeps its size,
        so the next 64-slot frame costs one read of ``READ_BUFFER`` bytes."""
        wide, small = enc_frame(BackendConfig(slot_count=2 ** 16)), enc_frame(BACKEND_64)
        sock = QueuedSocket(wide)
        reader = FrameReader(sock)
        assert recv_frame(reader) == (MSG_ENC_Y, wide[5:])
        # the payload less the buffered part, in whole buffers, goes straight in
        assert sock.reads == [READ_BUFFER, 516096, READ_BUFFER]
        sock.data = memoryview(small)  # the next frame arrives
        assert recv_frame(reader) == (MSG_ENC_Y, small[5:])
        assert sock.reads[3:] == [READ_BUFFER]

    def test_payload_is_unchanged_by_the_next_read(self):
        """The next frame, read into the same buffer bytes, leaves the
        payload returned before it as it was."""
        first, second = bytes(range(100)), bytes(100)
        reader = FrameReader(QueuedSocket(raw_frame(MSG_ENC_Y, first)
                                          + raw_frame(MSG_ENC_U, second), chunk=105))
        _, payload = recv_frame(reader)
        recv_frame(reader)
        assert payload == first

    @pytest.mark.parametrize("cap", [1, 3, 5, 6, 100])
    def test_send_resumes_after_partial_writes(self, cap):
        """After the first write, the header's tail and then the payload's
        go in writes of at most ``cap`` bytes each."""
        payload = bytes(range(256))
        sock = CappedSendSocket(cap)
        send_frame(sock, MSG_ENC_Y, payload)
        assert sock.data == raw_frame(MSG_ENC_Y, payload)
        header_rest, payload_rest = max(0, 5 - cap), len(payload) - max(0, cap - 5)
        assert sock.calls == 1 + -(-header_rest // cap) + -(-payload_rest // cap)

    @pytest.mark.parametrize("payload", [b"", b"abc", bytes(2 ** 16)])
    def test_frame_leaves_in_one_write(self, payload):
        sock = CappedSendSocket(1 << 20)
        send_frame(sock, MSG_HELLO, payload)
        assert sock.data == raw_frame(MSG_HELLO, payload)
        assert sock.calls == 1

    @pytest.mark.parametrize("cut", [3, 50])
    def test_peer_closes_mid_frame(self, cut):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(raw_frame(MSG_ENC_Y, b"\x00" * 100)[:cut])
            with pytest.raises(ConnectionError):
                recv_frame(FrameReader(b))

    def test_huge_declared_length_rejected(self, read_spy):
        """Under the default limit, the largest legitimate frame (a HELLO, or
        one ciphertext of ``MAX_SLOTS`` slots: 1 MiB), a 2^31 or 2^32 - 1
        length is refused from the header alone, before the payload is read
        (the guard keeps a regression from allocating 2 or 4 GiB)."""
        assert MAX_PAYLOAD == max(HELLO_MAX_PAYLOAD, ciphertext_blob_size(MAX_SLOTS)) == 2 ** 20
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            reader = FrameReader(b)
            for length in (2 ** 31, 2 ** 32 - 1):
                a.sendall(struct.pack("<IB", length, MSG_ENC_Y))
                with pytest.raises(FrameError, match="exceeds the limit"):
                    recv_frame(reader)
        assert read_spy == [(reader, 5)] * 2

    def test_enc_frame_over_one_ciphertext_rejected(self):
        n = 64
        limit = 24 + 8 * n
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            reader = FrameReader(b)
            a.sendall(raw_frame(MSG_ENC_Y, b"\x00" * limit))
            assert len(recv_frame(reader, limit)[1]) == limit
            a.sendall(struct.pack("<IB", limit + 8, MSG_ENC_Y))
            with pytest.raises(FrameError, match="exceeds the limit"):
                recv_frame(reader, limit)


def run_pipeline(cfg, with_attacker=False):
    """Spin up controller (and optionally attacker proxy), run the plant in
    a thread of its own with a bounded join, so that a lost frame fails the
    test instead of hanging it; what a role raises is raised here."""
    ctrl_port = free_port()
    ctrl_ready = threading.Event()
    ctrl_t, ctrl_box = start_thread(run_controller, (HOST, ctrl_port),
                                    ready=ctrl_ready)
    assert ctrl_ready.wait(5)
    target = (HOST, ctrl_port)
    atk_t = None
    if with_attacker:
        atk_port = free_port()
        atk_ready = threading.Event()
        atk_t, atk_box = start_thread(run_attacker, (HOST, atk_port),
                                      (HOST, ctrl_port), ready=atk_ready)
        assert atk_ready.wait(5)
        target = (HOST, atk_port)
    trace = joined(*start_thread(run_plant, target, cfg))
    ctrl_result = joined(ctrl_t, ctrl_box)
    return trace, ctrl_result, None if atk_t is None else joined(atk_t, atk_box)


KINDS = ("baseline", "attack_plain", "attack_encrypted", "verified_attack")


def matched_cfg(kind, noise_std):
    """A 30 + 10 step run of ``kind`` at ``noise_std``, with the step attack."""
    extra = {"backend": {"slot_count": 64, "max_depth": 16, "noise_std": noise_std}}
    if kind != "baseline":
        extra["attack"] = STEP_ATTACK
    if kind == "verified_attack":
        extra["verify"] = {"expansion": 4, "num_challenges": 8}
    return baseline_cfg(steps=30, pre_roll=10, scenario=kind, **extra)


class TestPlantControllerLoop:
    # the noiseless cases keep the kind alone as their id
    @pytest.mark.parametrize("kind, noise_std", [
        pytest.param(kind, noise, id=kind if noise == 0 else f"{kind}-noise{noise:g}")
        for noise in (0.0, 1e-6) for kind in KINDS])
    def test_matches_in_process(self, kind, noise_std):
        """The plant's loop over TCP through the proxy is the in-process
        loop, bit for bit at any noise level, including the rejected step of
        a detected attack: every role draws its noise from its own context
        on both transports."""
        cfg = matched_cfg(kind, noise_std)
        trace, _, stats = run_pipeline(cfg, with_attacker=True)
        ref, code = run_scenario(cfg)
        assert code == (3 if kind == "verified_attack" else 0)
        assert len(trace) == len(ref) == stats["relayed"]
        assert trace.verdict == ref.verdict
        for fieldname in ("x", "u", "y"):
            assert np.array_equal(np.array(getattr(trace, fieldname)),
                                  np.array(getattr(ref, fieldname)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_role_counts_its_ops_on_both_transports(self, kind, contexts):
        """Each party's key context counts the same ops in-process as over
        TCP: the plant's, the controller's, the attacker's and, next to an
        unverified controller, the observer's, which decrypts the
        controller's view twice a step and does nothing else. A context that
        counts no op (a baseline proxy's) is left out. On both transports the
        plant and the observer are the only holders of the secret key."""
        observer = set() if kind == "verified_attack" else {"observer"}

        def by_party():
            assert sorted(c.party for c in contexts if c.has_secret_key) == sorted(
                {"plant", *observer})
            parties = {}
            for c in contexts:
                party = parties.setdefault(c.party, dict.fromkeys(c.op_counts, 0))
                for op, n in c.op_counts.items():
                    party[op] += n
            contexts.clear()
            return {party: ops for party, ops in parties.items() if any(ops.values())}

        cfg = matched_cfg(kind, 1e-6)
        run_pipeline(cfg, with_attacker=True)
        tcp = by_party()
        trace, _ = run_scenario(cfg)
        in_process = by_party()
        assert in_process == tcp
        attacker = set() if kind == "baseline" else {"attacker"}
        assert set(in_process) == {"plant", "controller", *observer, *attacker}
        assert in_process["plant"]["enc"] == in_process["plant"]["dec"] == len(trace)
        if observer:
            assert in_process["observer"] == {"add": 0, "mul": 0, "rot": 0, "enc": 0,
                                              "dec": 2 * len(trace)}

    def test_controller_records_its_view(self):
        cfg = baseline_cfg(steps=10, pre_roll=0)
        trace, ctrl_result, _ = run_pipeline(cfg)
        assert len(ctrl_result["y_c"]) == 10
        assert np.max(np.abs(np.array(ctrl_result["y_c"])
                             - np.array(trace.y_c))) < 1e-8
        assert np.max(np.abs(np.array(ctrl_result["u_c"])
                             - np.array(trace.u_c))) < 1e-8

    def test_controller_view_empty_when_verified(self):
        # the controller cannot tell the payload block from a challenge
        cfg = baseline_cfg(steps=10, pre_roll=0, scenario="verified_attack",
                           attack=STEP_ATTACK, verify={"expansion": 4,
                                                       "num_challenges": 8})
        trace, ctrl_result, _ = run_pipeline(cfg)
        assert trace.verdict == ["ok"] * 10
        assert ctrl_result["y_c"] == [] and ctrl_result["u_c"] == []

    def test_roles_draw_their_own_noise(self, monkeypatch):
        """The plant, the controller and its observer hold one key and one
        seed but draw from different streams: no draw of one appears among
        another's, at any lag."""
        states = {}
        real = netloop.context_create

        def recording(config, party="plant"):
            ctx = real(config, party)
            states[party] = ctx.rng.bit_generator.state
            return ctx

        monkeypatch.setattr(netloop, "context_create", recording)
        monkeypatch.setattr(control, "context_create", recording)
        cfg = baseline_cfg(steps=5, pre_roll=0, seed=7,
                           backend={"slot_count": 64, "noise_std": 1e-6})
        trace, _, _ = run_pipeline(cfg)
        assert len(trace) == 5
        assert set(states) == {"plant", "controller", "observer"}
        draws = []
        for state in states.values():
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            draws.append(rng.standard_normal(64 * 20))
        for a, b in itertools.combinations(draws, 2):
            assert np.intersect1d(a, b).size == 0

    def test_every_party_draws_its_own_stream(self, monkeypatch):
        """A noisy verified run under attack builds five generators, in
        process as over TCP through the proxy: the plant's, the
        controller's and the attacker's noise, the verifier's draws and the
        attacker's guesses. They start from five different states, the same
        five on both transports."""
        real = np.random.default_rng
        starts = []

        def recording(seed=None):
            rng = real(seed)
            if rng is not seed:  # a generator given to default_rng is returned as it is
                state = rng.bit_generator.state["state"]
                starts.append((state["state"], state["inc"]))
            return rng

        monkeypatch.setattr(np.random, "default_rng", recording)
        cfg = matched_cfg("verified_attack", 1e-6)
        trace, _, stats = run_pipeline(cfg, with_attacker=True)
        assert exit_code(trace) == EXIT_VERIFICATION and stats["tampered"] > 0
        tcp = sorted(starts)
        starts.clear()
        assert run_scenario(cfg)[1] == 3
        assert len(set(starts)) == len(starts) == 5
        assert sorted(starts) == tcp

    @pytest.mark.parametrize("tcp", [False, True], ids=["in_process", "tcp"])
    def test_controller_context_cannot_decrypt(self, tcp, contexts):
        """The controller computes on ciphertexts alone: a run that records
        its view completes, and a decrypt on its context names the holder
        that lacks the secret key."""
        cfg = baseline_cfg(steps=5, pre_roll=0)
        trace = run_pipeline(cfg)[0] if tcp else run_scenario(cfg)[0]
        assert len(trace) == 5
        [ctrl] = [c for c in contexts if c.party == "controller"]
        with pytest.raises(KeyMismatch, match="the controller's context holds no secret key"):
            ctrl.decrypt(ctrl.encrypt(np.zeros(64)))

    def test_controller_survives_garbage(self):
        port = free_port()
        ready = threading.Event()
        t, box = start_thread(run_controller, (HOST, port), ready=ready)
        assert ready.wait(5)
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_HELLO, b"this is not json"))
        with pytest.raises(FrameError, match="refused HELLO"):
            joined(t, box)

    def test_controller_rejects_wrong_first_frame(self):
        port = free_port()
        ready = threading.Event()
        t, box = start_thread(run_controller, (HOST, port), ready=ready)
        assert ready.wait(5)
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_ENC_Y, b"\x00" * 8))
        with pytest.raises(FrameError, match="expected HELLO"):
            joined(t, box)


def start_role(fn, *args):
    port = free_port()
    ready = threading.Event()
    t, box = start_thread(fn, (HOST, port), *args, ready=ready)
    assert ready.wait(5)
    return port, t, box


class TestRoleFrameLimits:
    @pytest.mark.parametrize("frame", ["hello", "enc"])
    @pytest.mark.parametrize("role", ["controller", "attacker"])
    def test_over_limit_length_rejected(self, role, frame):
        """The controller and the proxy check a declared length before they
        allocate: the HELLO against HELLO_MAX_PAYLOAD, later frames against
        one ciphertext of the configured slot count."""
        ctrl_port, ctrl_t, ctrl_box = start_role(run_controller)
        port, t, box = ((ctrl_port, ctrl_t, ctrl_box) if role == "controller"
                        else start_role(run_attacker, (HOST, ctrl_port)))
        if frame == "hello":
            data = struct.pack("<IB", HELLO_MAX_PAYLOAD + 1, MSG_HELLO)
        else:
            hello = json.dumps(baseline_cfg().document).encode()
            data = (raw_frame(MSG_HELLO, hello)
                    + struct.pack("<IB", 24 + 8 * 64 + 1, MSG_ENC_Y))
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(data)
            with pytest.raises(FrameError, match="exceeds the limit"):
                joined(t, box)
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()

    def test_plant_rejects_wrong_reply_frame(self):
        """A controller that answers a measurement with a frame other than
        ENC_U ends the plant's run with a ``FrameError``."""
        with socket.create_server((HOST, 0)) as srv:
            t, box = start_thread(reply_once, srv, raw_frame(MSG_BYE))
            with pytest.raises(FrameError, match="expected control frame"):
                run_plant(srv.getsockname(), baseline_cfg())
            t.join(10)
        assert not t.is_alive()
        assert box["result"] == [MSG_HELLO, MSG_ENC_Y]

    def test_proxy_rejects_wrong_first_frame(self):
        """A plant that opens with ENC_Y instead of HELLO ends the proxy with
        a ``FrameError``, and the proxy forwards nothing upstream."""
        with socket.create_server((HOST, 0)) as upstream:
            port, t, box = start_role(run_attacker, upstream.getsockname())
            with socket.create_connection((HOST, port)) as sock:
                sock.sendall(enc_frame(BACKEND_64))
                with pytest.raises(FrameError, match="expected HELLO"):
                    joined(t, box)
            conn, _ = upstream.accept()
            with conn:
                conn.settimeout(10)
                assert conn.recv(1) == b""  # closed, having sent nothing

    def test_plant_refuses_oversized_control_frame(self, read_spy):
        """The plant reads its control frames under the default limit: a
        controller that answers with a 2^31-byte ENC_U header ends the run
        with a ``FrameError``, and the plant requests no payload read: its
        one read is the header's."""
        readers = []
        with socket.create_server((HOST, 0)) as srv:
            def controller():
                conn, _ = srv.accept()
                with conn:
                    conn.settimeout(10)
                    reader = FrameReader(conn)
                    readers.append(reader)
                    kinds = [recv_frame(reader)[0] for _ in range(2)]
                    conn.sendall(struct.pack("<IB", 2 ** 31, MSG_ENC_U))
                    conn.recv(1)  # until the plant hangs up
                return kinds

            t, box = start_thread(controller)
            with pytest.raises(FrameError, match="exceeds the limit"):
                run_plant(srv.getsockname(), baseline_cfg())
            t.join(10)
        assert not t.is_alive()
        assert box["result"] == [MSG_HELLO, MSG_ENC_Y]
        assert [size for reader, size in read_spy if reader not in readers] == [5]


class TestPlainModeRefused:
    """The networked loop is the encrypted one: a plain-mode config is
    refused by the plant before it connects and by a peer in the HELLO."""

    def test_plant_refuses_before_connecting(self):
        cfg = baseline_cfg(mode="plain")
        with pytest.raises(ConfigError) as exc:
            run_plant((HOST, free_port()), cfg)
        assert exc.value.name == "mode"

    @pytest.mark.parametrize("role", ["controller", "attacker"])
    def test_peer_refuses_plain_hello(self, role):
        ctrl_port, ctrl_t, ctrl_box = start_role(run_controller)
        port, t, box = ((ctrl_port, ctrl_t, ctrl_box) if role == "controller"
                        else start_role(run_attacker, (HOST, ctrl_port)))
        hello = json.dumps(baseline_cfg(mode="plain").document).encode()
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_HELLO, hello) + raw_frame(MSG_BYE))
            with pytest.raises(FrameError, match="mode: the networked loop is encrypted"):
                joined(t, box)
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()
        # the proxy forwards nothing: its controller sees the connection close
        assert role == "controller" or isinstance(ctrl_box["raised"], ConnectionError)

    @pytest.mark.parametrize("role", ["controller", "attacker"])
    def test_peer_refuses_negative_seed_hello(self, role):
        """A peer parses the HELLO with the plant's rules: a negative seed
        is a named config error, not numpy's bare one."""
        ctrl_port, ctrl_t, ctrl_box = start_role(run_controller)
        port, t, box = ((ctrl_port, ctrl_t, ctrl_box) if role == "controller"
                        else start_role(run_attacker, (HOST, ctrl_port)))
        hello = json.dumps(dict(baseline_cfg().document, seed=-1)).encode()
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_HELLO, hello) + raw_frame(MSG_BYE))
            with pytest.raises(FrameError, match="seed: seed must be non-negative, got -1"):
                joined(t, box)
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()


NOISY_BACKEND = {"slot_count": 64, "max_depth": 16, "noise_std": 1e-6}


class Peer(NamedTuple):
    """A connection the test drives by hand: the socket and its reader."""
    sock: socket.socket
    reader: FrameReader


@contextlib.contextmanager
def proxy_between(cfg):
    """``run_attacker`` between a plant socket and a controller socket that
    the test drives by hand, once the HELLO has gone through. Yields
    ``(plant, ctrl, join)``: the two ``Peer``s, each socket with its reader,
    and ``join()``, which waits for the proxy and returns its stats, or
    raises what it raised."""
    with socket.create_server((HOST, 0)) as srv:
        port, t, box = start_role(run_attacker, (HOST, srv.getsockname()[1]))

        def join():
            return joined(t, box)

        with socket.create_connection((HOST, port), timeout=10) as plant:
            ctrl, _ = srv.accept()
            with ctrl:
                ctrl.settimeout(10)
                plant, ctrl = Peer(plant, FrameReader(plant)), Peer(ctrl, FrameReader(ctrl))
                hello = json.dumps(cfg.document).encode()
                send_frame(plant.sock, MSG_HELLO, hello)
                assert recv_frame(ctrl.reader) == (MSG_HELLO, hello)
                yield plant, ctrl, join
        t.join(10)
        assert not t.is_alive()


def relay_steps(plant, ctrl, ctx, steps, seed=0):
    """Send ``steps`` ENC_Y frames as the plant and answer each with an ENC_U
    frame as the controller (both ``Peer``s). Returns the blobs sent and the
    payloads the proxy forwarded, as (sent_y, sent_u, fwd_y, fwd_u)."""
    rng = np.random.default_rng(seed)
    n = ctx.config.slot_count
    sent_y, sent_u, fwd_y, fwd_u = [], [], [], []
    for _ in range(steps):
        sent_y.append(bytes(serialize_ciphertext(ctx.encrypt(rng.normal(size=n)))))
        send_frame(plant.sock, MSG_ENC_Y, sent_y[-1])
        msg_type, payload = recv_frame(ctrl.reader)
        assert msg_type == MSG_ENC_Y
        fwd_y.append(bytes(payload))
        sent_u.append(bytes(serialize_ciphertext(ctx.encrypt(rng.normal(size=n)))))
        send_frame(ctrl.sock, MSG_ENC_U, sent_u[-1])
        msg_type, payload = recv_frame(plant.reader)
        assert msg_type == MSG_ENC_U
        fwd_u.append(bytes(payload))
    send_frame(plant.sock, MSG_BYE)
    assert recv_frame(ctrl.reader)[0] == MSG_BYE
    return sent_y, sent_u, fwd_y, fwd_u


@pytest.fixture
def serialize_spy(monkeypatch):
    """Records every ciphertext the proxy serializes, and the blob."""
    calls = []

    def spy(c):
        blob = serialize_ciphertext(c)
        calls.append(bytes(blob))
        return blob

    monkeypatch.setattr(netloop, "serialize_ciphertext", spy)
    return calls


class TestAttackerProxy:
    def test_transparent_relay_without_plan(self):
        cfg = baseline_cfg(steps=15, pre_roll=5)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert stats["relayed"] == 20
        assert stats["tampered"] == 0
        ref, _ = run_scenario(cfg)
        assert np.max(np.abs(np.array(trace.x) - np.array(ref.x))) < 1e-8

    def test_covert_attack_over_the_wire(self):
        cfg = baseline_cfg(steps=30, pre_roll=10, scenario="attack_plain",
                           attack=STEP_ATTACK)
        baseline = baseline_cfg(steps=30, pre_roll=10)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        ref_trace, ctrl_ref, _ = run_pipeline(baseline)
        assert stats["tampered"] > 0
        # the controller's decrypted view is indistinguishable from no attack
        assert np.max(np.abs(np.array(ctrl_result["y_c"])
                             - np.array(ctrl_ref["y_c"]))) < 1e-6
        assert np.max(np.abs(np.array(ctrl_result["u_c"])
                             - np.array(ctrl_ref["u_c"]))) < 1e-6
        # while the plant physically deviates during the attack window
        assert np.max(np.abs(np.array(trace.x) - np.array(ref_trace.x))) > 0.1

    def test_encrypted_model_attack_over_the_wire(self):
        cfg = baseline_cfg(steps=15, pre_roll=5, scenario="attack_encrypted",
                           attack=STEP_ATTACK)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        ref, _ = run_scenario(cfg)
        assert stats["tampered"] > 0
        assert np.max(np.abs(np.array(trace.x) - np.array(ref.x))) < 1e-6

    def test_forged_trailer_trips_over_the_wire(self, monkeypatch, trailer_forger):
        """The proxy shifts the control ciphertext by 1.0 and declares a
        huge noise bound in its trailer: the plant rejects the first
        tampered step and sends ABORT."""
        monkeypatch.setattr(netloop, "build_attacker", lambda cfg, pub: trailer_forger(pub))
        cfg = baseline_cfg(steps=30, pre_roll=5, scenario="verified_attack",
                           attack=STEP_ATTACK, verify={"expansion": 4, "num_challenges": 8})
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert trace.verdict == ["ok"] * 5 + ["bottom"]
        assert stats["tampered"] == 1
        assert ctrl_result["aborted"] is True

    def test_honest_noisy_verified_loop_over_the_wire(self):
        """Through the proxy with no attack, at noise_std 1e-2, the plant's
        own threshold accepts every step: it reads nothing off the wire."""
        cfg = baseline_cfg(steps=30, pre_roll=10, scenario="verified_attack",
                           attack={"a_u": {}, "length": 10}, verify={"expansion": 4},
                           backend={"slot_count": 64, "max_depth": 16, "noise_std": 1e-2})
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert trace.verdict == ["ok"] * 40
        assert stats == {"relayed": 40, "tampered": 0}
        assert ctrl_result["aborted"] is False

    def test_verified_attack_trips_over_the_wire(self):
        cfg = baseline_cfg(steps=30, pre_roll=5, scenario="verified_attack",
                           attack=STEP_ATTACK, verify={"expansion": 8,
                                                       "num_challenges": 8})
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert trace.verdict[-1] == "bottom"
        # the step the proxy was caught on counts as tampered
        assert stats["tampered"] >= 1
        assert ctrl_result["aborted"] is True

    def test_out_of_range_aborts_over_the_wire(self):
        """Under positive feedback (the tank's K negated) y leaves the
        plaintext range at step 6: the plant ends the run there, before it
        encrypts, and announces it with ABORT. The proxy relayed the six
        steps before."""
        controller = {"K": (-control.tank_controller().K).tolist(), "u0": [6.8, 7.76]}
        cfg = baseline_cfg(steps=30, pre_roll=0, scenario="verified_attack",
                           attack={"a_u": {}, "length": 30}, controller=controller)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert trace.verdict == ["ok"] * 6 + ["range"] and exit_code(trace) == 4
        assert stats == {"relayed": 6, "tampered": 0}
        assert ctrl_result["aborted"] is True

    @pytest.mark.parametrize("scenario", ["baseline", "attack_plain"])
    def test_untouched_frames_relayed_as_received(self, scenario, serialize_spy):
        """Without a plan, or before the attack window (pre-roll), every
        ENC_Y and ENC_U payload goes on byte for byte, none re-serialized."""
        extra = {} if scenario == "baseline" else {"attack": STEP_ATTACK}
        cfg = baseline_cfg(steps=6, pre_roll=6, scenario=scenario,
                           backend=NOISY_BACKEND, **extra)
        with proxy_between(cfg) as (plant, ctrl, join):
            sent_y, sent_u, fwd_y, fwd_u = relay_steps(
                plant, ctrl, context_create(cfg.backend), 6)
        stats = join()
        assert fwd_y == sent_y and fwd_u == sent_u
        assert serialize_spy == []
        assert stats == {"relayed": 6, "tampered": 0}

    @pytest.mark.parametrize("scenario, attacked_steps", [("baseline", 0),
                                                          ("attack_plain", 10)])
    def test_frames_outside_attack_window_not_deserialized(self, scenario, attacked_steps,
                                                           monkeypatch):
        """The proxy deserializes a frame only to hand it to its attacker on
        a step of the attack window; every other frame is checked from its
        header and forwarded as received."""
        calls = []

        def spy(ctx, data):
            calls.append(len(data))
            return deserialize_ciphertext(ctx, data)

        monkeypatch.setattr(netloop, "deserialize_ciphertext", spy)
        extra = {} if scenario == "baseline" else {"attack": STEP_ATTACK}
        cfg = baseline_cfg(steps=12, pre_roll=3, scenario=scenario,
                           backend=NOISY_BACKEND, **extra)
        with proxy_between(cfg) as (plant, ctrl, join):
            relay_steps(plant, ctrl, context_create(cfg.backend), 15)
        assert join()["relayed"] == 15
        # STEP_ATTACK is active on steps 0..9 of k = -3..11, both directions
        assert len(calls) == 2 * attacked_steps

    def test_tampered_frames_reserialized(self, serialize_spy):
        """Only a modified frame is serialized afresh (it still decodes under
        the key), and a step counts as tampered once, whichever direction and
        however many frames were modified."""
        atk = {"a_u": {"0": [2.0, 2.0], "1": [1.0, -1.0]}, "length": 10,
               "cooldown_len": 4}
        cfg = baseline_cfg(steps=8, pre_roll=2, scenario="attack_plain",
                           backend=NOISY_BACKEND, attack=atk)
        ctx = context_create(cfg.backend)
        with proxy_between(cfg) as (plant, ctrl, join):
            sent_y, sent_u, fwd_y, fwd_u = relay_steps(plant, ctrl, ctx, 8)
        stats = join()
        changed_y = [f != s for f, s in zip(fwd_y, sent_y)]
        changed_u = [f != s for f, s in zip(fwd_u, sent_u)]
        # pre-roll steps pass; step 0 biases u only; later steps also y
        assert changed_y[:3] == [False] * 3 and changed_u[:2] == [False] * 2
        assert changed_u[2] and any(y and u for y, u in zip(changed_y, changed_u))
        changed = [f for f, c in zip(fwd_y, changed_y) if c] + [
            f for f, c in zip(fwd_u, changed_u) if c]
        assert sorted(serialize_spy) == sorted(changed)
        for blob in changed:
            deserialize_ciphertext(ctx, blob)
        assert stats == {"relayed": 8, "tampered": sum(
            y or u for y, u in zip(changed_y, changed_u))}

    def test_foreign_key_frame_rejected_not_relayed(self):
        cfg = baseline_cfg(steps=4, pre_roll=0, backend=NOISY_BACKEND)
        foreign = context_create(BackendConfig(slot_count=64, seed=cfg.backend.seed + 1))
        with proxy_between(cfg) as (plant, ctrl, join):
            send_frame(plant.sock, MSG_ENC_Y,
                       serialize_ciphertext(foreign.encrypt(np.ones(64))))
            with pytest.raises(KeyMismatch, match="foreign key tag"):
                join()
            assert ctrl.sock.recv(1) == b""  # the proxy closed upstream, sending nothing


# bytes of a 64-slot frame (541 on the wire) that arrive before the peer hangs up
CUTS = {"mid-header": 3, "mid-payload": 50}


@pytest.mark.parametrize("cut", CUTS)
class TestMidFrameDisconnect:
    """A peer that hangs up inside a frame ends each role, within a bounded
    join, with a ``ConnectionError``."""

    def test_plant(self, cut):
        cfg = baseline_cfg(steps=5, pre_roll=0)
        with socket.create_server((HOST, 0)) as srv:
            def controller():
                conn, _ = srv.accept()
                with conn:
                    conn.settimeout(10)
                    reader = FrameReader(conn)
                    kinds = [recv_frame(reader)[0] for _ in range(2)]
                    conn.sendall(enc_frame(BACKEND_64)[:CUTS[cut]])
                return kinds

            ctrl_t, ctrl_box = start_thread(controller)
            t, box = start_thread(run_plant, srv.getsockname(), cfg)
            t.join(10)
            ctrl_t.join(10)
        assert not t.is_alive() and not ctrl_t.is_alive()
        assert ctrl_box["result"] == [MSG_HELLO, MSG_ENC_Y]
        assert isinstance(box["raised"], ConnectionError)
        assert "mid-frame" in str(box["raised"])

    def test_controller(self, cut):
        port, t, box = start_role(run_controller)
        hello = json.dumps(baseline_cfg().document).encode()
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_HELLO, hello) + enc_frame(BACKEND_64)[:CUTS[cut]])
        with pytest.raises(ConnectionError, match="mid-frame"):
            joined(t, box)

    @pytest.mark.parametrize("side", ["plant", "controller"])
    def test_proxy(self, cut, side):
        """The proxy's plant hangs up inside an ENC_Y frame, or its
        controller inside the ENC_U answer to a whole one. The proxy relays
        nothing to the other side."""
        cfg = baseline_cfg(steps=5, pre_roll=0)
        with proxy_between(cfg) as (plant, ctrl, join):
            if side == "plant":
                plant.sock.sendall(enc_frame(BACKEND_64)[:CUTS[cut]])
                plant.sock.close()
            else:
                frame = enc_frame(cfg.backend)
                plant.sock.sendall(frame)
                assert recv_frame(ctrl.reader) == (MSG_ENC_Y, frame[5:])
                ctrl.sock.sendall(frame[:CUTS[cut]])
                ctrl.sock.close()
            with pytest.raises(ConnectionError, match="mid-frame"):
                join()
            other = ctrl if side == "plant" else plant
            assert other.sock.recv(1) == b""


class TestUnexpectedFrame:
    """A peer's frame of a known type that the protocol has no place for,
    or a ciphertext that leaves the controller no level, ends the role
    within a bounded join with a named error, and nothing reaches the other
    side."""

    def test_controller_after_hello(self):
        """After the HELLO the controller takes ENC_Y, ABORT or BYE only."""
        port, t, box = start_role(run_controller)
        hello = json.dumps(baseline_cfg().document).encode()
        with socket.create_connection((HOST, port), timeout=10) as sock:
            sock.sendall(raw_frame(MSG_HELLO, hello) + raw_frame(MSG_ENC_U))
            with pytest.raises(FrameError, match="unexpected frame type 0x2"):
                joined(t, box)
            assert sock.recv(1) == b""  # closed, having answered nothing

    def test_proxy_from_the_plant(self):
        with proxy_between(baseline_cfg()) as (plant, ctrl, join):
            send_frame(plant.sock, MSG_ENC_U)
            with pytest.raises(FrameError, match="unexpected frame type 0x2"):
                join()
            assert ctrl.sock.recv(1) == b""

    def test_proxy_from_the_controller(self):
        """The controller answers a measurement with a frame other than
        ENC_U."""
        cfg = baseline_cfg()
        with proxy_between(cfg) as (plant, ctrl, join):
            frame = enc_frame(cfg.backend)
            plant.sock.sendall(frame)
            assert recv_frame(ctrl.reader) == (MSG_ENC_Y, frame[5:])
            ctrl.sock.sendall(frame)
            with pytest.raises(FrameError, match="unexpected upstream frame 0x1"):
                join()
            assert plant.sock.recv(1) == b""

    def test_controller_ciphertext_at_max_depth(self):
        """A measurement whose level field is already ``max_depth`` leaves
        the controller's product no level."""
        cfg = baseline_cfg()
        frame = bytearray(enc_frame(cfg.backend))
        struct.pack_into("<I", frame, 5 + 4, cfg.backend.max_depth)  # the level field
        port, t, box = start_role(run_controller)
        with socket.create_connection((HOST, port), timeout=10) as sock:
            sock.sendall(raw_frame(MSG_HELLO, json.dumps(cfg.document).encode()) + frame)
            with pytest.raises(DepthExhausted, match="max_depth is 16"):
                joined(t, box)
            assert sock.recv(1) == b""
