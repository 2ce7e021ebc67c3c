import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from encloop import netloop
from encloop.backend import BackendConfig, context_create, serialize_ciphertext
from encloop.netloop import (
    HELLO_MAX_PAYLOAD,
    MSG_BYE,
    MSG_ENC_U,
    MSG_ENC_Y,
    MSG_HELLO,
    FrameError,
    recv_frame,
    run_attacker,
    run_controller,
    run_plant,
    send_frame,
)
from encloop.scenario import ScenarioConfig, run_scenario

HOST = "127.0.0.1"


def free_port():
    with socket.socket() as s:
        s.bind((HOST, 0))
        return s.getsockname()[1]


def raw_frame(msg_type, payload=b""):
    """One frame as it goes on the wire: u32 length, u8 type, payload."""
    return struct.pack("<IB", len(payload), msg_type) + payload


def baseline_cfg(steps=20, pre_roll=5, **extra):
    raw = {"scenario": "baseline", "mode": "encrypted", "steps": steps,
           "pre_roll": pre_roll, "backend": {"slot_count": 64, "max_depth": 16},
           "seed": 42}
    raw.update(extra)
    return ScenarioConfig.from_dict(raw)


STEP_ATTACK = {"a_u": {str(k): [2.0, 2.0] for k in range(5)},
               "length": 10, "cooldown_len": 4}


class CappedSendSocket:
    """Stand-in socket whose sendmsg accepts at most ``cap`` bytes per call,
    as a send interrupted after a partial write would."""

    def __init__(self, cap):
        self.cap = cap
        self.calls = 0
        self.data = bytearray()

    def sendmsg(self, buffers):
        self.calls += 1
        sent = b"".join(bytes(b) for b in buffers)[: self.cap]
        self.data += sent
        return len(sent)


def start_thread(fn, *args, **kwargs):
    box = {}

    def runner():
        box["result"] = fn(*args, **kwargs)

    t = threading.Thread(target=runner, daemon=True)
    t.start()
    return t, box


class TestFraming:
    def test_round_trip(self):
        sock = CappedSendSocket(1 << 20)
        send_frame(sock, MSG_ENC_Y, b"payload")
        assert sock.data == raw_frame(MSG_ENC_Y, b"payload")
        a, b = socket.socketpair()
        with a, b:
            a.sendall(raw_frame(MSG_ENC_Y, b"payload"))
            assert recv_frame(b) == (MSG_ENC_Y, b"payload")

    def test_empty_payload(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, MSG_BYE)
            assert recv_frame(b) == (MSG_BYE, b"")

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
                recv_frame(b)

    def test_truncation_rejected(self):
        # one byte short of the header, one byte short of the payload
        for cut in (4, 7):
            a, b = socket.socketpair()
            with b:
                with a:
                    a.sendall(raw_frame(MSG_ENC_U, b"xyz")[:cut])
                with pytest.raises(ConnectionError):
                    recv_frame(b)

    def test_socket_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, MSG_ENC_Y, b"\x00" * 100)
            assert recv_frame(b) == (MSG_ENC_Y, b"\x00" * 100)

    def test_back_to_back_frames(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, MSG_HELLO, b"one")
            send_frame(a, MSG_ENC_Y, b"two")
            assert recv_frame(b) == (MSG_HELLO, b"one")
            assert recv_frame(b) == (MSG_ENC_Y, b"two")

    @pytest.mark.parametrize("slot_count, chunk", [(8, 1), (2 ** 16, 7919)])
    def test_reassembles_chunked_frame(self, slot_count, chunk):
        ctx = context_create(BackendConfig(slot_count=slot_count))
        payload = serialize_ciphertext(
            ctx.encrypt(np.random.default_rng(1).uniform(-1, 1, slot_count)))
        blob = raw_frame(MSG_ENC_Y, payload)
        a, b = socket.socketpair()
        with a, b:
            def trickle():
                for i in range(0, len(blob), chunk):
                    a.sendall(blob[i:i + chunk])
                    time.sleep(0.0005)

            t = threading.Thread(target=trickle, daemon=True)
            t.start()
            msg_type, got = recv_frame(b)
            t.join(10)
            assert not t.is_alive()
        assert msg_type == MSG_ENC_Y
        assert got == payload

    @pytest.mark.parametrize("cap", [1, 3, 5, 6, 100])
    def test_send_resumes_after_partial_writes(self, cap):
        payload = bytes(range(256))
        sock = CappedSendSocket(cap)
        send_frame(sock, MSG_ENC_Y, payload)
        assert sock.data == raw_frame(MSG_ENC_Y, payload)
        assert sock.calls == -(-(5 + len(payload)) // cap)

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
                recv_frame(b)

    def test_huge_declared_length_rejected(self, monkeypatch):
        """A 2^32 - 1 length is refused from the header alone, before a
        payload buffer is allocated (the guard keeps a regression from
        allocating 4 GiB)."""
        read = netloop._recv_exact

        def header_only(sock, n):
            assert n == 5, f"asked to allocate a {n}-byte payload"
            return read(sock, n)

        monkeypatch.setattr(netloop, "_recv_exact", header_only)
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(struct.pack("<IB", 2 ** 32 - 1, MSG_ENC_Y))
            with pytest.raises(FrameError, match="exceeds the limit"):
                recv_frame(b)

    def test_enc_frame_over_one_ciphertext_rejected(self):
        n = 64
        limit = 24 + 8 * n
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(raw_frame(MSG_ENC_Y, b"\x00" * limit))
            assert len(recv_frame(b, limit)[1]) == limit
            a.sendall(struct.pack("<IB", limit + 8, MSG_ENC_Y))
            with pytest.raises(FrameError, match="exceeds the limit"):
                recv_frame(b, limit)


def run_pipeline(cfg, with_attacker=False):
    """Spin up controller (and optionally attacker proxy), run the plant."""
    ctrl_port = free_port()
    ctrl_ready = threading.Event()
    ctrl_t, ctrl_box = start_thread(run_controller, (HOST, ctrl_port),
                                    ready=ctrl_ready)
    assert ctrl_ready.wait(5)
    target = (HOST, ctrl_port)
    atk_t = atk_box = None
    if with_attacker:
        atk_port = free_port()
        atk_ready = threading.Event()
        atk_t, atk_box = start_thread(run_attacker, (HOST, atk_port),
                                      (HOST, ctrl_port), ready=atk_ready)
        assert atk_ready.wait(5)
        target = (HOST, atk_port)
    trace = run_plant(target, cfg)
    ctrl_t.join(10)
    assert not ctrl_t.is_alive()
    if atk_t is not None:
        atk_t.join(10)
        assert not atk_t.is_alive()
    return trace, ctrl_box.get("result"), (atk_box or {}).get("result")


class TestPlantControllerLoop:
    @pytest.mark.parametrize("kind", ["baseline", "attack_plain", "attack_encrypted",
                                      "verified_attack"])
    def test_matches_in_process(self, kind):
        """The plant's loop over TCP through the proxy is the in-process
        loop, bit for bit, including the rejected step of a detected
        attack."""
        extra = {"backend": {"slot_count": 64, "max_depth": 16, "noise_std": 0.0}}
        if kind != "baseline":
            extra["attack"] = STEP_ATTACK
        if kind == "verified_attack":
            extra["verify"] = {"expansion": 4, "num_challenges": 8}
        cfg = baseline_cfg(steps=30, pre_roll=10, scenario=kind, **extra)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        ref, code = run_scenario(cfg)
        assert code == (3 if kind == "verified_attack" else 0)
        assert "error" not in ctrl_result and "error" not in stats
        assert len(trace) == len(ref) == stats["relayed"]
        assert trace.verdict == ref.verdict
        for fieldname in ("x", "u", "y"):
            assert np.array_equal(np.array(getattr(trace, fieldname)),
                                  np.array(getattr(ref, fieldname)))

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
        assert "error" not in ctrl_result
        assert ctrl_result["y_c"] == [] and ctrl_result["u_c"] == []

    def test_controller_survives_garbage(self):
        port = free_port()
        ready = threading.Event()
        t, box = start_thread(run_controller, (HOST, port), ready=ready)
        assert ready.wait(5)
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_HELLO, b"this is not json"))
        t.join(10)
        assert not t.is_alive()
        assert "error" in box["result"]

    def test_controller_rejects_wrong_first_frame(self):
        port = free_port()
        ready = threading.Event()
        t, box = start_thread(run_controller, (HOST, port), ready=ready)
        assert ready.wait(5)
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(raw_frame(MSG_ENC_Y, b"\x00" * 8))
        t.join(10)
        assert "error" in box["result"]


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
            hello = json.dumps(baseline_cfg().to_dict()).encode()
            data = (raw_frame(MSG_HELLO, hello)
                    + struct.pack("<IB", 24 + 8 * 64 + 1, MSG_ENC_Y))
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(data)
            t.join(10)
        assert not t.is_alive()
        assert "exceeds the limit" in box["result"]["error"]
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()


class TestAttackerProxy:
    def test_transparent_relay_without_plan(self):
        cfg = baseline_cfg(steps=15, pre_roll=5)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert stats["relayed"] == 20
        assert stats["tampered"] == 0
        ref, _ = run_scenario(cfg)
        assert np.max(np.abs(np.array(trace.x) - np.array(ref.x))) < 1e-8

    def test_covert_attack_over_the_wire(self):
        atk = {"a_u": {str(k): [2.0, 2.0] for k in range(5)},
               "length": 10, "cooldown_len": 4, "variant": "plain_model"}
        cfg = baseline_cfg(steps=30, pre_roll=10, scenario="attack_plain",
                           attack=atk)
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
        atk = {"a_u": {str(k): [2.0, 2.0] for k in range(5)},
               "length": 10, "cooldown_len": 4, "variant": "enc_model"}
        cfg = baseline_cfg(steps=15, pre_roll=5, scenario="attack_encrypted",
                           attack=atk)
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        ref, _ = run_scenario(cfg)
        assert stats["tampered"] > 0
        assert np.max(np.abs(np.array(trace.x) - np.array(ref.x))) < 1e-6

    def test_verified_attack_trips_over_the_wire(self):
        cfg = baseline_cfg(steps=30, pre_roll=5, scenario="verified_attack",
                           attack=STEP_ATTACK, verify={"expansion": 8,
                                                       "num_challenges": 8})
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        assert trace.verdict[-1] == "bottom"
        # the step the proxy was caught on counts as tampered
        assert stats["tampered"] >= 1
        assert ctrl_result["aborted"] is True
        assert "error" not in ctrl_result
