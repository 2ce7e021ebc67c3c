import contextlib
import json
import socket
import struct
import threading
import time

import numpy as np
import pytest

from encloop import control, netloop
from encloop.backend import (
    BackendConfig,
    context_create,
    deserialize_ciphertext,
    serialize_ciphertext,
)
from encloop.control import CONTROLLER_STREAM
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
from encloop.scenario import ConfigError, ScenarioConfig, run_scenario

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
        trace, ctrl_result, stats = run_pipeline(cfg, with_attacker=True)
        ref, code = run_scenario(cfg)
        assert code == (3 if kind == "verified_attack" else 0)
        assert "error" not in ctrl_result and "error" not in stats
        assert len(trace) == len(ref) == stats["relayed"]
        assert trace.verdict == ref.verdict
        for fieldname in ("x", "u", "y"):
            assert np.array_equal(np.array(getattr(trace, fieldname)),
                                  np.array(getattr(ref, fieldname)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_role_counts_its_ops_on_both_transports(self, kind, contexts):
        """Each role's key context counts the same ops in-process as over
        TCP: the plant's (stream None), the controller's (CONTROLLER_STREAM)
        and the attacker's public one (0x5EC0). Contexts that count no op
        (the proxy's secret-key one it only derives its public context from,
        a baseline proxy's public one) are left out."""
        def by_role():
            roles = {}
            for c in contexts:
                role = roles.setdefault(c.stream, dict.fromkeys(c.op_counts, 0))
                for op, n in c.op_counts.items():
                    role[op] += n
            contexts.clear()
            return {stream: ops for stream, ops in roles.items() if any(ops.values())}

        cfg = matched_cfg(kind, 1e-6)
        run_pipeline(cfg, with_attacker=True)
        tcp = by_role()
        trace, _ = run_scenario(cfg)
        in_process = by_role()
        assert in_process == tcp
        attacker = {} if kind == "baseline" else {0x5EC0}
        assert set(in_process) == {None, CONTROLLER_STREAM, *attacker}
        assert in_process[None]["enc"] == in_process[None]["dec"] == len(trace)

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

    def test_roles_draw_their_own_noise(self, monkeypatch):
        """The plant and the controller hold one key and one seed but draw
        noise from different streams: no draw of one appears among the
        other's, at any lag."""
        states = {}
        real = netloop.context_create

        def recording(config, stream=None):
            ctx = real(config, stream)
            states[stream] = ctx.rng.bit_generator.state
            return ctx

        monkeypatch.setattr(netloop, "context_create", recording)
        monkeypatch.setattr(control, "context_create", recording)
        cfg = baseline_cfg(steps=5, pre_roll=0, seed=7,
                           backend={"slot_count": 64, "noise_std": 1e-6})
        trace, ctrl_result, _ = run_pipeline(cfg)
        assert "error" not in ctrl_result and len(trace) == 5
        assert set(states) == {None, CONTROLLER_STREAM}
        draws = []
        for state in states.values():
            rng = np.random.default_rng()
            rng.bit_generator.state = state
            draws.append(rng.standard_normal(64 * 20))
        assert np.intersect1d(*draws).size == 0

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
            hello = json.dumps(baseline_cfg().document).encode()
            data = (raw_frame(MSG_HELLO, hello)
                    + struct.pack("<IB", 24 + 8 * 64 + 1, MSG_ENC_Y))
        with socket.create_connection((HOST, port)) as sock:
            sock.sendall(data)
            t.join(10)
        assert not t.is_alive()
        assert "exceeds the limit" in box["result"]["error"]
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()


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
            t.join(10)
        assert not t.is_alive()
        assert "mode: the networked loop is encrypted" in box["result"]["error"]
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()
        assert role == "controller" or ctrl_box["result"]["y_c"] == []

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
            t.join(10)
        assert not t.is_alive()
        assert "seed: seed must be non-negative, got -1" in box["result"]["error"]
        ctrl_t.join(10)
        assert not ctrl_t.is_alive()


NOISY_BACKEND = {"slot_count": 64, "max_depth": 16, "noise_std": 1e-6}


@contextlib.contextmanager
def proxy_between(cfg):
    """``run_attacker`` between a plant socket and a controller socket that
    the test drives by hand, once the HELLO has gone through. Yields
    ``(plant, ctrl, join)``; ``join()`` waits for the proxy and returns its
    stats."""
    with socket.create_server((HOST, 0)) as srv:
        port, t, box = start_role(run_attacker, (HOST, srv.getsockname()[1]))

        def join():
            t.join(10)
            assert not t.is_alive()
            return box["result"]

        with socket.create_connection((HOST, port), timeout=10) as plant:
            ctrl, _ = srv.accept()
            with ctrl:
                ctrl.settimeout(10)
                hello = json.dumps(cfg.document).encode()
                send_frame(plant, MSG_HELLO, hello)
                assert recv_frame(ctrl) == (MSG_HELLO, hello)
                yield plant, ctrl, join
        join()


def relay_steps(plant, ctrl, ctx, steps, seed=0):
    """Send ``steps`` ENC_Y frames as the plant and answer each with an ENC_U
    frame as the controller. Returns the blobs sent and the payloads the
    proxy forwarded, as (sent_y, sent_u, fwd_y, fwd_u)."""
    rng = np.random.default_rng(seed)
    n = ctx.config.slot_count
    sent_y, sent_u, fwd_y, fwd_u = [], [], [], []
    for _ in range(steps):
        sent_y.append(bytes(serialize_ciphertext(ctx.encrypt(rng.normal(size=n)))))
        send_frame(plant, MSG_ENC_Y, sent_y[-1])
        msg_type, payload = recv_frame(ctrl)
        assert msg_type == MSG_ENC_Y
        fwd_y.append(bytes(payload))
        sent_u.append(bytes(serialize_ciphertext(ctx.encrypt(rng.normal(size=n)))))
        send_frame(ctrl, MSG_ENC_U, sent_u[-1])
        msg_type, payload = recv_frame(plant)
        assert msg_type == MSG_ENC_U
        fwd_u.append(bytes(payload))
    send_frame(plant, MSG_BYE)
    assert recv_frame(ctrl)[0] == MSG_BYE
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
        atk = {"a_u": {str(k): [2.0, 2.0] for k in range(5)},
               "length": 10, "cooldown_len": 4}
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
               "length": 10, "cooldown_len": 4}
        cfg = baseline_cfg(steps=15, pre_roll=5, scenario="attack_encrypted",
                           attack=atk)
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
        assert "error" not in ctrl_result and "error" not in stats

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
        assert "error" not in ctrl_result

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
            send_frame(plant, MSG_ENC_Y, serialize_ciphertext(foreign.encrypt(np.ones(64))))
            stats = join()
            assert ctrl.recv(1) == b""  # the proxy closed upstream, sending nothing
        assert "foreign key tag" in stats["error"]
        assert stats["relayed"] == 0
