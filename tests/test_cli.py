import json
import socket
import struct
import subprocess
import sys
import threading

import pytest

from encloop.cli import main
from encloop.netloop import MSG_BYE, MSG_ENC_Y, MSG_HELLO, run_attacker, run_controller
from encloop.verify import p_succ_cumulative, p_succ_instant
from helpers import (
    HOST,
    STEP_ATTACK,
    finish,
    free_port,
    listening_role,
    reply_once,
    role_process,
)


def write_cfg(tmp_path, raw, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


BASELINE = {"scenario": "baseline", "steps": 30, "pre_roll": 10, "seed": 1}
VERIFIED = {
    "scenario": "verified_attack", "steps": 30, "pre_roll": 5, "seed": 1,
    "backend": {"slot_count": 64},
    "attack": STEP_ATTACK,
    "verify": {"expansion": 8, "num_challenges": 8},
}


class TestSimulate:
    def test_baseline_ok(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, BASELINE)
        trace_path = tmp_path / "trace.csv"
        plot_path = tmp_path / "trace.svg"
        code = main(["simulate", "--config", cfg, "--out-trace", str(trace_path),
                     "--out-plot", str(plot_path)])
        assert code == 0
        assert "completed 40 steps" in capsys.readouterr().out
        assert trace_path.read_text().startswith("k,x1")
        assert plot_path.read_text().startswith("<svg")

    @pytest.mark.parametrize("raw, code, line", [
        (dict(VERIFIED, pre_roll=0), 3, "verification tripped at step 0"),
        ({"scenario": "baseline", "steps": 1, "pre_roll": 0}, 0,
         "completed 1 steps (k = 0..0)"),
        (dict(BASELINE, mode="encrypted", pre_roll=0, x0=[30, 1, 0, 0]), 4,
         "plaintext out of range at step 0")],
        ids=["caught_at_0", "one_step_baseline", "out_of_range_at_0"])
    def test_one_step_trace_written_and_plotted(self, tmp_path, capsys, raw, code, line):
        """A run that ends after one step (caught at k = 0, one step long,
        or with y = [15, 0.5] outside the plaintext range at k = 0) still
        writes its trace and its plot."""
        trace_path, plot_path = tmp_path / "trace.csv", tmp_path / "trace.svg"
        assert main(["simulate", "--config", write_cfg(tmp_path, raw),
                     "--out-trace", str(trace_path), "--out-plot", str(plot_path)]) == code
        assert line in capsys.readouterr().out
        assert len(trace_path.read_text().splitlines()) == 2
        assert plot_path.read_text().startswith("<svg")

    def test_verification_trips_exit_three(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, VERIFIED)
        code = main(["simulate", "--config", cfg])
        assert code == 3
        assert "verification tripped" in capsys.readouterr().out

    def test_missing_config_exit_one(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_config_exit_one(self, tmp_path):
        cfg = write_cfg(tmp_path, {"scenario": "bogus"})
        assert main(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize("scenario", ["attack_plain", "attack_encrypted"])
    @pytest.mark.parametrize("cooldown_len", [2, 6])
    def test_cooldown_other_than_state_dim_exit_one(self, tmp_path, capsys, scenario,
                                                     cooldown_len):
        # the cooldown solves the tank's 4-step terminal condition only
        cfg = write_cfg(tmp_path, {
            "scenario": scenario, "steps": 30, "pre_roll": 5, "seed": 1,
            "attack": {"a_u": {"0": [0.5, 0.5]}, "length": 10,
                       "cooldown_len": cooldown_len}})
        assert main(["simulate", "--config", cfg]) == 1
        assert (f"config error: attack: cooldown_len must equal the state dimension 4, "
                f"got {cooldown_len}") in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["plain_model", "enc_model"])
    @pytest.mark.parametrize("scenario", ["attack_plain", "attack_encrypted",
                                          "verified_attack"])
    def test_attack_variant_exit_one(self, tmp_path, capsys, scenario, variant):
        # the scenario kind alone picks the attacker
        raw = dict(VERIFIED, scenario=scenario)
        raw["attack"] = dict(VERIFIED["attack"], variant=variant)
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert "config error: attack: 'variant' is not a key" in err
        assert "use scenario 'attack_plain'" in err and "'attack_encrypted'" in err

    @pytest.mark.parametrize("max_depth, code", [(11, 1), (12, 0)])
    def test_depth_budget_exit_code(self, tmp_path, capsys, max_depth, code):
        # an encrypted-model attack of length 10 on the tank needs depth 12
        raw = dict(VERIFIED, scenario="attack_encrypted", verify={},
                   backend={"slot_count": 64, "max_depth": max_depth})
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == code
        msg = ("config error: backend: an encrypted-model attack of length 10 "
               "needs max_depth >= 12, got 11")
        assert (msg in capsys.readouterr().err) == (code == 1)

    @pytest.mark.parametrize("u0, code", [([10.0, -10.0], 0), ([10.5, 7.76], 1)])
    def test_encrypted_u0_range_exit_code(self, tmp_path, capsys, u0, code):
        """Every lifted block encodes u0: an encrypted config takes one on
        the edge of the plaintext range [-10, 10], and refuses one beyond."""
        raw = dict(BASELINE, mode="encrypted", steps=5, pre_roll=0,
                   controller={"K": [[11.545, 0.061], [1.609, 11.131]], "u0": u0})
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == code
        msg = "config error: controller: an encrypted u0 must lie within ±10, got [10.5, 7.76]"
        assert (msg in capsys.readouterr().err) == (code == 1)

    @pytest.mark.parametrize("scenario, slot_count, need", [
        ("verified_attack", 8, 16), ("baseline", 2, 4), ("attack_encrypted", 4, 8)])
    def test_slot_count_too_small_exit_one(self, tmp_path, capsys, scenario, slot_count,
                                           need):
        raw = dict(VERIFIED, scenario=scenario, mode="encrypted",
                   backend={"slot_count": slot_count}, verify={"expansion": 4})
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        assert (f"config error: backend: scenario {scenario!r} needs slot_count >= {need}, "
                f"got {slot_count}") in capsys.readouterr().err


    @pytest.mark.parametrize("mode", ["plain", "encrypted"])
    @pytest.mark.parametrize("section, extra, message", [
        pytest.param("controller", {"controller": {"K": [[0.2, 0.1]], "u0": [0.3]}},
                     "K must be 1 x 1 (inputs x outputs of the model), got 1 x 2",
                     id="1x2-K"),
        pytest.param("model", {"model": {"A": [[0.5]], "B": [[]], "C": [[1.0]]}},
                     "the model needs at least one input and one output", id="no-input")])
    def test_controller_shape_mismatch_exit_one(self, tmp_path, capsys, section, extra,
                                                message, mode):
        """Both ran to exit 0 in encrypted mode before, with a wrong control
        or none; plain mode died in numpy's matmul on the first."""
        raw = {"model": {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]]},
               "controller": {"K": [[0.2]], "u0": [0.3]}, "x0": [1.0],
               "steps": 5, "pre_roll": 0, "mode": mode, **extra}
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        assert f"config error: {section}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, extra", [
        ("horizon", {"steps": "abc"}),
        ("horizon", {"pre_roll": "x"}),
        ("x0", {"x0": ["a", "b", "c", "d"]}),
        ("verify", {"verify": {"expansion": "four"}}),
        ("horizon", {"steps": [1]}),
        ("attack", {"attack": {"a_u": [1], "length": 10}})])
    def test_malformed_value_exit_one(self, tmp_path, capsys, section, extra):
        raw = dict(VERIFIED, **extra)
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        assert f"config error: {section}:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, extra", [
        ("model", {"model": {"A": [[float("nan")]], "B": [[1.0]], "C": [[1.0]]}}),
        ("controller", {"controller": {"K": [[1.0, 0.0], [0.0, 1.0]],
                                       "u0": [0.0, float("inf")]}}),
        ("backend", {"backend": {"slot_count": 64, "noise_std": float("nan")}}),
        ("backend", {"backend": {"slot_count": 64, "noise_std": float("inf")}})])
    def test_non_finite_value_exit_one(self, tmp_path, capsys, section, extra):
        # json writes and reads these as Infinity and NaN
        raw = dict(VERIFIED, **extra)
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {section}:" in err and "must be finite" in err


    @pytest.mark.parametrize("section, extra, message", [
        ("x0", {"x0": [float("nan"), 0, 0, 0]}, "x0 must be finite"),
        ("attack", {"attack": {"a_u": {"0": [float("nan"), 1.0]}, "length": 10}},
         "bias vectors must be finite"),
        ("horizon", {"steps": 2.7}, "steps must be an integer, got 2.7"),
        ("horizon", {"pre_roll": True}, "pre_roll must be an integer, got True")])
    def test_truncated_or_non_finite_number_exit_one(self, tmp_path, capsys, section, extra,
                                                     message):
        """Each ran to exit 0 before: NaN inputs gave an all-NaN trace, and
        int() truncated 2.7 to 2 and read true as 1."""
        raw = dict(BASELINE, scenario="attack_plain", **extra)
        raw.setdefault("attack", VERIFIED["attack"])
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        assert f"config error: {section}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("section, raw", [
        ("seed", dict(BASELINE, seed=-1, mode="encrypted")),
        ("seed", dict(BASELINE, seed=-1)),
        ("backend", dict(BASELINE, backend={"seed": -3})),
        ("seed", dict(VERIFIED, seed=-1))])
    def test_negative_seed_exit_one(self, tmp_path, capsys, section, raw):
        """A negative seed is a named config error in every mode, not numpy's
        bare "expected non-negative integer" at the first draw."""
        assert main(["simulate", "--config", write_cfg(tmp_path, raw)]) == 1
        err = capsys.readouterr().err
        assert f"config error: {section}: seed must be non-negative, got" in err


class TestMontecarlo:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "mc.csv"
        code = main(["montecarlo", "--lambda", "4", "--attack-len", "3",
                     "--trials", "20000", "--seed", "0", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "lambda=4" in text
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "lambda,k_star,count,fraction"
        assert len(lines) == 5  # header + k=1..3 + undetected row
        assert lines[-1].startswith("4,-1,")
        # detection at the first step should be near 1 - 1/6
        frac_k1 = float(lines[1].split(",")[3])
        assert abs(frac_k1 - (1 - p_succ_instant(4))) < 0.01

    def test_full_mode(self, capsys):
        code = main(["montecarlo", "--lambda", "2", "--attack-len", "2",
                     "--trials", "500", "--mode", "full", "--seed", "1"])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert "mode=full" in summary
        fields = dict(f.split("=") for f in summary.replace(" s ", " ").split())
        seconds, rate = float(fields["time"]), float(fields["trials/s"])
        assert seconds > 0 and rate == pytest.approx(500 / seconds, rel=1e-2, abs=1)

    def test_full_mode_prints_op_counts(self, capsys):
        """Full mode's summary line carries the experiment's HE op counts
        and their sum per trial-step taken; fast mode runs no HE op."""
        assert main(["montecarlo", "--lambda", "4", "--attack-len", "10",
                     "--trials", "200", "--mode", "full", "--seed", "0"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        fields = dict(f.split("=") for f in summary.replace(" s ", " ").split())
        ops = {op: int(fields[op]) for op in ("enc", "add", "mul", "rot", "dec")}
        # the pinned detect/full run: 4 batched steps over 251 trial-steps
        assert ops == {"enc": 5, "add": 4, "mul": 4, "rot": 4, "dec": 4}
        assert float(fields["ops/trial-step"]) == pytest.approx(21 / 251, rel=1e-3)
        assert main(["montecarlo", "--lambda", "4", "--trials", "200"]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert "enc=" not in summary and "ops/trial-step" not in summary

    @pytest.mark.parametrize("args, message", [
        (["--lambda", "0"], "expansion factor must be even and >= 2, got 0"),
        (["--lambda", "3"], "expansion factor must be even and >= 2, got 3"),
        (["--lambda", "3", "--mode", "full"], "expansion factor must be even"),
        (["--lambda", "4", "--attack-len", "0"], "attack length must be at least 1"),
        (["--lambda", "4", "--attack-len", "0", "--mode", "full"],
         "attack length must be at least 1"),
        (["--lambda", "4", "--trials", "0"], "need at least one trial"),
        (["--lambda", "4", "--seed", "-1"], "seed must be non-negative, got -1"),
        (["--lambda", "4", "--seed", "-1", "--mode", "full"],
         "seed must be non-negative, got -1"),
        (["--lambda", "131072", "--mode", "full"],
         "slot_count must be at most 65536, got 131072")])
    def test_bad_inputs_exit_one(self, args, message, capsys):
        assert main(["montecarlo", "--trials", "10", *args]) == 1
        captured = capsys.readouterr()
        assert f"config error: montecarlo: {message}" in captured.err
        assert "undetected" not in captured.out and "k*" not in captured.out


class TestProbe:
    def test_table(self, capsys):
        assert main(["probe", "--lambda-max", "8"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4  # header + lambda in {2,4,6,8}
        row = lines[2].split()
        assert int(row[0]) == 4
        assert float(row[1]) == pytest.approx(p_succ_instant(4), rel=1e-4)
        assert float(row[3]) == pytest.approx(p_succ_cumulative(4, 10), rel=1e-4)

    def test_odd_lambda_rejected(self):
        assert main(["probe", "--lambda-max", "5"]) == 1


class TestNet:
    def test_role_argument_validation(self):
        assert main(["net", "--role", "plant"]) == 1
        assert main(["net", "--role", "controller"]) == 1
        assert main(["net", "--role", "attacker", "--listen", "x:1"]) == 1

    def test_plant_against_controller(self, tmp_path, capsys):
        port = free_port()
        ready = threading.Event()
        t = threading.Thread(target=run_controller, args=((HOST, port),),
                             kwargs={"ready": ready}, daemon=True)
        t.start()
        assert ready.wait(5)
        cfg = write_cfg(tmp_path, dict(BASELINE, mode="encrypted",
                                       backend={"slot_count": 64}))
        trace_path = tmp_path / "net_trace.csv"
        code = main(["net", "--role", "plant", "--connect", f"{HOST}:{port}",
                     "--config", cfg, "--out-trace", str(trace_path)])
        t.join(10)
        assert code == 0
        assert capsys.readouterr().out == "completed 40 steps (k = -10..29)\n"
        assert trace_path.exists()

    def test_plant_caught_through_proxy_exit_three(self, tmp_path, capsys):
        """The net plant ends with ``simulate``'s last line and exit code:
        the guessing proxy is caught at step 0."""
        ctrl, atk = (HOST, free_port()), (HOST, free_port())
        roles = [(run_controller, (ctrl,)), (run_attacker, (atk, ctrl))]
        threads = []
        for role, args in roles:
            ready = threading.Event()
            threads.append(threading.Thread(target=role, args=args,
                                            kwargs={"ready": ready}, daemon=True))
            threads[-1].start()
            assert ready.wait(5)
        cfg = write_cfg(tmp_path, dict(VERIFIED, pre_roll=0, mode="encrypted"))
        code = main(["net", "--role", "plant", "--connect", f"{HOST}:{atk[1]}",
                     "--config", cfg])
        for t in threads:
            t.join(10)
            assert not t.is_alive()
        assert code == 3
        net_out = capsys.readouterr().out
        assert net_out == "verification tripped at step 0\n"
        assert main(["simulate", "--config", cfg]) == 3
        assert capsys.readouterr().out == net_out

    def test_plain_mode_plant_exit_one(self, tmp_path, capsys):
        # refused before it connects: nothing listens on the port
        cfg = write_cfg(tmp_path, dict(BASELINE, mode="plain"))
        code = main(["net", "--role", "plant", "--connect", f"{HOST}:{free_port()}",
                     "--config", cfg])
        assert code == 1
        assert "config error: mode: the networked loop is encrypted" in (
            capsys.readouterr().err)

    def test_controller_error_exit_two(self):
        payload = b"this is not json"
        with listening_role("controller") as (controller, port):
            with socket.create_connection((HOST, port)) as sock:
                sock.sendall(struct.pack("<IB", len(payload), MSG_HELLO) + payload)
            assert finish(controller, 2).stderr == (
                "error: refused HELLO: Expecting value: line 1 column 1 (char 0)\n")

    def test_plant_wrong_reply_exit_two(self, tmp_path):
        """A reply frame other than ENC_U ends the net plant with exit 2."""
        cfg = write_cfg(tmp_path, dict(BASELINE, mode="encrypted"))
        with socket.create_server((HOST, 0)) as srv:
            t = threading.Thread(target=reply_once, daemon=True,
                                 args=(srv, struct.pack("<IB", 0, MSG_BYE)))
            t.start()
            with role_process("net", "--role", "plant", "--connect",
                              f"{HOST}:{srv.getsockname()[1]}", "--config", cfg) as plant:
                assert "error: expected control frame" in finish(plant, 2).stderr
            t.join(10)
            assert not t.is_alive()

    def test_proxy_wrong_first_frame_exit_two(self):
        """A plant that opens with ENC_Y instead of HELLO ends the proxy with
        exit 2, and the proxy forwards nothing upstream."""
        with socket.create_server((HOST, 0)) as upstream:
            with listening_role("attacker", "--upstream",
                                f"{HOST}:{upstream.getsockname()[1]}") as (proxy, port):
                with socket.create_connection((HOST, port)) as sock:
                    sock.sendall(struct.pack("<IB", 8, MSG_ENC_Y) + bytes(8))
                    assert finish(proxy, 2).stderr == "error: expected HELLO as the first frame\n"
            conn, _ = upstream.accept()
            with conn:
                conn.settimeout(10)
                assert conn.recv(1) == b""

    @pytest.mark.parametrize("role", ["controller", "attacker"])
    def test_bind_failure_exit_two(self, capsys, role):
        """A listening role that cannot bind prints no readiness line."""
        with socket.socket() as taken:
            taken.bind((HOST, 0))
            taken.listen()
            addr = f"{HOST}:{taken.getsockname()[1]}"
            assert main(["net", "--role", role, "--listen", addr, "--upstream", addr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")


class TestEntrypoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "encloop.cli", "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_bad_address(self, capsys):
        """A malformed address, or a port outside 1-65535, is a usage error."""
        for flag, addr in (("--connect", "nonsense"), ("--listen", "127.0.0.1:0"),
                           ("--listen", "127.0.0.1:70000")):
            with pytest.raises(SystemExit) as exc:
                main(["net", "--role", "plant", flag, addr])
            assert exc.value.code == 2
            assert "expected host:port with a port in 1-65535" in capsys.readouterr().err
