"""Command-line entry point.

Subcommands:
  simulate    run one scenario from a JSON config, write trace CSV / SVG
  montecarlo  detection-rate experiment: print its wall time, trials/s and
              (full mode) HE op counts, write per-step histogram CSV
  probe       print guess-success probabilities and bounds per expansion factor
  net         run one networked role (plant, controller, or attacker proxy)

Exit codes: 0 ok, 1 config error, 2 runtime error, 3 verification tripped.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import verify
from .scenario import ConfigError, ScenarioConfig, run_scenario, write_trace_svg

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_VERIFICATION = 3


def _parse_addr(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or not 1 <= int(port) <= 65535:
        raise argparse.ArgumentTypeError(
            f"expected host:port with a port in 1-65535, got {text!r}")
    return host, int(port)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="encloop",
                                     description="Encrypted control loop simulator: "
                                                 "covert attacks and verified evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a closed-loop scenario")
    sim.add_argument("--config", required=True)
    sim.add_argument("--out-trace", default=None)
    sim.add_argument("--out-plot", default=None)

    mc = sub.add_parser("montecarlo", help="detection-rate experiment")
    mc.add_argument("--lambda", dest="expansion", type=int, required=True)
    mc.add_argument("--attack-len", type=int, default=10)
    mc.add_argument("--trials", type=int, default=100_000)
    mc.add_argument("--mode", choices=("fast", "full"), default="fast")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out", default=None)

    pr = sub.add_parser("probe", help="success probabilities per expansion factor")
    pr.add_argument("--lambda-max", type=int, default=16)

    net = sub.add_parser("net", help="run a networked role")
    net.add_argument("--role", choices=("plant", "controller", "attacker"),
                     required=True)
    net.add_argument("--listen", type=_parse_addr, default=None)
    net.add_argument("--connect", type=_parse_addr, default=None)
    net.add_argument("--upstream", type=_parse_addr, default=None)
    net.add_argument("--config", default=None)
    net.add_argument("--out-trace", default=None)
    return parser


def _run_summary(trace) -> int:
    """Print a loop run's last line and return its exit code."""
    if trace.tripped:
        print(f"verification tripped at step {trace.k[-1]}")
        return EXIT_VERIFICATION
    print(f"completed {len(trace)} steps (k = {trace.k[0]}..{trace.k[-1]})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = ScenarioConfig.from_json(args.config)
    trace, _ = run_scenario(cfg)
    if args.out_trace:
        trace.to_csv(args.out_trace)
    if args.out_plot:
        write_trace_svg(trace, args.out_plot)
    return _run_summary(trace)


def cmd_montecarlo(args) -> int:
    start = time.perf_counter()
    try:
        result = verify.run_detection_experiment(args.expansion, args.attack_len,
                                                 args.trials, mode=args.mode,
                                                 seed=args.seed)
    except ValueError as exc:  # the experiment checks its inputs before it runs
        raise ConfigError("montecarlo", str(exc)) from exc
    elapsed = time.perf_counter() - start
    summary = (f"lambda={args.expansion}  L={args.attack_len}  trials={args.trials}  "
               f"mode={args.mode}  time={elapsed:.4g} s  trials/s={args.trials / elapsed:.0f}")
    if "ops" in result:  # full mode: HE op counts, and per trial-step taken
        ops = result["ops"]
        steps = (sum(k * n for k, n in result["counts"].items())
                 + args.attack_len * result["undetected"])
        summary += "".join(f"  {op}={ops[op]}" for op in ("enc", "add", "mul", "rot", "dec"))
        summary += f"  ops/trial-step={sum(ops.values()) / steps:.4g}"
    print(summary)
    print("k*    detected")
    for k in range(1, args.attack_len + 1):
        print(f"{k:<5d} {100 * result['fractions'][k]:6.2f}%")
    print(f"/     {100 * result['undetected_fraction']:6.2f}%")
    if args.out:
        lines = ["lambda,k_star,count,fraction"]
        for k in range(1, args.attack_len + 1):
            lines.append(f"{args.expansion},{k},{result['counts'][k]},"
                         f"{result['fractions'][k]:.12g}")
        lines.append(f"{args.expansion},-1,{result['undetected']},"
                     f"{result['undetected_fraction']:.12g}")
        with open(args.out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_probe(args) -> int:
    if args.lambda_max < 2 or args.lambda_max % 2:
        raise ConfigError("lambda-max", "must be an even integer >= 2")
    print(f"{'lambda':>6}  {'p_succ(1)':>12}  {'bound 2^-l/2':>12}  {'p_succ(10)':>12}")
    for lam in range(2, args.lambda_max + 1, 2):
        p1 = verify.p_succ_instant(lam)
        bound = 2.0 ** (-lam / 2)
        p10 = verify.p_succ_cumulative(lam, 10)
        print(f"{lam:>6}  {p1:>12.6g}  {bound:>12.6g}  {p10:>12.6g}")
    return EXIT_OK


class _Listening:
    """The ``ready`` of a listening role. The role sets it right after
    ``listen``, and it prints one ``listening on HOST:PORT`` line and
    flushes stdout, so that whoever starts the roles can start the next one
    then. A role whose bind fails prints no such line."""

    def __init__(self, addr: tuple[str, int]):
        self.line = "listening on {}:{}".format(*addr)

    def set(self):
        print(self.line, flush=True)


def cmd_net(args) -> int:
    from . import netloop

    if args.role == "controller":
        if args.listen is None:
            raise ConfigError("net", "controller needs --listen")
        netloop.run_controller(args.listen, ready=_Listening(args.listen))
        return EXIT_OK
    if args.role == "attacker":
        if args.listen is None or args.upstream is None:
            raise ConfigError("net", "attacker needs --listen and --upstream")
        netloop.run_attacker(args.listen, args.upstream, ready=_Listening(args.listen))
        return EXIT_OK
    # plant
    if args.connect is None or args.config is None:
        raise ConfigError("net", "plant needs --connect and --config")
    cfg = ScenarioConfig.from_json(args.config)
    trace = netloop.run_plant(args.connect, cfg)
    if args.out_trace:
        trace.to_csv(args.out_trace)
    return _run_summary(trace)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"simulate": cmd_simulate, "montecarlo": cmd_montecarlo,
                "probe": cmd_probe, "net": cmd_net}
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
