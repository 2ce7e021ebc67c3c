"""encloop benchmark.

    python3 perfbench/run.py --workload loop64 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

Runs from the root of a source checkout against ``src/encloop``. Prints one
line per metric (value, unit, sample count), then, as the last line, a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, the per-layer ones
with ``--trace 1``. Results, the environment and (traced) spans are written
under ``perfbench/out/``. ``--smoke`` runs every workload at 16 slots for a
few steps, traced and untraced, and checks the result format.
"""

from __future__ import annotations

import argparse
import csv
import gzip
import json
import math
import os
import platform
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
MAX_SPANS = 300_000   # later rounds of a traced run go untraced, to bound memory


def _bootstrap():
    """Import encloop from this checkout's sources, never from elsewhere."""
    if not (SRC / "encloop" / "__init__.py").is_file() or not SPEC_PATH.is_file():
        sys.exit(f"error: {SRC / 'encloop'} or {SPEC_PATH} not found; "
                 "run from the root of an encloop checkout")
    sys.path.insert(0, str(SRC))
    import encloop

    if Path(encloop.__file__).resolve().parent != (SRC / "encloop").resolve():
        sys.exit(f"error: imported encloop from {encloop.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy

    uname = os.uname()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "system": f"{uname.sysname} {uname.release}", "machine": uname.machine}


def summarize(workload, samples: list[dict]) -> tuple[dict, dict, dict]:
    """End-to-end metrics, breakdowns and sample counts. Times are lower
    envelopes (rates the maximum); ``step_us`` is the mean over the
    workload's parts; HE op ratios are exact."""
    from workloads import pooled

    steps = sum(s["steps"] for s in samples)
    ops = {op: sum(s["ops"][op] for s in samples) for op in samples[0]["ops"]}
    setup, setup_n = workload.setup_s(samples)
    parts = workload.step_us(samples)
    e2e = {"setup_s": setup,
           "step_us": sum(v for v, _ in parts.values()) / len(parts),
           "he_ops_per_step": sum(ops.values()) / steps,
           "he_rot_per_step": ops["rot"] / steps}
    counts = {"setup_s": setup_n, "step_us": sum(n for _, n in parts.values())}
    extra = {f"backend.{op}_per_step": n / steps for op, n in ops.items()}
    for part, (value, n) in parts.items():
        extra[f"step_us.{part}"] = value
        counts[f"step_us.{part}"] = n
    for name in samples[0]["extra"]:
        values = pooled(s["extra"][name] for s in samples)
        extra[name] = (max if name.startswith("trials_per_s") else min)(values)
        counts[name] = len(values)
    return e2e, extra, counts


def measure(name: str, seed: int, seconds: float, trace: bool, size: dict, spec: dict) -> dict:
    import tracing
    import workloads

    counters = tracing.Counters()
    counters.install()
    workload = workloads.WORKLOADS[name](seed, size, counters)
    tracer = tracing.Tracer(*workload.marker)
    tally = workloads.Tally()
    samples: dict[bool, list] = {False: [], True: []}
    # On a shared host one CPU can be slowed for tens of seconds while another
    # is not, so rounds rotate over the CPUs this process may use (role
    # processes inherit the plant's CPU). In traced runs each CPU gets an
    # untraced and a traced round in turn.
    cpus = sorted(os.sched_getaffinity(0))
    try:
        try:
            workload.warm_up(tally)
        except workloads.RoundAborted:
            pass
        start = time.perf_counter()
        rounds = 0
        while True:
            traced = trace and rounds % 2 == 1 and len(tracer.spans) < MAX_SPANS
            os.sched_setaffinity(0, {cpus[rounds // (1 + trace) % len(cpus)]})
            began = time.perf_counter()
            if traced:
                tracer.install()
            try:
                samples[traced].append(workload.round(tally, traced))
            except workloads.RoundAborted:
                pass
            finally:
                tracer.uninstall()
            rounds += 1
            now = time.perf_counter()
            if rounds >= 1 + trace and (now - start) + (now - began) > seconds:
                break
    finally:
        os.sched_setaffinity(0, cpus)
        counters.uninstall()
    if not samples[False] or (trace and not samples[True]):
        sys.exit(f"error: no round of {name} succeeded: " + "; ".join(tally.errors[:5]))

    e2e, extra, counts = summarize(workload, samples[False])
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "env": environment(), "size": size, "end_to_end": e2e, "extra": extra,
              "sample_counts": counts,
              "rounds": {"untraced": len(samples[False]), "traced": len(samples[True])},
              "attempted": tally.attempted, "failed": tally.failed,
              "error_rate": tally.failed / tally.attempted, "errors": tally.errors[:20]}
    if trace:
        traced_e2e, traced_extra, _ = summarize(workload, samples[True])
        marker, marker_tag = workload.marker
        steps = sum(1 for s in tracer.spans if s[0] == marker
                    and (marker_tag is None or s[5] == marker_tag))
        layers = tracing.layer_metrics(tracer.spans, workload.role_spans, steps)
        layers.update({k: v for k, v in traced_extra.items() if k.endswith("_per_step")})
        layers.update({k: v for k, v in extra.items() if not k.endswith("_per_step")})
        layers.update({f"trace_overhead.{k}": traced_e2e[k] - v for k, v in e2e.items()})
        declared = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(layers) - declared)
        if unknown:
            raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        result["traced_end_to_end"] = traced_e2e
        result["per_layer"] = {n: float(layers.get(n, 0.0)) for n in sorted(declared)}
        result["spans_file"] = write_spans(name, tracer.spans, workload.role_spans)
    return result


def write_spans(name: str, bench_spans: list, role_spans: list) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}-spans.csv.gz"
    with gzip.open(path, "wt", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["process", "session", "name", "start_ns", "end_ns", "parent", "step", "tag"])
        for process, session, spans in [("bench", 0, bench_spans)] + [
                (role, i // 2 + 1, spans) for i, (role, spans) in enumerate(role_spans)]:
            out.writerows((process, session, *s) for s in spans)
    return str(path.relative_to(ROOT))


def report(result: dict, spec: dict) -> dict:
    """Print the metric lines and return the contract's result object."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    rounds = result["rounds"]
    env = result["env"]
    print(f"# encloop benchmark: workload={result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']} trace={result['trace']}")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"{env['system']} {env['machine']}; size {json.dumps(result['size'])}")
    print(f"# rounds: {rounds['untraced']} untraced, {rounds['traced']} traced")
    counts = result["sample_counts"]

    def note(name):
        if name in counts:
            best = "max" if name.startswith("trials_per_s") else "min"
            return f"{best} of {counts[name]} samples"
        return "exact"

    lines = [(k, v, note(k)) for k, v in result["end_to_end"].items()]
    lines += [(k, v, note(k)) for k, v in result["extra"].items()]
    if result["trace"]:
        lines += [(k, v, f"traced rounds ({rounds['traced']})") for k, v in result["per_layer"].items()
                  if k not in result["extra"]]
    for name, value, how in lines:
        print(f"{name:34s} {value:16.6f} {units[name]:6s} {how}")
    print(f"{'error_rate':34s} {result['error_rate']:16.6f} ratio  "
          f"{result['failed']} of {result['attempted']} attempts failed")
    for error in result["errors"]:
        print(f"# failure: {error}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{result['workload']}-trace{result['trace']}.json").write_text(
        json.dumps(result, indent=1))
    names = [m["name"] for m in spec["per_layer" if result["trace"] else "end_to_end"]]
    values = result["per_layer"] if result["trace"] else result["end_to_end"]
    return {"correct": result["failed"] == 0, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {n: {"value": values[n], "unit": units[n]} for n in names}}


def smoke(spec: dict) -> int:
    import workloads

    ok = True
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            line = report(measure(name, 1, 0.0, trace, workloads.SMOKE_SIZES[name], spec), spec)
            values = [m["value"] for m in line["metrics"].values()]
            good = (line["correct"] and all(math.isfinite(v) for v in values)
                    and (trace or all(v > 0 for v in values)))
            ok &= good
            print(f"smoke {name} trace={int(trace)}: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    # unwind on SIGTERM so that role processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _bootstrap()
    import workloads

    spec = json.loads(SPEC_PATH.read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke(spec)
    if args.workload is None:
        parser.error("--workload is required")
    lines = {}
    for name in names if args.workload == "all" else [args.workload]:
        result = measure(name, args.seed, args.seconds, bool(args.trace),
                         workloads.SIZES[name], spec)
        lines[name] = report(result, spec)
        print(json.dumps(lines[name]), flush=True)
    if args.workload == "all":
        print(json.dumps({
            "correct": all(r["correct"] for r in lines.values()),
            "attempted": sum(r["attempted"] for r in lines.values()),
            "failed": sum(r["failed"] for r in lines.values()),
            "metrics": {f"{w}/{k}": v for w, r in lines.items() for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
