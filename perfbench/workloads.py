"""The benchmark's workloads: seeded inputs, one measured round each, and the
correctness checks every round must pass.

Every workload is a closed loop with one client (the plant, or the Monte Carlo
caller) that issues its next step only when the previous one completed. A
round repeats identical work, so HE op counts per step repeat exactly.

In-process, set-up is measured from outside as a run of the same
configuration with one step and no pre-roll, and step time as the difference
between a long run and that one-step run over the extra steps. Over TCP, set-up
is role spawn plus the plant's wait for its first control frame, and step
time is the spacing of the plant's measurement frames, averaged over blocks
of consecutive steps.

A round yields timing samples, each over a block of identical work, and the
run reports their minimum: the host's speed swings by up to 2x over
sub-second periods, and the lower envelope is what repeats from run to run.
In-process, the long and the one-step runs each take their own minimum before
they are subtracted. Step times come per part (a scenario kind, or the full
Monte Carlo mode); ``step_us`` is their mean.
"""

from __future__ import annotations

import math
import time

import numpy as np

from encloop import control, scenario, verify

import roles

ATTACK_LENGTH = 10
COOLDOWN = 4             # the tank model's state dimension
BIAS_STEPS = 5           # active-phase steps carrying a bias
STEALTH_TOL = 1e-6       # controller-side view of attacked vs clean runs
DIVERGENCE_MIN = 1e-2    # an attack must move the plant by at least this
NOISE_TOL_FACTOR = 1e3   # trace tolerance per unit of backend noise_std
BINOMIAL_Z = 5.0

SIZES = {
    "loop64": {"slot_count": 64, "steps": 100, "pre_roll": 20, "expansion": 4},
    "net64": {"slot_count": 64, "steps": 2000, "pre_roll": 20, "expansion": 4,
              "kind": "attack_plain", "noise_std": 0.0, "block_steps": 50},
    "net_wide": {"slot_count": 2 ** 16, "steps": 20, "pre_roll": 0, "expansion": 16,
                 "kind": "verified", "noise_std": 1e-6, "block_steps": 1},
    "montecarlo": {"expansion": 4, "attack_len": ATTACK_LENGTH, "full_trials": 200,
                   "fast_trials": 250_000, "setup_reps": 5},
}

# A few steps at 16 slots: exercises every code path of the harness quickly.
SMOKE_SIZES = {
    "loop64": {"slot_count": 16, "steps": 4, "pre_roll": 2, "expansion": 4},
    "net64": {"slot_count": 16, "steps": 4, "pre_roll": 2, "expansion": 4,
              "kind": "attack_plain", "noise_std": 0.0, "block_steps": 2},
    "net_wide": {"slot_count": 16, "steps": 3, "pre_roll": 0, "expansion": 4,
                 "kind": "verified", "noise_std": 1e-6, "block_steps": 1},
    "montecarlo": {"expansion": 4, "attack_len": ATTACK_LENGTH, "full_trials": 50,
                   "fast_trials": 2000, "setup_reps": 2},
}


class CheckFailed(AssertionError):
    pass


class RoundAborted(Exception):
    """An attempt of the round failed; the round yields no sample."""


def check(ok, message: str):
    if not ok:
        raise CheckFailed(message)


def max_abs_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


class Tally:
    """Attempted and failed runs. An attempt is one program run together with
    its checks; it fails when it raises or a check fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - every failure counts, the run goes on
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            raise RoundAborted(label) from exc


# -- seeded inputs ---------------------------------------------------------------

def seeded_inputs(seed: int) -> dict:
    """Everything the seed decides: the scenario seeds, a small jitter of x0
    around TANK_X0, and the bias amplitudes of the attack schedule."""
    rng = np.random.default_rng(seed)
    return {
        "seed": int(rng.integers(1, 2 ** 31)),
        "x0": (control.TANK_X0 + rng.uniform(-0.05, 0.05, control.TANK_X0.shape)).tolist(),
        "bias": {str(k): rng.uniform(1.0, 3.0, 2).tolist() for k in range(BIAS_STEPS)},
    }


def scenario_config(inputs: dict, kind: str, *, slot_count: int, steps: int, pre_roll: int,
                    expansion: int = 4, noise_std: float = 0.0,
                    mode: str = "encrypted") -> scenario.ScenarioConfig:
    """Kinds: ``baseline``, ``attack_plain``, ``attack_encrypted``,
    ``verified`` (verified_attack with an empty bias schedule, so the guessing
    attacker never injects) and ``detect`` (verified_attack with the bias)."""
    name = {"verified": "verified_attack", "detect": "verified_attack"}.get(kind, kind)
    raw = {"scenario": name, "mode": mode, "steps": steps, "pre_roll": pre_roll,
           "seed": inputs["seed"], "x0": inputs["x0"],
           "backend": {"slot_count": slot_count, "noise_std": noise_std,
                       "max_depth": 16, "seed": inputs["seed"]},
           "verify": {"expansion": expansion}}
    if kind != "baseline":
        raw["attack"] = {"a_u": {} if kind == "verified" else inputs["bias"],
                         "length": ATTACK_LENGTH, "cooldown_len": COOLDOWN}
    return scenario.ScenarioConfig.from_dict(raw)


def check_trace(trace, ref, n: int, tol: float, verdict: str):
    check(len(trace) == n, f"trace has {len(trace)} steps, expected {n}")
    check(all(v == verdict for v in trace.verdict), f"verdicts are not all {verdict!r}")
    for field in ("x", "u", "y"):
        err = max_abs_diff(getattr(trace, field), getattr(ref, field)[:n])
        check(err <= tol, f"{field} deviates from the plaintext reference by {err:.3g} > {tol:.3g}")


def check_stealth(y_c, u_c, x, clean):
    """The controller sees the clean run while the plant diverges."""
    n = len(x)
    for name, seen, ref in (("y_c", y_c, clean.y[:n]), ("u_c", u_c, clean.u[:n])):
        err = max_abs_diff(seen, ref)
        check(err <= STEALTH_TOL, f"controller-side {name} differs from the clean run by {err:.3g}")
    moved = max_abs_diff(x, clean.x[:n])
    check(moved > DIVERGENCE_MIN, f"attacked plant moved only {moved:.3g} from the clean run")


def diff_ops(a: dict, b: dict) -> dict:
    return {op: a[op] - b[op] for op in a}


# -- workloads --------------------------------------------------------------------

def pooled(values) -> list:
    """Flatten a sequence of values and lists of values."""
    return [x for v in values for x in (v if isinstance(v, list) else [v])]


class Workload:
    """A round yields a list of ``setup_s`` samples, ``step_us`` samples per
    part, the HE ops of ``steps`` steps, and ``extra`` breakdowns (a value or
    a list)."""

    marker = ("verify.lifted_input", None)   # the call that opens each step

    def __init__(self, seed: int, size: dict, counters):
        self.seed = seed
        self.size = size
        self.counters = counters
        self.role_spans: list[tuple[str, list]] = []

    def warm_up(self, tally: Tally):
        """Untimed work before the first round (references, lazy set-up)."""

    def round(self, tally: Tally, traced: bool) -> dict:
        raise NotImplementedError

    def setup_s(self, samples) -> tuple[float, int]:
        """Lower envelope of the set-up time and its sample count."""
        values = pooled(s["setup_s"] for s in samples)
        return min(values), len(values)

    def step_us(self, samples) -> dict[str, tuple[float, int]]:
        """Per part: lower envelope of the step time and its sample count."""
        parts = {p: pooled(s["step_us"][p] for s in samples) for p in samples[0]["step_us"]}
        return {p: (min(v), len(v)) for p, v in parts.items()}


class Loop64(Workload):
    """In-process loop, the four scenario kinds round-robin."""

    KINDS = ("baseline", "attack_plain", "attack_encrypted", "verified")

    def __init__(self, seed, size, counters):
        super().__init__(seed, size, counters)
        self.inputs = seeded_inputs(seed)
        common = {"slot_count": size["slot_count"], "expansion": size["expansion"]}
        long = {"steps": size["steps"], "pre_roll": size["pre_roll"], **common}
        self.n_long = size["steps"] + size["pre_roll"]
        self.short = {k: scenario_config(self.inputs, k, steps=1, pre_roll=0, **common)
                      for k in self.KINDS}
        self.long = {k: scenario_config(self.inputs, k, **long) for k in self.KINDS}
        self.detect = scenario_config(self.inputs, "detect", **long)
        self.plain = {k: scenario_config(self.inputs, k, mode="plain", **long)
                      for k in ("baseline", "attack_plain")}
        self.ref: dict = {}

    def warm_up(self, tally):
        for kind, cfg in self.plain.items():
            self.ref[kind] = tally.attempt(f"reference/{kind}",
                                           lambda cfg=cfg: scenario.run_scenario(cfg)[0])
        self.counters.drain_ops()
        self.round(tally, traced=False)

    def _run(self, cfg):
        start = time.perf_counter()
        trace, code = scenario.run_scenario(cfg)
        return time.perf_counter() - start, trace, code, self.counters.drain_ops()

    def _long(self, kind, traces):
        elapsed, trace, code, ops = self._run(self.long[kind])
        check(code == 0, f"exit code {code}")
        ref = self.ref["baseline" if kind in ("baseline", "verified") else "attack_plain"]
        check_trace(trace, ref, self.n_long, 1e-8, "ok" if kind == "verified" else "n/a")
        if kind.startswith("attack"):
            check_stealth(trace.y_c, trace.u_c, trace.x, traces["baseline"])
        traces[kind] = trace
        return elapsed, ops

    def _short(self, kind):
        elapsed, trace, code, ops = self._run(self.short[kind])
        check(code == 0 and len(trace) == 1, f"one-step run: exit {code}, {len(trace)} steps")
        return elapsed, ops

    def _detect(self):
        _, trace, code, _ = self._run(self.detect)
        check(code == 3 and trace.verdict[-1] == "bottom",
              f"verified_attack exited {code}, expected 3 (detected)")

    def round(self, tally, traced):
        traces, short, long = {}, {}, {}
        ops = dict.fromkeys(("enc", "add", "mul", "rot", "dec"), 0)
        for kind in self.KINDS:
            short[kind], ops_short = tally.attempt(f"{kind}/short", lambda: self._short(kind))
            long[kind], ops_long = tally.attempt(f"{kind}/long", lambda: self._long(kind, traces))
            for op, n in diff_ops(ops_long, ops_short).items():
                ops[op] += n
        tally.attempt("detect", self._detect)
        return {"short": short, "long": long, "ops": ops,
                "steps": len(self.KINDS) * (self.n_long - 1), "extra": {}}

    def setup_s(self, samples):
        """One round of set-ups: the one-step runs of every kind."""
        return sum(min(s["short"][k] for s in samples) for k in self.KINDS), len(samples)

    def step_us(self, samples):
        return {k: (1e6 * (min(s["long"][k] for s in samples)
                           - min(s["short"][k] for s in samples)) / (self.n_long - 1),
                    len(samples))
                for k in self.KINDS}


class Net(Workload):
    """The plant in this process, an attacker proxy process and a controller
    process over TCP."""

    def __init__(self, seed, size, counters):
        super().__init__(seed, size, counters)
        self.inputs = seeded_inputs(seed)
        self.kind = size["kind"]
        common = {"slot_count": size["slot_count"], "expansion": size["expansion"],
                  "noise_std": size["noise_std"]}
        self.n_long = size["steps"] + size["pre_roll"]
        self.short = scenario_config(self.inputs, self.kind, steps=1, pre_roll=0, **common)
        self.long = scenario_config(self.inputs, self.kind, steps=size["steps"],
                                    pre_roll=size["pre_roll"], **common)
        plain = {"steps": size["steps"], "pre_roll": size["pre_roll"], "mode": "plain",
                 "slot_count": size["slot_count"]}
        self.plain = {"clean": scenario_config(self.inputs, "baseline", **plain)}
        if self.kind == "attack_plain":
            self.plain["attack"] = scenario_config(self.inputs, "attack_plain", **plain)
        self.tol = 1e-8 + NOISE_TOL_FACTOR * size["noise_std"]
        self.wire_bytes_per_step = 2 * (5 + 24 + 8 * size["slot_count"])
        self.ref: dict = {}

    def warm_up(self, tally):
        for name, cfg in self.plain.items():
            self.ref[name] = tally.attempt(f"reference/{name}",
                                           lambda cfg=cfg: scenario.run_scenario(cfg)[0])
        self.counters.drain_ops()
        # HE ops of set-up plus one step, to take out of every long session
        self.one_step_ops = tally.attempt(
            "session/one step", lambda: self._session(self.short, traced=False)).ops

    def _session(self, cfg, traced):
        s = roles.run_session(cfg, self.counters, traced)
        n = cfg.steps + cfg.pre_roll
        verified = self.kind == "verified"
        check(len(s.trace) == n, f"plant ran {len(s.trace)} steps, expected {n}")
        check(all(v == ("ok" if verified else "n/a") for v in s.trace.verdict),
              "a verified step was rejected" if verified else "unexpected verdict")
        check(s.frames == 2 * n and s.frame_bytes == n * self.wire_bytes_per_step,
              f"{s.frame_bytes} wire bytes in {s.frames} frames over {n} steps, "
              f"expected {self.wire_bytes_per_step} per step")
        attacked = 0 if verified else min(cfg.steps, ATTACK_LENGTH)
        check(s.attacker["relayed"] == n and s.attacker["tampered"] == attacked,
              f"proxy relayed {s.attacker['relayed']} and tampered {s.attacker['tampered']}")
        if n == self.n_long:
            check_trace(s.trace, self.ref["attack" if not verified else "clean"], n, self.tol,
                        "ok" if verified else "n/a")
            if not verified:
                check_stealth(s.controller["y_c"], s.controller["u_c"], s.trace.x,
                              self.ref["clean"])
        if traced:
            self.role_spans += [("controller", s.controller["spans"]),
                                ("attacker", s.attacker["spans"])]
        return s

    def round(self, tally, traced):
        s = tally.attempt("session", lambda: self._session(self.long, traced))
        # the first gap also waits for the controller's set-up
        gaps = np.diff(s.sent_at)[1:]
        b = self.size["block_steps"]
        blocks = [1e6 * float(np.mean(gaps[i:i + b])) for i in range(0, len(gaps) - b + 1, b)]
        return {"setup_s": [s.setup_s], "step_us": {self.kind: blocks},
                "ops": diff_ops(s.ops, self.one_step_ops), "steps": self.n_long - 1,
                "extra": {"cli.role_ready_s": s.ready_s,
                          "attack.tampered_frames": float(s.attacker["tampered"]),
                          "netloop.wire_bytes_per_step": s.frame_bytes / self.n_long,
                          "netloop.bytes_per_frame": s.frame_bytes / s.frames}}


class MonteCarlo(Workload):
    """``run_detection_experiment`` in full mode, then in fast mode."""

    marker = ("verify.ecd", None)

    def warm_up(self, tally):
        self.round(tally, traced=False)

    def _experiment(self, trials, mode, attack_len=None):
        size = self.size
        start = time.perf_counter()
        result = verify.run_detection_experiment(size["expansion"],
                                                 attack_len or size["attack_len"],
                                                 trials, mode=mode, seed=self.seed)
        elapsed = time.perf_counter() - start
        check_detection_law(result)
        return elapsed, result, self.counters.drain_ops()

    def round(self, tally, traced):
        size = self.size
        # set-up: a one-trial, one-step experiment (key context, verifier,
        # encrypted matrix and a single step), the same work for every seed
        setups = [tally.attempt("full/1 step", lambda: self._experiment(1, "full", 1))[0]
                  for _ in range(size["setup_reps"])]
        t_full, full, ops = tally.attempt("full", lambda: self._experiment(size["full_trials"], "full"))
        t_fast, _, _ = tally.attempt("fast", lambda: self._experiment(size["fast_trials"], "fast"))
        steps = (sum(k * n for k, n in full["counts"].items())
                 + size["attack_len"] * full["undetected"])
        return {"setup_s": setups,
                "step_us": {"full": [1e6 * t_full / steps]}, "ops": ops, "steps": steps,
                "extra": {"trials_per_s.full": size["full_trials"] / t_full,
                          "trials_per_s.fast": size["fast_trials"] / t_fast,
                          "verify.steps_per_trial": steps / size["full_trials"]}}


def check_detection_law(result: dict):
    """Per-step detection fractions within binomial bounds of
    (1-p) p^(k-1), p = 1/C(lambda, lambda/2); the undetected share of p^L."""
    lam, n, L = result["expansion"], result["trials"], result["attack_len"]
    p = 1.0 / math.comb(lam, lam // 2)
    observed = [(result["counts"][k], (1 - p) * p ** (k - 1)) for k in range(1, L + 1)]
    observed.append((result["undetected"], p ** L))
    for k, (count, q) in enumerate(observed, start=1):
        slack = BINOMIAL_Z * math.sqrt(n * q * (1 - q)) + 1
        check(abs(count - n * q) <= slack,
              f"step {k}: {count} of {n} detected, expected {n * q:.1f} +- {slack:.1f}")


WORKLOADS = {"loop64": Loop64, "net64": Net, "net_wide": Net, "montecarlo": MonteCarlo}
