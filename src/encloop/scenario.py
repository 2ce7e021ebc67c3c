"""Scenario configuration and orchestration.

Scenarios are described by a flat JSON document; every invariant violation
surfaces as a named ``ConfigError`` rather than a crash. The four scenario
kinds mirror the experiment matrix: an attack-free baseline, the two covert
attack variants, and a covert attack against the verified pipeline.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import attack, control, verify
from .backend import BackendConfig, context_create

__all__ = ["ConfigError", "ScenarioConfig", "build_attacker", "run_scenario",
           "write_trace_svg"]

SCENARIOS = ("baseline", "attack_plain", "attack_encrypted", "verified_attack")


class ConfigError(ValueError):
    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


@dataclass
class ScenarioConfig:
    scenario: str = "baseline"
    backend: BackendConfig = field(default_factory=lambda: BackendConfig(slot_count=64))
    model: control.LtiModel = field(default_factory=control.quadruple_tank)
    controller: control.AffineController = field(default_factory=control.tank_controller)
    x0: np.ndarray = field(default_factory=lambda: control.TANK_X0.copy())
    pre_roll: int = 20
    steps: int = 40
    seed: int = 0
    mode: str = "plain"            # channel: plain | encrypted
    attack_plan: attack.AttackPlan | None = None
    expansion: int = 4             # verification blocks per ciphertext
    num_challenges: int = 16
    threshold: float = 1e-9

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        scenario = raw.get("scenario", "baseline")
        if scenario not in SCENARIOS:
            raise ConfigError("scenario", f"unknown scenario {scenario!r}; "
                              f"expected one of {', '.join(SCENARIOS)}")
        be = raw.get("backend", {})
        try:
            backend = BackendConfig(
                slot_count=int(be.get("slot_count", 64)),
                noise_std=float(be.get("noise_std", 0.0)),
                max_depth=int(be.get("max_depth", 16)),
                seed=int(be.get("seed", raw.get("seed", 0))),
            )
        except ValueError as exc:
            raise ConfigError("backend", str(exc)) from exc

        model_raw = raw.get("model", "quadruple_tank")
        if model_raw == "quadruple_tank":
            model = control.quadruple_tank()
        elif isinstance(model_raw, dict):
            try:
                model = control.LtiModel(A=model_raw["A"], B=model_raw["B"],
                                         C=model_raw["C"])
            except (KeyError, ValueError) as exc:
                raise ConfigError("model", str(exc)) from exc
        else:
            raise ConfigError("model", f"unknown model preset {model_raw!r}")

        ctrl_raw = raw.get("controller", "quadruple_tank")
        if ctrl_raw == "quadruple_tank":
            ctrl = control.tank_controller()
        elif isinstance(ctrl_raw, dict):
            try:
                ctrl = control.AffineController(K=ctrl_raw["K"], u0=ctrl_raw["u0"])
            except (KeyError, ValueError) as exc:
                raise ConfigError("controller", str(exc)) from exc
        else:
            raise ConfigError("controller", f"unknown controller preset {ctrl_raw!r}")

        x0 = np.asarray(raw.get("x0", control.TANK_X0), dtype=float)
        if x0.shape != (model.n,):
            raise ConfigError("x0", f"expected length {model.n}, got {x0.shape}")

        plan = None
        if scenario != "baseline":
            atk = raw.get("attack")
            if atk is None:
                raise ConfigError("attack", f"scenario {scenario!r} needs an attack plan")
            if "variant" in atk:
                raise ConfigError("attack", "'variant' is not a key: the scenario kind "
                                  "alone picks the attacker; use scenario 'attack_plain' "
                                  "for the plaintext model, 'attack_encrypted' for the "
                                  "encrypted model")
            try:
                plan = attack.AttackPlan(
                    schedule={int(k): np.asarray(v, dtype=float)
                              for k, v in atk.get("a_u", {}).items()},
                    length=int(atk["length"]),
                    cooldown_len=int(atk.get("cooldown_len", model.n)),
                )
            except (KeyError, ValueError) as exc:
                raise ConfigError("attack", str(exc)) from exc
            for a in plan.schedule.values():
                if a.shape != (model.m,):
                    raise ConfigError("attack", f"bias vectors must have length {model.m}")
            try:
                attack.check_cooldown(model, plan)
            except ValueError as exc:
                raise ConfigError("attack", str(exc)) from exc

        ver = raw.get("verify", {})
        expansion = int(ver.get("expansion", ver.get("lambda", 4)))
        num_challenges = int(ver.get("num_challenges", ver.get("M", 16)))
        threshold = float(ver.get("threshold", ver.get("epsilon", 1e-9)))
        if scenario == "verified_attack":
            if expansion < 2 or expansion % 2:
                raise ConfigError("verify", f"expansion must be even >= 2, got {expansion}")
            if num_challenges < 1:
                raise ConfigError("verify", "need at least one challenge value")
            if threshold <= 0:
                raise ConfigError("verify", "threshold must be positive")

        mode = raw.get("mode")
        if mode is None:
            mode = "plain" if scenario in ("baseline", "attack_plain") else "encrypted"
        if mode not in ("plain", "encrypted"):
            raise ConfigError("mode", f"expected plain or encrypted, got {mode!r}")
        if scenario in ("attack_encrypted", "verified_attack") and mode != "encrypted":
            raise ConfigError("mode", f"scenario {scenario!r} requires encrypted mode")
        if mode == "encrypted":
            # one lifted block per ciphertext, expansion blocks when verified;
            # the encrypted-model attacker's widest matrix is (n*m x n)
            blocks = expansion if scenario == "verified_attack" else 1
            need = verify.lifted_dim(model.p, model.m) * blocks
            if scenario == "attack_encrypted":
                need = max(need, model.n * model.m)
            if need > backend.slot_count:
                raise ConfigError("backend", f"scenario {scenario!r} needs slot_count "
                                  f">= {need}, got {backend.slot_count}")

        pre_roll = int(raw.get("pre_roll", 20))
        steps = int(raw.get("steps", 40))
        if pre_roll < 0 or steps < 1:
            raise ConfigError("horizon", "pre_roll must be >= 0 and steps >= 1")

        return cls(scenario=scenario, backend=backend, model=model, controller=ctrl,
                   x0=x0, pre_roll=pre_roll, steps=steps, seed=int(raw.get("seed", 0)),
                   mode=mode, attack_plan=plan, expansion=expansion,
                   num_challenges=num_challenges, threshold=threshold)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("json", str(exc)) from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        """JSON-serializable form (used as the networked HELLO payload)."""
        out = {
            "scenario": self.scenario,
            "backend": {
                "slot_count": self.backend.slot_count,
                "noise_std": self.backend.noise_std,
                "max_depth": self.backend.max_depth,
                "seed": self.backend.seed,
            },
            "model": {"A": self.model.A.tolist(), "B": self.model.B.tolist(),
                      "C": self.model.C.tolist()},
            "controller": {"K": self.controller.K.tolist(),
                           "u0": self.controller.u0.tolist()},
            "x0": self.x0.tolist(),
            "pre_roll": self.pre_roll,
            "steps": self.steps,
            "seed": self.seed,
            "mode": self.mode,
            "verify": {"expansion": self.expansion,
                       "num_challenges": self.num_challenges,
                       "threshold": self.threshold},
        }
        if self.attack_plan is not None:
            out["attack"] = {
                "a_u": {str(k): v.tolist() for k, v in self.attack_plan.schedule.items()},
                "length": self.attack_plan.length,
                "cooldown_len": self.attack_plan.cooldown_len,
            }
        return out


def build_verifier(cfg: ScenarioConfig) -> "verify.VerifierContext":
    """Verifier over the lifted controller block: h(w) = K_aug w."""
    K_aug = verify.lift_affine(-cfg.controller.K, cfg.controller.u0)
    return verify.setup(cfg.backend.slot_count, K_aug.shape[0],
                        lambda w: K_aug @ w, cfg.expansion, cfg.num_challenges,
                        threshold=cfg.threshold, seed=cfg.seed)


def build_attacker(cfg: ScenarioConfig, pub_ctx):
    """The scenario's man-in-the-middle attacker, holding only the public
    context ``pub_ctx`` (``None`` on a plain channel); ``None`` when the
    scenario has no attack plan. The scenario kind alone picks it. Used
    in-process and by the TCP proxy."""
    if cfg.attack_plan is None:
        return None
    if cfg.scenario == "verified_attack":
        return attack.GuessingAttacker(cfg.model, cfg.attack_plan, pub_ctx,
                                       expansion=cfg.expansion,
                                       rng=np.random.default_rng(cfg.seed + 1))
    enc_model = None
    if cfg.scenario == "attack_encrypted":
        enc_model = attack.build_enc_model(pub_ctx, cfg.model)
    return attack.CovertAttacker(cfg.model, cfg.attack_plan, ctx=pub_ctx,
                                 enc_model=enc_model)


def run_scenario(cfg: ScenarioConfig) -> tuple[control.SimTrace, int]:
    """Execute one scenario in-process. Returns the trace and the exit code
    (0 completed, 3 verification tripped)."""
    ctx = context_create(cfg.backend) if cfg.mode == "encrypted" else None
    verifier = build_verifier(cfg) if cfg.scenario == "verified_attack" else None
    pub = ctx.public_context() if ctx is not None and cfg.attack_plan is not None else None
    attacker = build_attacker(cfg, pub)

    trace = control.run_closed_loop(cfg.model, cfg.controller, cfg.x0, cfg.steps,
                                    attacker=attacker, mode=cfg.mode, ctx=ctx,
                                    pre_roll=cfg.pre_roll, verifier=verifier)
    code = 3 if trace.verdict and trace.verdict[-1] == "bottom" else 0
    return trace, code


# -- minimal SVG trajectory plot ------------------------------------------------

_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f"]


def write_trace_svg(trace: control.SimTrace, path, width=720, height=420):
    """One polyline per signal channel (u, y, u_c, y_c components) over k."""
    series = []
    for name, rows in (("u", trace.u), ("y", trace.y),
                       ("uc", trace.u_c), ("yc", trace.y_c)):
        if not rows:
            continue
        arr = np.array(rows)
        for col in range(arr.shape[1]):
            series.append((f"{name}{col + 1}", arr[:, col]))
    ks = np.array(trace.k, dtype=float)
    if not series or len(ks) < 2:
        raise ValueError("trace too short to plot")

    all_vals = np.concatenate([v for _, v in series])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    mx, my = 60, 30
    pw, ph = width - 2 * mx, height - 2 * my

    def sx(k):
        return mx + pw * (k - ks[0]) / (ks[-1] - ks[0])

    def sy(v):
        return my + ph * (1 - (v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>',
             f'<line x1="{mx}" y1="{my + ph}" x2="{mx + pw}" y2="{my + ph}" stroke="black"/>',
             f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{my + ph}" stroke="black"/>',
             f'<text x="{mx + pw / 2}" y="{height - 6}" font-size="12">k</text>',
             f'<text x="{mx - 50}" y="{my - 8}" font-size="12">{lo:.3g} .. {hi:.3g}</text>']
    for idx, (name, vals) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in zip(ks, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        lx, ly = mx + pw + 4, my + 14 * idx
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 14}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 4}" font-size="10">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
