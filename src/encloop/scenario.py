"""Scenario configuration and orchestration.

Scenarios are described by a flat JSON document; every invariant violation
surfaces as a named ``ConfigError`` rather than a crash. The four scenario
kinds mirror the experiment matrix: an attack-free baseline, the two covert
attack variants, and a covert attack against the verified pipeline.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import attack, control, verify
from .backend import BackendConfig, context_create, party_rng

__all__ = ["ConfigError", "ScenarioConfig", "build_attacker", "run_scenario",
           "write_trace_svg"]

SCENARIOS = ("baseline", "attack_plain", "attack_encrypted", "verified_attack")
# the keys each section of a config accepts
KEYS = {
    "config": ("scenario", "backend", "model", "controller", "x0", "attack", "verify",
               "mode", "pre_roll", "steps", "seed"),
    "backend": ("slot_count", "noise_std", "max_depth", "seed"),
    "model": ("A", "B", "C"),
    "controller": ("K", "u0"),
    "attack": ("a_u", "length", "cooldown_len"),
    "verify": ("expansion", "num_challenges", "threshold"),
}


class ConfigError(ValueError):
    def __init__(self, name: str, message: str):
        super().__init__(f"{name}: {message}")
        self.name = name


def _check_keys(section: str, raw: dict):
    if not isinstance(raw, dict):
        raise ConfigError(section, f"expected a JSON object, got {raw!r}")
    unknown = sorted(set(raw) - set(KEYS[section]))
    if unknown:
        raise ConfigError(section, f"unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"expected {', '.join(KEYS[section])}")


@contextmanager
def _section(name: str):
    """Report a malformed value read inside the block as a ConfigError
    naming ``name``."""
    try:
        yield
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(name, str(exc)) from exc


def _count(value, key: str) -> int:
    """The count ``value`` of ``key`` as an int; a boolean or a number with a
    fractional part, infinite or NaN raises ``ValueError`` rather than being
    truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _finite(name: str, *arrays):
    """Raise ``ValueError`` unless every entry of ``arrays`` is finite."""
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError(f"{name} must be finite, got {np.asarray(a).tolist()}")


def _parsed():
    """A field derived from the document, set once by ``__post_init__``."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, parsed once from ``document``: the config's own JSON copy
    of the object it was parsed from, which the networked plant sends as the
    HELLO. Two configs are equal when their documents are."""

    document: dict
    scenario: str = _parsed()
    backend: BackendConfig = _parsed()
    model: control.LtiModel = _parsed()
    controller: control.AffineController = _parsed()
    x0: np.ndarray = _parsed()
    pre_roll: int = _parsed()
    steps: int = _parsed()
    seed: int = _parsed()
    mode: str = _parsed()            # channel: plain | encrypted
    attack_plan: attack.AttackPlan | None = _parsed()
    expansion: int = _parsed()       # verification blocks per ciphertext
    lifted_blocks: int = _parsed()   # controller blocks: expansion when verified, else 1
    num_challenges: int = _parsed()
    threshold: float = _parsed()

    def __post_init__(self):
        with _section("config"):
            raw = json.loads(json.dumps(self.document))
        _check_keys("config", raw)
        scenario = raw.get("scenario", "baseline")
        if scenario not in SCENARIOS:
            raise ConfigError("scenario", f"unknown scenario {scenario!r}; "
                              f"expected one of {', '.join(SCENARIOS)}")
        with _section("seed"):
            seed = _count(raw.get("seed", 0), "seed")
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
        be = raw.get("backend", {})
        _check_keys("backend", be)
        with _section("backend"):
            backend = BackendConfig(
                slot_count=_count(be.get("slot_count", 64), "slot_count"),
                noise_std=float(be.get("noise_std", 0.0)),
                max_depth=_count(be.get("max_depth", 16), "max_depth"),
                seed=_count(be.get("seed", seed), "seed"),
            )

        model_raw = raw.get("model", "quadruple_tank")
        if model_raw == "quadruple_tank":
            model = control.quadruple_tank()
        elif isinstance(model_raw, dict):
            _check_keys("model", model_raw)
            with _section("model"):
                model = control.LtiModel(A=model_raw["A"], B=model_raw["B"],
                                         C=model_raw["C"])
                _finite("model", model.A, model.B, model.C)
        else:
            raise ConfigError("model", f"unknown model preset {model_raw!r}")

        ctrl_raw = raw.get("controller", "quadruple_tank")
        if ctrl_raw == "quadruple_tank":
            ctrl = control.tank_controller()
        elif isinstance(ctrl_raw, dict):
            _check_keys("controller", ctrl_raw)
            with _section("controller"):
                ctrl = control.AffineController(K=ctrl_raw["K"], u0=ctrl_raw["u0"])
                _finite("controller", ctrl.K, ctrl.u0)
        else:
            raise ConfigError("controller", f"unknown controller preset {ctrl_raw!r}")
        with _section("controller"):
            control.check_controller(model, ctrl)

        with _section("x0"):
            x0 = np.asarray(raw.get("x0", control.TANK_X0), dtype=float)
            _finite("x0", x0)
        if x0.shape != (model.n,):
            raise ConfigError("x0", f"expected length {model.n}, got {x0.shape}")

        plan = None
        if scenario != "baseline":
            atk = raw.get("attack")
            if atk is None:
                raise ConfigError("attack", f"scenario {scenario!r} needs an attack plan")
            if isinstance(atk, dict) and "variant" in atk:
                raise ConfigError("attack", "'variant' is not a key: the scenario kind "
                                  "alone picks the attacker; use scenario 'attack_plain' "
                                  "for the plaintext model, 'attack_encrypted' for the "
                                  "encrypted model")
            _check_keys("attack", atk)
            with _section("attack"):
                plan = attack.AttackPlan(
                    schedule={int(k): np.asarray(v, dtype=float)
                              for k, v in atk.get("a_u", {}).items()},
                    length=_count(atk["length"], "length"),
                    cooldown_len=_count(atk.get("cooldown_len", model.n), "cooldown_len"),
                )
                if any(a.shape != (model.m,) for a in plan.schedule.values()):
                    raise ValueError(f"bias vectors must have length {model.m}")
                _finite("bias vectors", *plan.schedule.values())
                attack.check_cooldown(model, plan)

        ver = raw.get("verify", {})
        _check_keys("verify", ver)
        with _section("verify"):
            expansion = _count(ver.get("expansion", 4), "expansion")
            num_challenges = _count(ver.get("num_challenges", 16), "num_challenges")
            threshold = float(ver.get("threshold", 1e-9))
            if scenario == "verified_attack":
                verify.check_params(expansion, num_challenges, threshold)

        mode = raw.get("mode")
        if mode is None:
            mode = "plain" if scenario in ("baseline", "attack_plain") else "encrypted"
        if mode not in ("plain", "encrypted"):
            raise ConfigError("mode", f"expected plain or encrypted, got {mode!r}")
        if scenario in ("attack_encrypted", "verified_attack") and mode != "encrypted":
            raise ConfigError("mode", f"scenario {scenario!r} requires encrypted mode")
        lifted_blocks = expansion if scenario == "verified_attack" else 1
        if mode == "encrypted":
            # the encrypted-model attacker's widest matrix is (n*m x n)
            need = verify.lifted_dim(model.p, model.m) * lifted_blocks
            if scenario == "attack_encrypted":
                need = max(need, model.n * model.m)
            if need > backend.slot_count:
                raise ConfigError("backend", f"scenario {scenario!r} needs slot_count "
                                  f">= {need}, got {backend.slot_count}")
        if scenario == "attack_encrypted":
            depth = attack.encrypted_attack_depth(plan)
            if depth > backend.max_depth:
                raise ConfigError("backend", f"an encrypted-model attack of length "
                                  f"{plan.length} needs max_depth >= {depth}, "
                                  f"got {backend.max_depth}")

        with _section("horizon"):
            pre_roll = _count(raw.get("pre_roll", 20), "pre_roll")
            steps = _count(raw.get("steps", 40), "steps")
        if pre_roll < 0 or steps < 1:
            raise ConfigError("horizon", "pre_roll must be >= 0 and steps >= 1")

        for name, value in dict(
                document=raw, scenario=scenario, backend=backend, model=model,
                controller=ctrl, x0=x0, pre_roll=pre_roll, steps=steps, seed=seed,
                mode=mode, attack_plan=plan, expansion=expansion, lifted_blocks=lifted_blocks,
                num_challenges=num_challenges, threshold=threshold).items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        """Parse ``raw``; a bad value raises a ConfigError naming its section.
        Later changes to ``raw`` do not reach the config."""
        return cls(raw)

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError("json", str(exc)) from exc
        return cls.from_dict(raw)


def build_verifier(cfg: ScenarioConfig) -> "verify.VerifierContext | None":
    """Verifier over the lifted controller block, h(w) = K_aug w, in a
    ``verified_attack`` scenario; ``None`` in any other."""
    if cfg.scenario != "verified_attack":
        return None
    K_aug = verify.lift_affine(-cfg.controller.K)
    return verify.setup(cfg.backend.slot_count, K_aug, cfg.expansion, cfg.num_challenges,
                        threshold=cfg.threshold, noise_std=cfg.backend.noise_std,
                        seed=party_rng("verifier", cfg.seed))


def build_attacker(cfg: ScenarioConfig, pub_ctx):
    """The scenario's man-in-the-middle attacker, holding only the
    attacker's key context ``pub_ctx``, without the secret key (``None`` on
    a plain channel); ``None`` when the scenario has no attack plan, or a
    plaintext-model plan whose biases are all zero (each splice would be
    skipped). The scenario kind alone picks it. Used in-process and by the
    TCP proxy."""
    plan = cfg.attack_plan
    if plan is None or (cfg.scenario != "attack_encrypted"
                        and not any(np.any(a) for a in plan.schedule.values())):
        return None
    if cfg.scenario == "verified_attack":
        return attack.GuessingAttacker(cfg.model, cfg.attack_plan, pub_ctx,
                                       expansion=cfg.expansion,
                                       rng=party_rng("guesser", cfg.seed))
    enc_model = None
    if cfg.scenario == "attack_encrypted":
        enc_model = attack.build_enc_model(pub_ctx, cfg.model)
    return attack.CovertAttacker(cfg.model, cfg.attack_plan, ctx=pub_ctx,
                                 enc_model=enc_model)


def run_scenario(cfg: ScenarioConfig) -> tuple[control.SimTrace, int]:
    """Execute one scenario in-process. Returns the trace and the exit code
    (0 completed, 3 verification tripped)."""
    ctx = context_create(cfg.backend) if cfg.mode == "encrypted" else None
    verifier = build_verifier(cfg)
    pub = (context_create(cfg.backend, "attacker")
           if ctx is not None and cfg.attack_plan is not None else None)
    attacker = build_attacker(cfg, pub)

    trace = control.run_closed_loop(cfg.model, cfg.controller, cfg.x0, cfg.steps,
                                    attacker=attacker, ctx=ctx,
                                    pre_roll=cfg.pre_roll, verifier=verifier)
    return trace, 3 if trace.tripped else 0


# -- minimal SVG trajectory plot ------------------------------------------------

SVG_WIDTH, SVG_HEIGHT = 720, 420  # pixels
_COLORS = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
           "#8c564b", "#e377c2", "#7f7f7f"]


def write_trace_svg(trace: control.SimTrace, path):
    """One polyline per signal channel (u, y, u_c, y_c components) over k;
    a one-step trace also gets a marker per channel."""
    series = []
    for name, rows in (("u", trace.u), ("y", trace.y),
                       ("uc", trace.u_c), ("yc", trace.y_c)):
        if not rows:
            continue
        arr = np.array(rows)
        for col in range(arr.shape[1]):
            series.append((f"{name}{col + 1}", arr[:, col]))
    if not series:
        raise ValueError("empty trace: nothing to plot")
    ks = np.array(trace.k, dtype=float)
    k_span = ks[-1] - ks[0] or 1.0  # one step: a unit span, as for a constant value
    all_vals = np.concatenate([v for _, v in series])
    lo, hi = float(all_vals.min()), float(all_vals.max())
    if hi - lo < 1e-12:
        hi = lo + 1.0
    mx, my = 60, 30
    pw, ph = SVG_WIDTH - 2 * mx, SVG_HEIGHT - 2 * my

    def sx(k):
        return mx + pw * (k - ks[0]) / k_span

    def sy(v):
        return my + ph * (1 - (v - lo) / (hi - lo))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}">',
             f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
             f'<line x1="{mx}" y1="{my + ph}" x2="{mx + pw}" y2="{my + ph}" stroke="black"/>',
             f'<line x1="{mx}" y1="{my}" x2="{mx}" y2="{my + ph}" stroke="black"/>',
             f'<text x="{mx + pw / 2}" y="{SVG_HEIGHT - 6}" font-size="12">k</text>',
             f'<text x="{mx - 50}" y="{my - 8}" font-size="12">{lo:.3g} .. {hi:.3g}</text>']
    for idx, (name, vals) in enumerate(series):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join(f"{sx(k):.2f},{sy(v):.2f}" for k, v in zip(ks, vals))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.2"/>')
        if len(vals) == 1:  # a one-point polyline renders as nothing
            parts.append(f'<circle cx="{sx(ks[0]):.2f}" cy="{sy(vals[0]):.2f}" r="3" '
                         f'fill="{color}"/>')
        lx, ly = mx + pw + 4, my + 14 * idx
        parts.append(f'<line x1="{lx}" y1="{ly}" x2="{lx + 14}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 18}" y="{ly + 4}" font-size="10">{name}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
