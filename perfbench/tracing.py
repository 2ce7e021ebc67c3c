"""Benchmark-side instrumentation of the encloop package.

Nothing here edits the package; it rebinds names from outside.

* ``Counters`` is installed for every run. It keeps a registry of the key
  contexts the loop creates, so HE op counts can be summed over every context,
  and counts the bytes of the plant's ciphertext frames and the time each was
  sent or received. The registry costs one call per context (set-up only) and
  the frame hook one call per frame.
* ``Tracer`` is installed for traced rounds only. It wraps every function in
  ``TARGETS`` in each ``encloop`` module namespace that bound it (methods on
  their class), and every call records a span
  ``(name, start_ns, end_ns, parent, step, tag)`` in memory.

``step`` counts the completed calls of a marker span since the current
top-level span began, so set-up work has step 0.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

MSG_ENC_Y = 0x01
MSG_ENC_U = 0x02

TARGETS = (
    "backend.context_create",
    "backend.KeyContext.encrypt",
    "backend.KeyContext.decrypt",
    "backend.hom_add",
    "backend.hom_sub",
    "backend.hom_neg",
    "backend.hom_mul",
    "backend.rotate",
    "backend.serialize_ciphertext",
    "backend.deserialize_ciphertext",
    "linalg.encrypt_matrix",
    "linalg.enc_matvec",
    "linalg.enc_matmat",
    "linalg.enc_matrix_power",
    "control.run_closed_loop",
    "control.encrypt_controller",
    "control.controller_eval_encrypted",
    "attack.build_enc_model",
    "attack.CovertAttacker.tamper_measurement",
    "attack.CovertAttacker.tamper_control",
    "attack.GuessingAttacker.tamper_measurement",
    "attack.GuessingAttacker.tamper_control",
    "verify.setup",
    "verify.lift_affine",
    "verify.lifted_input",
    "verify.ecd",
    "verify.dcd",
    "verify.run_detection_experiment",
    "scenario.run_scenario",
    "scenario.build_verifier",
    "netloop.run_plant",
    "netloop.run_controller",
    "netloop.run_attacker",
    "netloop.send_frame",
    "netloop.recv_frame",
)

# span tag from (args, kwargs, result)
TAGS = {
    "netloop.send_frame": lambda a, kw, r: a[1],
    "netloop.recv_frame": lambda a, kw, r: r[0],
    "verify.dcd": lambda a, kw, r: bool(r.bottom),
    "verify.run_detection_experiment": lambda a, kw, r: kw.get("mode"),
}


def _resolve(target: str):
    """(owner, attribute, current value) for ``module.name`` or
    ``module.Class.method``."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"encloop.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1], getattr(owner, path[-1])


class _Patches:
    """Rebinds a function everywhere the package bound it; undoes it on
    ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, target: str, make_wrapper):
        owner, attr, current = _resolve(target)
        wrapper = make_wrapper(current)
        if isinstance(owner, type):
            owners = [(owner, attr)]
        else:
            owners = [(mod, name)
                      for mod in list(sys.modules.values())
                      if getattr(mod, "__name__", "").split(".")[0] == "encloop"
                      for name, value in list(vars(mod).items()) if value is current]
        for obj, name in owners:
            self._undo.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)

    def restore(self):
        for obj, name, value in reversed(self._undo):
            setattr(obj, name, value)
        self._undo.clear()


class Counters:
    """Key-context registry and plant-side frame hook (bytes and times)."""

    OPS = ("enc", "add", "mul", "rot", "dec")

    def __init__(self):
        self.contexts: list = []
        self.frames = 0
        self.frame_bytes = 0
        self.sent_at: list[float] = []       # ENC_Y frames, perf_counter seconds
        self.received_at: list[float] = []   # ENC_U frames
        self._patches = _Patches()

    def install(self, frames: bool = True):
        contexts = self.contexts

        def registering(init):
            @functools.wraps(init)
            def __init__(ctx, *args, **kwargs):
                init(ctx, *args, **kwargs)
                contexts.append(ctx)
            return __init__

        self._patches.rebind("backend.KeyContext.__init__", registering)
        if frames:
            self._patches.rebind("netloop.send_frame", self._count_send)
            self._patches.rebind("netloop.recv_frame", self._count_recv)

    def uninstall(self):
        self._patches.restore()

    def _count(self, msg_type: int, payload: bytes):
        if msg_type in (MSG_ENC_Y, MSG_ENC_U):
            self.frames += 1
            self.frame_bytes += 5 + len(payload)

    def _count_send(self, send):
        @functools.wraps(send)
        def send_frame(sock, msg_type, payload=b""):
            if msg_type == MSG_ENC_Y:
                self.sent_at.append(time.perf_counter())
            self._count(msg_type, payload)
            return send(sock, msg_type, payload)
        return send_frame

    def _count_recv(self, recv):
        @functools.wraps(recv)
        def recv_frame(sock):
            msg_type, payload = recv(sock)
            if msg_type == MSG_ENC_U:
                self.received_at.append(time.perf_counter())
            self._count(msg_type, payload)
            return msg_type, payload
        return recv_frame

    def drain_ops(self) -> dict[str, int]:
        """HE op counts summed over every context created since the last
        drain."""
        total = dict.fromkeys(self.OPS, 0)
        for ctx in self.contexts:
            for op in self.OPS:
                total[op] += ctx.op_counts[op]
        self.contexts.clear()
        return total

    def drain_frames(self) -> tuple[int, int, list[float], list[float]]:
        out = (self.frames, self.frame_bytes, self.sent_at, self.received_at)
        self.frames = self.frame_bytes = 0
        self.sent_at, self.received_at = [], []
        return out


class Tracer:
    """In-memory span recorder over ``TARGETS``."""

    def __init__(self, marker: str, marker_tag=None):
        self.spans: list = []
        self.marker = marker
        self.marker_tag = marker_tag
        self.step = 0
        self._stack: list[int] = []
        self._patches = _Patches()

    def install(self):
        for target in TARGETS:
            self._patches.rebind(target, functools.partial(self._wrap, target))

    def uninstall(self):
        self._patches.restore()

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        tag_of = TAGS.get(name)
        is_marker = name == self.marker
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0:
                tracer.step = 0
            step = tracer.step
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, step, "raised")
                stack.pop()
                raise
            end = clock()
            stack.pop()
            tag = tag_of(args, kwargs, result) if tag_of else None
            spans[idx] = (name, start, end, parent, step, tag)
            if is_marker and (tracer.marker_tag is None or tag == tracer.marker_tag):
                tracer.step += 1
            return result
        return traced


# -- span analysis ---------------------------------------------------------------

class SpanTable:
    """Durations and self times of one process's spans (ns)."""

    def __init__(self, spans):
        self.spans = spans
        child = [0] * len(spans)
        for name, start, end, parent, step, tag in spans:
            if parent >= 0:
                child[parent] += end - start
        self.dur = [s[2] - s[1] for s in spans]
        self.self_ns = [d - c for d, c in zip(self.dur, child)]
        self.root = []
        self._by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.root.append(i if s[3] < 0 else self.root[s[3]])
            self._by_name.setdefault(s[0], []).append(i)

    def where(self, *names, tag=...):
        return [i for name in names for i in self._by_name.get(name, ())
                if tag is ... or self.spans[i][5] == tag]


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def _frame_legs(table: SpanTable, pairs):
    """Gaps (ns) from the end of a received frame to the start of the next
    sent frame, for each (received type, sent type) pair."""
    order = sorted(table.where("netloop.send_frame", "netloop.recv_frame"),
                   key=lambda i: table.spans[i][1])
    legs = {pair: [] for pair in pairs}
    waiting = {}
    for i in order:
        name, start, end, _, _, tag = table.spans[i]
        if name == "netloop.recv_frame":
            waiting[tag] = end
        else:
            for got, sent in pairs:
                if sent == tag and got in waiting:
                    legs[(got, sent)].append(start - waiting.pop(got))
    return legs


def layer_metrics(bench_spans: list, roles: list[tuple[str, list]], steps: int) -> dict:
    """Per-layer metrics from the spans of the benchmark process (the plant
    or the in-process loop) and of each role process. ``steps`` is the number
    of loop steps (or Monte Carlo steps) the traced rounds ran."""
    bench = SpanTable(bench_spans)
    tables = [bench] + [SpanTable(s) for _, s in roles]
    per_step = 1.0 / steps if steps else 0.0
    us, ms = 1e-3, 1e-6

    def pooled(values_of, *names, tag=...):
        return [getattr(t, values_of)[i] for t in tables for i in t.where(*names, tag=tag)]

    def self_us(*names):
        return median(pooled("self_ns", *names)) * us

    def dur(*names, scale=us):
        return median(pooled("dur", *names)) * scale

    out = {
        "backend.enc_us": self_us("backend.KeyContext.encrypt"),
        "backend.dec_us": self_us("backend.KeyContext.decrypt"),
        "backend.add_us": self_us("backend.hom_add", "backend.hom_sub", "backend.hom_neg"),
        "backend.mul_us": self_us("backend.hom_mul"),
        "backend.rot_us": self_us("backend.rotate"),
        "backend.serialize_us": self_us("backend.serialize_ciphertext"),
        "backend.deserialize_us": self_us("backend.deserialize_ciphertext"),
        "linalg.matvec_us": dur("linalg.enc_matvec"),
        "linalg.encrypt_matrix_ms": dur("linalg.encrypt_matrix", scale=ms),
        "control.encrypt_controller_ms": dur("control.encrypt_controller", scale=ms),
        "attack.build_enc_model_ms": dur("attack.build_enc_model", scale=ms),
        "verify.ecd_us": dur("verify.ecd"),
        "verify.dcd_us": dur("verify.dcd"),
        "verify.setup_ms": dur("verify.setup", scale=ms),
        "scenario.build_verifier_ms": dur("scenario.build_verifier", scale=ms),
    }

    codec = sum(pooled("self_ns", "backend.serialize_ciphertext",
                       "backend.deserialize_ciphertext"))
    plant = sum(pooled("dur", "netloop.run_plant"))
    out["backend.codec_share"] = codec / plant if plant else 0.0

    matvecs = [(t, i) for t in tables for i in t.where("linalg.enc_matvec")]
    out["linalg.matvec_per_step"] = sum(t.spans[i][4] > 0 for t, i in matvecs) * per_step
    rots_in_matvec = sum(1 for t in tables for i in t.where("backend.rotate")
                         if t.spans[i][3] >= 0 and t.spans[t.spans[i][3]][0] == "linalg.enc_matvec")
    out["linalg.rot_per_matvec"] = rots_in_matvec / len(matvecs) if matvecs else 0.0

    out["control.loop_self_us"] = (sum(bench.self_ns[i] for i in bench.where("control.run_closed_loop"))
                                   * us * per_step)

    for hook in ("tamper_measurement", "tamper_control"):
        calls = pooled("dur", f"attack.CovertAttacker.{hook}", f"attack.GuessingAttacker.{hook}")
        out[f"attack.{hook}_us"] = sum(calls) / len(calls) * us if calls else 0.0

    full = set(bench.where("verify.run_detection_experiment", tag="full"))
    trial_setup = sum(bench.dur[i] for i in bench.where(
        "backend.context_create", "verify.setup", "linalg.encrypt_matrix")
        if bench.root[i] in full)
    full_ns = sum(bench.dur[i] for i in full)
    out["verify.trial_setup_share"] = trial_setup / full_ns if full_ns else 0.0
    dcds = pooled("spans", "verify.dcd")
    out["verify.reject_ratio"] = sum(1 for s in dcds if s[5] is True) / len(dcds) if dcds else 0.0

    runs = bench.where("scenario.run_scenario")
    loops = {bench.root[i]: bench.spans[i][1] for i in bench.where("control.run_closed_loop")}
    before_loop = sum(loops[i] - bench.spans[i][1] for i in runs if i in loops)
    total = sum(bench.dur[i] for i in runs)
    out["scenario.setup_share"] = before_loop / total if total else 0.0

    # plant side of the wire, then each role
    sends = bench.where("netloop.send_frame", tag=MSG_ENC_Y)
    recvs = bench.where("netloop.recv_frame", tag=MSG_ENC_U)
    out["netloop.frames_per_step"] = (len(sends) + len(recvs)) * per_step
    out["netloop.send_us"] = median([bench.self_ns[i] for i in sends]) * us
    out["netloop.recv_wait_us"] = median([bench.dur[i] for i in recvs]) * us
    rtt = [v * us for v in _round_trips(bench)]
    out["netloop.rtt_us_p50"] = median(rtt)
    out["netloop.rtt_us_p99"] = percentile(rtt, 0.99)
    out["netloop.rtt_samples"] = float(len(rtt))
    busy = {"controller": [], "attacker": []}
    for (role, _), table in zip(roles, tables[1:]):
        if role == "controller":
            legs = _frame_legs(table, [(MSG_ENC_Y, MSG_ENC_U)])
            busy[role] += legs[(MSG_ENC_Y, MSG_ENC_U)]
        else:
            legs = _frame_legs(table, [(MSG_ENC_Y, MSG_ENC_Y), (MSG_ENC_U, MSG_ENC_U)])
            busy[role] += [a + b for a, b in zip(legs[(MSG_ENC_Y, MSG_ENC_Y)],
                                                 legs[(MSG_ENC_U, MSG_ENC_U)])]
    for role, values in busy.items():
        out[f"netloop.role_busy_us.{role}"] = median(values) * us
    return out


def _round_trips(table: SpanTable):
    """Plant round trips (ns): start of an ENC_Y send to the end of the next
    ENC_U receive. The first step of a session also waits for the
    controller's set-up, so it is left out."""
    order = sorted(table.where("netloop.send_frame", "netloop.recv_frame"),
                   key=lambda i: table.spans[i][1])
    out, sent_at = [], None
    for i in order:
        name, start, end, _, step, tag = table.spans[i]
        if name == "netloop.send_frame" and tag == MSG_ENC_Y and step > 1:
            sent_at = start
        elif name == "netloop.recv_frame" and tag == MSG_ENC_U and sent_at is not None:
            out.append(end - sent_at)
            sent_at = None
    return out
