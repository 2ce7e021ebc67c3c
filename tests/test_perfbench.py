"""The benchmark's tracer still finds every package function it wraps, so a
rename or deletion in ``src/encloop`` fails here rather than in a benchmark
run; and every size rule of the package that picks a plan has a benchmark
workload on each side."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from encloop import control, netloop, verify
from encloop.backend import BackendConfig, context_create, serialize_ciphertext
from encloop.linalg import enc_matvec
from helpers import QueuedSocket

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """Import ``perfbench/<name>.py`` without writing bytecode caches; its
    sibling imports (``roles``, ``tracing``) resolve for the import only."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    siblings = {"roles", "tracing"} - set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
        for sibling in siblings:
            sys.modules.pop(sibling, None)
        sys.dont_write_bytecode = saved
    return module


tracing = load_perfbench("tracing")
SIZES = load_perfbench("workloads").SIZES


@pytest.mark.parametrize("target", tracing.TARGETS)
def test_trace_target_resolves(target):
    value = tracing._resolve(target)[2]
    assert callable(value), f"{target} resolves to {value!r}"


def test_controller_product_plan_has_a_workload_each_side():
    """The tank controller's product, replicated over the verified blocks,
    gathers at loop64's slot count and slices at net_wide's."""
    gathers = {}
    for name in ("loop64", "net_wide"):
        size = SIZES[name]
        ctx = context_create(BackendConfig(slot_count=size["slot_count"]))
        enc = control.encrypt_controller(ctx, control.tank_controller(), size["expansion"])
        enc_matvec(enc, ctx.encrypt(np.zeros(size["slot_count"])))
        gathers[name] = enc._terms.gather
    assert gathers == {"loop64": True, "net_wide": False}


class CallLog:
    """A generator stand-in that records the calls made of it."""

    def __init__(self, rng):
        self.rng, self.calls = rng, []

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self.calls.append((name, "size" in kwargs))
            return getattr(self.rng, name)(*args, **kwargs)
        return call


def test_encode_draw_split_has_a_workload_each_side():
    """``ecd`` draws the challenge indices one scalar at a time at loop64's
    lambda and in one array call at net_wide's."""
    calls = {}
    for name in ("loop64", "net_wide"):
        lam = SIZES[name]["expansion"]
        vctx = verify.setup(64 * lam, np.eye(4), lam, num_challenges=8)
        vctx.rng = CallLog(vctx.rng)
        verify.ecd(vctx, np.ones(4))
        calls[name] = vctx.rng.calls
    assert calls == {
        "loop64": [("integers", False)] * 2 + [("shuffle", False)],
        "net_wide": [("integers", True), ("shuffle", False)]}


def test_frame_reader_split_has_a_workload_each_side():
    """A net64 ciphertext frame costs one read of the reader's buffer; a
    net_wide payload does not fit it and is read straight into its own
    bytes, with one call longer than the buffer."""
    reads = {}
    for name in ("net64", "net_wide"):
        n = SIZES[name]["slot_count"]
        blob = serialize_ciphertext(context_create(BackendConfig(slot_count=n)).encrypt(np.ones(n)))
        sock = QueuedSocket(len(blob).to_bytes(4, "little") + bytes([netloop.MSG_ENC_Y]) + blob)
        assert netloop.recv_frame(netloop.FrameReader(sock)) == (netloop.MSG_ENC_Y, blob)
        reads[name] = sock.reads
    assert reads["net64"] == [netloop.READ_BUFFER]
    assert sum(size > netloop.READ_BUFFER for size in reads["net_wide"]) == 1
