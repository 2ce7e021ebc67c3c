"""Shared pytest wiring: print one pass/fail line per acceptance criterion,
the trailer-forging attacker that the in-process and networked verified
loops are both tested against, and a record of every key context a test
creates."""

import struct

import numpy as np
import pytest

from encloop import backend
from encloop.backend import deserialize_ciphertext, hom_add, serialize_ciphertext

_acceptance_results: dict[str, str] = {}


class TrailerForger:
    """A man-in-the-middle attacker on the verified loop holding the public
    context only. From step 0 it adds 1.0 to every slot of the control
    ciphertext and writes 1e6 into the blob's reserved f64 trailer: a
    receiver that took its tolerance from the trailer would accept the
    shifted response."""

    def __init__(self, pub):
        self.pub = pub

    def active_at(self, k):
        return k >= 0

    def tamper_measurement(self, k, c):
        return c

    def tamper_control(self, k, c):
        if not self.active_at(k):
            return c
        blob = serialize_ciphertext(hom_add(c, np.ones(self.pub.config.slot_count)))
        struct.pack_into("<d", blob, len(blob) - 8, 1e6)
        return deserialize_ciphertext(self.pub, blob)


@pytest.fixture
def trailer_forger():
    return TrailerForger


@pytest.fixture
def contexts(monkeypatch):
    """Every KeyContext created while the test runs, public ones included."""
    created = []
    init = backend.KeyContext.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(backend.KeyContext, "__init__", tracking_init)
    return created


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    _acceptance_results[report.nodeid] = (
        "PASS" if report.outcome == "passed" else "FAIL")


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for nodeid in sorted(_acceptance_results):
        name = nodeid.split("::")[-1]
        terminalreporter.write_line(f"{_acceptance_results[nodeid]}  {name}")
