"""Hot-path guard: the event loop never loads an enum member through its class.

``PacketKind.ACK`` is a class attribute load on a class whose metaclass
defines ``__getattr__``, so the interpreter never specializes it; it
costs several times a module-global load.  Per-event code therefore
compares against module globals (``repro.network.packet.ACK``) or plain
attributes (``PacketKind.carries_match``) instead.  This test counts the
member loads made inside ``Engine.run`` while scaled-down versions of the
four benchmark workloads run.  It is a count, not a timing, so it does
not depend on host speed.
"""

import collections
import enum
import sys

import pytest

from bench.workloads import WORKLOADS, run_workload
from repro.network.packet import PacketKind
from repro.sim.engine import Engine

#: the scaled-down length of each benchmark workload (iterations, or
#: messages per storm worker)
LENGTHS = {
    "halo-torus27": 3,
    "storm-nack": 40,
    "fig6-list-q1024": 8,
    "fig5-alpu256-q256": 40,
}


@pytest.fixture
def member_loads(monkeypatch):
    """Counts ``Enum.MEMBER`` loads made while ``Engine.run`` is active,
    keyed by member and calling line."""
    loads = collections.Counter()
    depth = [0]

    def getattribute(cls, name):
        value = type.__getattribute__(cls, name)
        if depth[0] and name in type.__getattribute__(cls, "_member_map_"):
            caller = sys._getframe(1)
            site = f"{caller.f_code.co_filename}:{caller.f_lineno}"
            loads[f"{cls.__name__}.{name} at {site}"] += 1
        return value

    run = Engine.run

    def counted_run(self, *args, **kwargs):
        depth[0] += 1
        try:
            return run(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(type(enum.Enum), "__getattribute__", getattribute, raising=False)
    monkeypatch.setattr(Engine, "run", counted_run)
    return loads


def test_the_counter_sees_a_member_load_inside_the_run(member_loads):
    engine = Engine()
    seen = []
    PacketKind.ACK  # outside the run: not counted
    engine.schedule(5, lambda: seen.append(PacketKind.ACK))
    engine.run()
    assert seen == [PacketKind.ACK]
    assert sum(member_loads.values()) == 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_no_enum_member_loads_inside_the_event_loop(workload, member_loads):
    outcome = run_workload(workload, 0, length=LENGTHS[workload])
    assert not outcome.failures
    # the storm must reach its NACK_BUSY regime, or the refusal,
    # deferral and retransmit path goes unchecked
    assert outcome.extra.get("refusals_per_msg", 1) > 0
    assert dict(member_loads) == {}
