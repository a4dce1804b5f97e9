"""Outside-in per-layer tracing: timing wrappers around each layer's entry points.

The benchmark cannot (and must not) edit the simulator to time it, so the
traced pass replaces each layer's public entry points with wrappers
before the world is built and restores them afterwards.  Every wrapped
call records a span; spans nest on one stack, so a span's *self* time is
its duration minus the durations of the wrapped spans it encloses.

* A plain function gets one span per call.
* A generator function (the simulator's processes and protocol steps)
  gets one span per *resumption*: the wrapper drives the inner generator
  itself, timing each ``send``/``throw``, and forwards every yielded
  command, sent value, thrown exception and return value unchanged --
  exactly what ``yield from`` would have done.

Spans are aggregated in memory per (layer, entry point); nothing is
written until the pass ends.  Work done outside every wrapped entry
point (process switching, DMA and NIC component handlers, fabric hop
forwarding inside link-delivery events) is charged to the nearest
enclosing span, which is almost always ``sim``'s ``Engine.step``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple, Union


def _link_layer(link) -> str:
    """Fabric channels have no destination FIFO (they route on delivery)."""
    return "network" if link.dest is None else "sim"


#: (layer, module, class, entry points).  The class and every subclass
#: that defines one of the methods itself get wrapped.  A callable layer
#: picks the layer per call from the instance.
ENTRY_POINTS: Tuple[Tuple[Union[str, Callable], str, str, Tuple[str, ...]], ...] = (
    ("sim", "repro.sim.engine", "Engine", ("step",)),
    (_link_layer, "repro.sim.link", "Link", ("send",)),
    (
        "mpi",
        "repro.mpi.api",
        "MpiProcess",
        ("isend", "irecv", "wait", "waitall", "barrier", "allreduce"),
    ),
    ("nic.firmware", "repro.nic.firmware", "NicFirmware", ("run",)),
    (
        "nic.backends",
        "repro.nic.backends",
        "MatchBackend",
        ("match_arrival", "consume_unexpected", "post_receive", "software_search"),
    ),
    ("nic.qdisc", "repro.nic.qdisc", "QueueDiscipline", ("candidates",)),
    ("nic.qdisc", "repro.nic.qdisc", "AdmissionControl", ("admits",)),
    ("nic.queues", "repro.nic.queues", "NicQueue", ("append", "remove")),
    ("nic.alpu", "repro.nic.driver", "AlpuQueueDriver", ("update", "read_result")),
    (
        "nic.alpu",
        "repro.nic.alpu_device",
        "AlpuDevice",
        (
            "bus_write_command",
            "bus_write_delivery_enable",
            "bus_read_result",
            "hw_push_header",
        ),
    ),
    ("nic.reliability", "repro.nic.reliability", "ReliabilityLayer", ("send", "on_wire_arrival")),
    ("core", "repro.core.alpu", "Alpu", ("present_header", "submit", "compact_step")),
    ("memory", "repro.memory.system", "MemorySystem", ("access",)),
    ("network", "repro.network.fabric", "Fabric", ("inject",)),
)

#: every layer, in report order
LAYERS = (
    "sim",
    "mpi",
    "nic.firmware",
    "nic.backends",
    "nic.qdisc",
    "nic.queues",
    "nic.alpu",
    "nic.reliability",
    "core",
    "memory",
    "network",
)

#: the per-layer counters, beside ``<layer>.calls/self_s/self_frac``
COUNTERS = (
    "sim.events",
    "nic.backends.entries_traversed",
    "nic.backends.entries_per_search",
    "nic.qdisc.refused",
    "nic.qdisc.admit_frac",
    "nic.reliability.retransmits",
    "nic.reliability.first_tx_frac",
    "core.match_hit_frac",
    "core.compaction_steps",
    "memory.accesses",
    "memory.hit_rate",
    "network.packets",
    "network.hops_per_packet",
    "trace.overhead_x",
)

# span counter slots
CALLS, RESUMES, TOTAL_NS, SELF_NS = range(4)


def _with_subclasses(cls) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(c for c in _with_subclasses(sub) if c not in found)
    return found


class Tracer:
    """Span aggregation plus the install/uninstall of the wrappers.

    ``clock`` returns integer nanoseconds; tests substitute a fake one.
    Use as a context manager so the original methods always come back::

        with Tracer() as tracer:
            run_unexpected(...)
        tracer.layer_totals()
    """

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        #: (layer, entry point) -> [calls, resumes, total_ns, self_ns]
        self.spans: Dict[Tuple[str, str], List[int]] = {}
        #: open spans, innermost last: [child_ns, start_ns]
        self._stack: List[List[int]] = []
        self._patched: List[Tuple[type, str, object]] = []

    # ------------------------------------------------------------ install
    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for layer, module, class_name, methods in ENTRY_POINTS:
            base = getattr(importlib.import_module(module), class_name)
            for cls in _with_subclasses(base):
                for name in methods:
                    fn = cls.__dict__.get(name)
                    if fn is None or getattr(fn, "__isabstractmethod__", False):
                        continue
                    entry = f"{cls.__name__}.{name}"
                    setattr(cls, name, self.wrap(fn, layer, entry))
                    self._patched.append((cls, name, fn))

    def uninstall(self) -> None:
        """Put every original method back."""
        while self._patched:
            cls, name, fn = self._patched.pop()
            setattr(cls, name, fn)

    # ------------------------------------------------------------ wrappers
    def counters(self, layer: str, entry: str) -> List[int]:
        """The aggregate slot of one (layer, entry point)."""
        slot = self.spans.get((layer, entry))
        if slot is None:
            slot = self.spans[(layer, entry)] = [0, 0, 0, 0]
        return slot

    def wrap(self, fn, layer: Union[str, Callable], entry: str):
        """A timed stand-in for ``fn``; ``layer`` may pick per instance."""
        if isinstance(layer, str):
            fixed, pick = self.counters(layer, entry), None
        else:
            fixed, pick = None, lambda args: self.counters(layer(args[0]), entry)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, fixed, pick)
        return self._wrap_plain(fn, fixed, pick)

    def _wrap_plain(self, fn, fixed, pick):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot = fixed if pick is None else pick(args)
            frame = [0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - frame[1]
                stack.pop()
                slot[CALLS] += 1
                slot[RESUMES] += 1
                slot[TOTAL_NS] += elapsed
                slot[SELF_NS] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return timed

    def _wrap_generator(self, fn, fixed, pick):
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            slot = fixed if pick is None else pick(args)
            slot[CALLS] += 1
            inner = fn(*args, **kwargs)
            value = None
            error = None
            while True:
                frame = [0, clock()]
                stack.append(frame)
                try:
                    if error is None:
                        command = inner.send(value)
                    else:
                        command = inner.throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    elapsed = clock() - frame[1]
                    stack.pop()
                    slot[RESUMES] += 1
                    slot[TOTAL_NS] += elapsed
                    slot[SELF_NS] += elapsed - frame[0]
                    if stack:
                        stack[-1][0] += elapsed
                error = None
                try:
                    value = yield command
                except GeneratorExit:
                    inner.close()
                    raise
                except BaseException as exc:  # noqa: BLE001 - forwarded, as yield from does
                    value, error = None, exc

        return timed

    # ------------------------------------------------------------- results
    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``calls``, ``self_s`` and ``self_frac`` of all self time."""
        totals = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for (layer, _), slot in self.spans.items():
            totals[layer]["calls"] += slot[CALLS]
            totals[layer]["self_ns"] += slot[SELF_NS]
        all_self = sum(t["self_ns"] for t in totals.values())
        return {
            layer: {
                "calls": t["calls"],
                "self_s": t["self_ns"] / 1e9,
                "self_frac": t["self_ns"] / all_self if all_self else 0.0,
            }
            for layer, t in totals.items()
        }

    def to_obj(self) -> dict:
        """Every span aggregate, JSON-ready (the trace file's ``spans``)."""
        return {
            "spans": [
                {
                    "layer": layer,
                    "entry": entry,
                    "calls": slot[CALLS],
                    "resumes": slot[RESUMES],
                    "total_s": slot[TOTAL_NS] / 1e9,
                    "self_s": slot[SELF_NS] / 1e9,
                }
                for (layer, entry), slot in sorted(self.spans.items())
            ],
            "layers": self.layer_totals(),
        }


def _ratio(part: float, whole: float) -> float:
    """A share of attempts; 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def counter_values(snapshot: Dict[str, object], tracer: Tracer, events: int) -> Dict[str, float]:
    """The per-layer counters, summed across components.

    ``snapshot`` is a ``Telemetry(metrics=True).snapshot()`` of the traced
    pass; ``events`` is ``Engine.events_fired``.  ``trace.overhead_x`` is
    left to the caller, which knows the untraced wall time.
    """

    def total(suffix: str) -> float:
        return sum(
            value
            for key, value in snapshot.items()
            if key.endswith(suffix) and isinstance(value, (int, float))
        )

    def calls(layer: str, entry: str) -> int:
        slot = tracer.spans.get((layer, entry))
        return slot[CALLS] if slot else 0

    searches = sum(
        value["count"]
        for key, value in snapshot.items()
        if key.endswith(".fw/traversal_length") and isinstance(value, dict)
    )
    traversed = total(".fw/entries_traversed")
    refused = total(".adm/refused")
    admits = calls("nic.qdisc", "AdmissionControl.admits")
    retransmits = total(".rel/retransmits")
    first_tx = calls("nic.reliability", "ReliabilityLayer.send")
    l1_hits = total("/l1/hits")
    l1_misses = total("/l1/misses")
    delivered = total("fabric/packets_delivered")
    return {
        "sim.events": events,
        "nic.backends.entries_traversed": traversed,
        "nic.backends.entries_per_search": _ratio(traversed, searches),
        "nic.qdisc.refused": refused,
        "nic.qdisc.admit_frac": _ratio(admits - refused, admits),
        "nic.reliability.retransmits": retransmits,
        "nic.reliability.first_tx_frac": _ratio(first_tx, first_tx + retransmits),
        "core.match_hit_frac": _ratio(
            total("/match_successes"), total("/matches_attempted")
        ),
        "core.compaction_steps": total("/compaction_steps"),
        "memory.accesses": l1_hits + l1_misses,
        "memory.hit_rate": _ratio(l1_hits, l1_hits + l1_misses),
        "network.packets": total("fabric/packets"),
        "network.hops_per_packet": _ratio(
            delivered + total("fabric/hops_forwarded"), delivered
        ),
    }
