"""The flight recorder's invariants, unit- and property-tested.

The load-bearing properties: every recorded lifecycle is monotone in
time and carries **exactly one** terminal stage (at the end), whatever
benchmark, backend, queue depth or protocol (eager/rendezvous) produced
it.  Attribution's telescoping fold builds directly on these.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import Telemetry
from repro.obs.chrome import lifecycle_chrome_events
from repro.obs.lifecycle import (
    LifecycleRecorder,
    MessageLifecycle,
    NULL_LIFECYCLE,
    TERMINAL_STAGE,
)
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset
from repro.workloads.unexpected import UnexpectedParams, run_unexpected


def assert_well_formed(lifecycle: MessageLifecycle) -> None:
    """Monotone marks; the terminal stage appears exactly once, last."""
    times = [mark.time_ps for mark in lifecycle.marks]
    assert times == sorted(times), f"non-monotone: {lifecycle.marks}"
    terminals = [
        index
        for index, mark in enumerate(lifecycle.marks)
        if mark.stage == TERMINAL_STAGE
    ]
    if lifecycle.complete:
        assert terminals == [len(lifecycle.marks) - 1]
    else:
        assert terminals == []


class TestRecorderUnit:
    def test_begin_mark_complete(self):
        recorder = LifecycleRecorder()
        clock = [100]
        recorder.attach_clock(lambda: clock[0])
        recorder.begin("send", 0, 1, detail={"tag": 9})
        clock[0] = 250
        recorder.mark_request(0, 1, "host_issue")
        recorder.complete_request(0, 1, 400, recv=False)  # annotation only
        recorder.begin("recv", 1, 1)
        recorder.complete_request(1, 1, 500, recv=True)
        send, recv = recorder.lifecycles
        assert [m.stage for m in send.marks] == ["api_post", "host_issue"]
        assert send.annotations["sender_completed_at_ps"] == 400
        assert not send.complete
        assert recv.complete and recv.end_ps == 500
        for lifecycle in recorder.lifecycles:
            assert_well_formed(lifecycle)

    def test_uid_binding_alias_and_watch(self):
        recorder = LifecycleRecorder()
        recorder.attach_clock(lambda: 0)
        recorder.begin("send", 0, 7, 10)
        recorder.bind_uid(0, 7, 100)
        recorder.mark_uid(100, "wire", 20)
        recorder.alias_uid(200, 100)  # receive-side entry joins the message
        recorder.mark_uid(200, "deliver", 30)
        recorder.watch_completion(1, 3, 100)
        recorder.complete_request(1, 3, 40, recv=True)
        (send,) = recorder.lifecycles
        assert [m.stage for m in send.marks] == [
            "api_post",
            "wire",
            "deliver",
            TERMINAL_STAGE,
        ]
        assert send.complete
        assert_well_formed(send)

    def test_unknown_uid_is_silently_ignored(self):
        recorder = LifecycleRecorder()
        recorder.mark_uid(999, "wire")
        recorder.annotate_uid(999, a=1)
        recorder.alias_uid(1, 2)
        assert recorder.lifecycles == []

    def test_annotate_merges_into_last_mark(self):
        recorder = LifecycleRecorder()
        recorder.begin("send", 0, 1, 5, detail={"a": 1})
        recorder.annotate_request(0, 1, b=2)
        (lifecycle,) = recorder.lifecycles
        assert lifecycle.marks[-1].detail == {"a": 1, "b": 2}

    def test_search_notes_drain(self):
        recorder = LifecycleRecorder()
        recorder.search_note(alpu_occupancy=17)
        recorder.search_note(hash_probes=4)
        assert recorder.pop_search_notes() == {
            "alpu_occupancy": 17,
            "hash_probes": 4,
        }
        assert recorder.pop_search_notes() == {}

    def test_null_recorder_is_inert(self):
        assert not NULL_LIFECYCLE.enabled
        NULL_LIFECYCLE.begin("send", 0, 1)
        NULL_LIFECYCLE.mark_request(0, 1, "x")
        NULL_LIFECYCLE.mark_uid(1, "x")
        NULL_LIFECYCLE.complete_request(0, 1, recv=True)
        assert len(NULL_LIFECYCLE) == 0
        assert NULL_LIFECYCLE.lifecycles == ()

    def test_dump_round_trip(self):
        recorder = LifecycleRecorder()
        recorder.begin("send", 0, 1, 5, detail={"tag": 3})
        recorder.label_request(0, 1, "ping", timed=True)
        recorder.bind_uid(0, 1, 42)
        recorder.mark_uid(42, "wire", 9)
        obj = recorder.to_obj()
        rebuilt = [MessageLifecycle.from_obj(o) for o in obj["lifecycles"]]
        assert [lc.to_obj() for lc in rebuilt] == obj["lifecycles"]
        assert rebuilt[0].label == "ping" and rebuilt[0].meta == {"timed": True}

    def test_chrome_events_pair_spans(self):
        recorder = LifecycleRecorder()
        recorder.begin("send", 0, 1, 0)
        recorder.mark_request(0, 1, "wire", 1_000_000)
        recorder.complete_request(0, 1, 3_000_000, recv=False)
        recorder.begin("recv", 1, 1, 0)
        recorder.complete_request(1, 1, 2_000_000, recv=True)
        events = lifecycle_chrome_events(recorder.lifecycles)
        names = [e["name"] for e in events if e["ph"] == "B"]
        assert "api_post" in names and "wire" in names
        begins = sum(1 for e in events if e["ph"] == "B")
        ends = sum(1 for e in events if e["ph"] == "E")
        # the last span of an incomplete lifecycle stays open
        assert begins == ends + 1


class TestBenchmarkLifecycles:
    """Whole-run well-formedness across backends and protocols."""

    @pytest.mark.parametrize("preset", ["baseline", "hash", "alpu128"])
    def test_preposted_lifecycles_well_formed(self, preset):
        bundle = Telemetry(tracing=False, lifecycle=True)
        run_preposted(
            nic_preset(preset),
            PrepostedParams(
                queue_length=12, traverse_fraction=0.5, iterations=3, warmup=1
            ),
            telemetry=bundle,
        )
        lifecycles = bundle.lifecycles()
        assert lifecycles
        for lifecycle in lifecycles:
            assert_well_formed(lifecycle)

    @pytest.mark.parametrize("preset", ["baseline", "hash", "alpu128"])
    def test_unexpected_lifecycles_well_formed(self, preset):
        bundle = Telemetry(tracing=False, lifecycle=True)
        run_unexpected(
            nic_preset(preset),
            UnexpectedParams(queue_length=10, iterations=3, warmup=1),
            telemetry=bundle,
        )
        for lifecycle in bundle.lifecycles():
            assert_well_formed(lifecycle)

    def test_rendezvous_lifecycles_well_formed(self):
        # payload above the 4096-byte eager threshold exercises the
        # RTS/CTS/DATA marks (rndv_cts, rndv_data_dma, repeated wire)
        bundle = Telemetry(tracing=False, lifecycle=True)
        run_preposted(
            nic_preset("baseline"),
            PrepostedParams(
                queue_length=4, message_size=16384, iterations=2, warmup=1
            ),
            telemetry=bundle,
        )
        stages = set()
        for lifecycle in bundle.lifecycles():
            assert_well_formed(lifecycle)
            stages.update(mark.stage for mark in lifecycle.marks)
        assert "rndv_cts" in stages and "rndv_data_dma" in stages

    @given(
        queue_length=st.integers(min_value=1, max_value=20),
        fraction=st.sampled_from([0.0, 0.5, 1.0]),
        preset=st.sampled_from(["baseline", "alpu128"]),
    )
    @settings(max_examples=10, suppress_health_check=[HealthCheck.too_slow])
    def test_property_monotone_single_terminal(
        self, queue_length, fraction, preset
    ):
        bundle = Telemetry(tracing=False, lifecycle=True)
        run_preposted(
            nic_preset(preset),
            PrepostedParams(
                queue_length=queue_length,
                traverse_fraction=fraction,
                iterations=2,
                warmup=0,
            ),
            telemetry=bundle,
        )
        lifecycles = bundle.lifecycles()
        assert lifecycles
        for lifecycle in lifecycles:
            assert_well_formed(lifecycle)

