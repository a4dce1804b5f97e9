"""Self-time arithmetic of the span tracer, on synthetic nested spans."""

import pytest

from repro.nic.driver import AlpuStallError
from repro.sim.process import delay

from bench.trace import CALLS, RESUMES, SELF_NS, TOTAL_NS, Tracer


class FakeClock:
    """A clock that only moves when the test says so."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def work(self, ns: int) -> None:
        self.now += ns


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


def test_nested_plain_calls_split_self_time(tracer, clock):
    def leaf():
        clock.work(30)

    def middle():
        clock.work(10)
        leaf()
        leaf()
        clock.work(5)

    leaf = tracer.wrap(leaf, "memory", "leaf")
    middle = tracer.wrap(middle, "nic.backends", "middle")
    middle()
    assert tracer.spans[("memory", "leaf")] == [2, 2, 60, 60]
    assert tracer.spans[("nic.backends", "middle")] == [1, 1, 75, 15]
    layers = tracer.layer_totals()
    assert layers["memory"]["self_s"] == pytest.approx(60e-9)
    assert layers["nic.backends"]["self_frac"] == pytest.approx(15 / 75)
    assert layers["core"] == {"calls": 0, "self_s": 0.0, "self_frac": 0.0}


def test_generator_is_timed_per_resumption(tracer, clock):
    def leaf():
        clock.work(7)

    def body(n):
        for _ in range(n):
            clock.work(3)
            leaf()
            sent = yield delay(1)
            assert sent == "resumed"
        clock.work(2)
        return "done"

    leaf = tracer.wrap(leaf, "memory", "leaf")
    body = tracer.wrap(body, "mpi", "body")

    def drive():
        gen = body(2)
        command = next(gen)
        clock.work(100)  # time between resumptions belongs to nobody
        while True:
            try:
                command = gen.send("resumed")
            except StopIteration as stop:
                return command, stop.value
            clock.work(100)

    command, value = drive()
    assert (command, value) == (delay(1), "done")
    calls, resumes, total, self_ns = tracer.spans[("mpi", "body")]
    assert (calls, resumes) == (1, 3)
    assert total == 3 * 2 + 7 * 2 + 2
    assert self_ns == 3 * 2 + 2
    assert tracer.spans[("memory", "leaf")][SELF_NS] == 14


def test_yield_from_nesting_charges_the_parent_once(tracer, clock):
    def inner():
        clock.work(20)
        yield 1
        clock.work(20)
        return 5

    def outer():
        clock.work(1)
        value = yield from inner()
        clock.work(1)
        return value

    inner = tracer.wrap(inner, "nic.alpu", "inner")
    outer = tracer.wrap(outer, "nic.backends", "outer")
    gen = outer()
    assert next(gen) == 1
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == 5
    assert tracer.spans[("nic.alpu", "inner")][TOTAL_NS] == 40
    assert tracer.spans[("nic.backends", "outer")][TOTAL_NS] == 42
    assert tracer.spans[("nic.backends", "outer")][SELF_NS] == 2


def test_stall_error_propagates_through_wrapped_generators(tracer, clock):
    """The firmware catches AlpuStallError raised deep in a wrapped ALPU result
    read; the wrappers must pass it up unchanged and close their spans."""

    def read_result():
        clock.work(4)
        yield 0
        clock.work(6)
        raise AlpuStallError("result FIFO empty")

    def match_arrival():
        clock.work(1)
        response = yield from read_result()
        return response

    def firmware_step():
        try:
            yield from match_arrival()
        except AlpuStallError:
            clock.work(50)  # degrade onto the software backend
            return "degraded"

    read_result = tracer.wrap(read_result, "nic.alpu", "read_result")
    match_arrival = tracer.wrap(match_arrival, "nic.backends", "match_arrival")
    gen = firmware_step()
    next(gen)
    with pytest.raises(StopIteration) as stop:
        gen.send(None)
    assert stop.value.value == "degraded"
    assert tracer._stack == []
    assert tracer.spans[("nic.alpu", "read_result")][TOTAL_NS] == 10
    assert tracer.spans[("nic.backends", "match_arrival")][SELF_NS] == 1
    assert tracer.spans[("nic.backends", "match_arrival")][RESUMES] == 2


def test_thrown_exception_reaches_the_inner_generator(tracer, clock):
    seen = []

    def body():
        try:
            yield "waiting"
        except KeyError as err:
            seen.append(err)
            clock.work(9)
            yield "recovered"

    body = tracer.wrap(body, "mpi", "body")
    gen = body()
    assert next(gen) == "waiting"
    assert gen.throw(KeyError("x")) == "recovered"
    gen.close()
    assert len(seen) == 1
    assert tracer.spans[("mpi", "body")][TOTAL_NS] == 9
    assert tracer.spans[("mpi", "body")][CALLS] == 1


def test_install_wraps_and_uninstall_restores():
    from repro.memory.system import MemorySystem
    from repro.nic.backends import ListSearchBackend, MatchBackend

    original = MemorySystem.access
    with Tracer() as tracer:
        assert MemorySystem.access is not original
        assert ("memory", "MemorySystem.access") in tracer.spans
        # inherited entry points are wrapped where they are defined
        assert ("nic.backends", "MatchBackend.software_search") in tracer.spans
        assert ("nic.backends", "ListSearchBackend.match_arrival") in tracer.spans
        assert "software_search" not in ListSearchBackend.__dict__
    assert MemorySystem.access is original
    assert MatchBackend.__abstractmethods__ == {"match_arrival", "consume_unexpected"}
