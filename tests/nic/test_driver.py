"""Unit tests for the ALPU queue driver (Section IV heuristics).

The driver is a generator-based firmware helper, so these tests run it
inside small simulation processes against a real device.
"""

import pytest

from repro.core.alpu import AlpuConfig
from repro.core.commands import MatchFailure, MatchSuccess
from repro.core.match import MatchRequest
from repro.memory.layout import AddressAllocator
from repro.nic.alpu_device import AlpuDevice
from repro.nic.driver import AlpuQueueDriver, DriverConfig
from repro.nic.queues import EntryKind, NicQueue
from repro.proc.costmodel import NicCostModel
from repro.proc.processor import Processor
from repro.sim.engine import Engine
from repro.sim.process import Process


def build(driver_config=DriverConfig(), total_cells=16, block_size=4, tag_width=16):
    engine = Engine()
    device = AlpuDevice(
        engine,
        "dev",
        AlpuConfig(
            total_cells=total_cells, block_size=block_size, tag_width=tag_width
        ),
    )
    queue = NicQueue("q", AddressAllocator())
    proc = Processor(engine, "nicproc", 500e6)
    driver = AlpuQueueDriver(device, queue, proc, NicCostModel(), driver_config)
    return engine, device, queue, driver


def fill(queue, count, bits_base=0):
    for i in range(count):
        entry = queue.allocate_entry(
            EntryKind.POSTED_RECV, bits=bits_base + i, mask=0, size=0
        )
        queue.append(entry)


def run_gen(engine, generator):
    process = Process(engine, generator)
    engine.run()
    if process.error:
        raise process.error
    return process.result


def test_update_moves_the_whole_suffix():
    engine, device, queue, driver = build()
    fill(queue, 5)
    moved = run_gen(engine, driver.update())
    assert moved == 5
    assert queue.alpu_count == 5
    assert device.alpu.occupancy == 5
    assert driver.tracked_occupancy == 5
    assert driver.batches == 1


def test_update_with_empty_suffix_is_a_no_op():
    engine, device, queue, driver = build()
    assert run_gen(engine, driver.update()) == 0
    assert driver.batches == 0


def test_threshold_defers_engagement():
    engine, device, queue, driver = build(DriverConfig(use_threshold=5))
    fill(queue, 3)
    assert run_gen(engine, driver.update()) == 0  # below the threshold
    fill(queue, 3)
    assert run_gen(engine, driver.update()) == 6  # crossed it
    # once engaged, the threshold no longer gates top-ups
    fill(queue, 1)
    assert run_gen(engine, driver.update()) == 1


def test_threshold_gates_header_replication():
    """Section IV-C: delivery to the ALPU stays off until engagement."""
    engine, device, queue, driver = build(DriverConfig(use_threshold=5))
    assert not driver.engaged
    assert not device.hw_delivery_enabled
    fill(queue, 5)
    run_gen(engine, driver.update())
    assert driver.engaged
    assert device.hw_delivery_enabled


def test_driver_disengages_when_queue_drains():
    engine, device, queue, driver = build(DriverConfig(use_threshold=5))
    fill(queue, 5)
    run_gen(engine, driver.update())
    assert driver.engaged
    # drain the ALPU through matches
    for bits in range(5):
        device.hw_push_header(MatchRequest(bits=bits))
    engine.run()

    def consume_all():
        for _ in range(5):
            response = yield from driver.read_result()
            entry = driver.take_matched_entry(response)
            queue.remove(entry)

    run_gen(engine, consume_all())
    assert driver.tracked_occupancy == 0
    run_gen(engine, driver.update())
    assert not driver.engaged
    assert not device.hw_delivery_enabled


def test_default_threshold_keeps_replication_always_on():
    engine, device, queue, driver = build(DriverConfig(use_threshold=1))
    assert driver.engaged
    run_gen(engine, driver.update())
    assert driver.engaged


def test_max_batch_caps_each_update():
    engine, device, queue, driver = build(DriverConfig(max_batch=2))
    fill(queue, 5)
    assert run_gen(engine, driver.update()) == 2
    assert run_gen(engine, driver.update()) == 2
    assert run_gen(engine, driver.update()) == 1


def test_update_never_exceeds_capacity():
    engine, device, queue, driver = build(total_cells=8, block_size=4)
    fill(queue, 12)
    assert run_gen(engine, driver.update()) == 8
    assert run_gen(engine, driver.update()) == 0  # full
    assert len(queue.iter_fifo(suffix_only=True)) == 4


def test_match_success_roundtrip_through_tags():
    engine, device, queue, driver = build()
    fill(queue, 3, bits_base=100)
    run_gen(engine, driver.update())
    device.hw_push_header(MatchRequest(bits=101))
    engine.run()

    def consume():
        response = yield from driver.read_result()
        return response

    response = run_gen(engine, consume())
    assert isinstance(response, MatchSuccess)
    entry = driver.take_matched_entry(response)
    assert entry.bits == 101
    assert driver.tracked_occupancy == 2


def test_tags_recycle_after_matches():
    engine, device, queue, driver = build(total_cells=4, block_size=4)
    free_before = driver.free_tag_count
    fill(queue, 2)
    run_gen(engine, driver.update())
    assert driver.free_tag_count == free_before - 2
    device.hw_push_header(MatchRequest(bits=0))
    engine.run()

    def consume():
        response = yield from driver.read_result()
        return response

    response = run_gen(engine, consume())
    queue.remove(driver.take_matched_entry(response))
    assert driver.free_tag_count == free_before - 1


def test_update_aborts_when_a_failure_is_outstanding():
    """The Section IV-C race: a failed match must be handled against the
    suffix as it stood, so the batch gives way."""
    engine, device, queue, driver = build()
    fill(queue, 2)
    # a header that fails in match mode, response already in the FIFO
    device.hw_push_header(MatchRequest(bits=999))
    engine.run()
    moved = run_gen(engine, driver.update())
    assert moved == 0
    assert driver.aborted_batches == 1
    assert queue.alpu_count == 0  # nothing moved
    # the failure is now buffered for the firmware's result read
    assert any(isinstance(r, MatchFailure) for r in driver._buffered)
    # and update keeps refusing until the failure is consumed
    assert run_gen(engine, driver.update()) == 0

    def consume():
        response = yield from driver.read_result()
        return response

    assert isinstance(run_gen(engine, consume()), MatchFailure)
    assert run_gen(engine, driver.update()) == 2  # now it proceeds


def test_buffered_successes_do_not_block_updates():
    engine, device, queue, driver = build()
    fill(queue, 2, bits_base=50)
    run_gen(engine, driver.update())
    # a success sitting in the FIFO when the next batch starts is fine
    device.hw_push_header(MatchRequest(bits=50))
    engine.run()
    fill(queue, 1, bits_base=60)
    moved = run_gen(engine, driver.update())
    assert moved == 1
    assert driver.aborted_batches == 0
    assert any(isinstance(r, MatchSuccess) for r in driver._buffered)


def test_software_removal_assertion_guards_prefix_consistency():
    engine, device, queue, driver = build()
    fill(queue, 2)
    run_gen(engine, driver.update())
    prefix_entry = queue.entries[0]
    with pytest.raises(AssertionError):
        driver.forget_software_removal(prefix_entry)


# ------------------------------------------------------ idle-update predicate
def yields_before_finishing(generator):
    """Advance ``generator`` once: True if it yields, False if it returns
    (an idle ``update()`` evaluates to 0)."""
    try:
        next(generator)
    except StopIteration as done:
        assert done.value == 0
        return False
    generator.close()
    return True


def consume_results(engine, driver, queue, count):
    def consume():
        for _ in range(count):
            response = yield from driver.read_result()
            if isinstance(response, MatchSuccess):
                queue.remove(driver.take_matched_entry(response))

    run_gen(engine, consume())


def disengaged_below_threshold():
    engine, device, queue, driver = build(DriverConfig(use_threshold=3))
    fill(queue, 2)
    return driver


def disengaged_at_threshold():
    engine, device, queue, driver = build(DriverConfig(use_threshold=3))
    fill(queue, 3)
    return driver


def engaged_drained_back():
    engine, device, queue, driver = build(DriverConfig(use_threshold=3))
    fill(queue, 3)
    run_gen(engine, driver.update())
    for bits in range(3):
        device.hw_push_header(MatchRequest(bits=bits))
    engine.run()
    consume_results(engine, driver, queue, 3)
    assert driver.engaged and driver.tracked_occupancy == 0 and not len(queue)
    return driver


def engaged_above_threshold_fully_mirrored():
    engine, device, queue, driver = build(DriverConfig(use_threshold=3))
    fill(queue, 4)
    run_gen(engine, driver.update())
    return driver


def empty_queue():
    return build()[3]


def empty_suffix():
    engine, device, queue, driver = build()
    fill(queue, 3)
    run_gen(engine, driver.update())
    return driver


def suffix_to_insert():
    engine, device, queue, driver = build()
    fill(queue, 3)
    return driver


def full_alpu():
    engine, device, queue, driver = build(total_cells=8, block_size=4)
    fill(queue, 12)
    run_gen(engine, driver.update())
    assert driver.tracked_occupancy == device.alpu.capacity
    return driver


def tags_exhausted():
    engine, device, queue, driver = build(tag_width=2)
    fill(queue, 6)
    run_gen(engine, driver.update())
    assert driver.free_tag_count == 0 and device.alpu.free_entries
    return driver


def failure_in_result_fifo():
    """Not yet buffered: update yields START INSERT, then aborts."""
    engine, device, queue, driver = build()
    fill(queue, 2)
    device.hw_push_header(MatchRequest(bits=999))
    engine.run()
    return driver


def failure_parked():
    engine, device, queue, driver = build()
    fill(queue, 2)
    device.hw_push_header(MatchRequest(bits=999))
    engine.run()
    assert run_gen(engine, driver.update()) == 0
    assert any(isinstance(r, MatchFailure) for r in driver._buffered)
    return driver


def success_buffered():
    engine, device, queue, driver = build()
    fill(queue, 2, bits_base=50)
    run_gen(engine, driver.update())
    device.hw_push_header(MatchRequest(bits=50))
    engine.run()
    fill(queue, 1, bits_base=60)
    assert run_gen(engine, driver.update()) == 1
    fill(queue, 1, bits_base=70)
    assert any(isinstance(r, MatchSuccess) for r in driver._buffered)
    return driver


@pytest.mark.parametrize(
    "state, needed",
    [
        (disengaged_below_threshold, False),
        (disengaged_at_threshold, True),
        (engaged_drained_back, True),
        (engaged_above_threshold_fully_mirrored, False),
        (empty_queue, False),
        (empty_suffix, False),
        (suffix_to_insert, True),
        (full_alpu, False),
        (tags_exhausted, False),
        (failure_in_result_fifo, True),
        (failure_parked, False),
        (success_buffered, True),
    ],
)
def test_needs_update_iff_update_yields(state, needed):
    """``needs_update()`` is False exactly when ``update()`` returns 0
    without yielding, so the firmware may skip building the generator."""
    driver = state()
    assert driver.needs_update() is needed
    assert yields_before_finishing(driver.update()) is needed


def test_needs_update_tracks_a_suffix_appearing():
    engine, device, queue, driver = build()
    fill(queue, 3)
    run_gen(engine, driver.update())
    assert not driver.needs_update()
    fill(queue, 1, bits_base=10)
    assert driver.needs_update()
    assert run_gen(engine, driver.update()) == 1
    assert not driver.needs_update()


# --------------------------------------------------------- stall detection
def stalled_build(stall_budget=3, timeout_ps=1_000_000):
    from repro.nic.alpu_device import AlpuFaultConfig

    engine = Engine()
    device = AlpuDevice(
        engine,
        "dev",
        AlpuConfig(total_cells=16, block_size=4),
        fault=AlpuFaultConfig(mode="stall", at_ps=0),
    )
    queue = NicQueue("q", AddressAllocator())
    proc = Processor(engine, "nicproc", 500e6)
    driver = AlpuQueueDriver(
        device,
        queue,
        proc,
        NicCostModel(),
        DriverConfig(result_timeout_ps=timeout_ps, stall_budget=stall_budget),
    )
    return engine, device, queue, driver


def test_stalled_device_raises_after_the_stall_budget():
    from repro.nic.driver import AlpuStallError

    engine, device, queue, driver = stalled_build(stall_budget=3)

    def blocked_read():
        response = yield from driver._read_result_raw()
        return response

    with pytest.raises(AlpuStallError, match="device stalled"):
        run_gen(engine, blocked_read())
    # every expiry was counted, and they were consecutive
    assert driver.result_timeouts == 3


def test_healthy_device_never_counts_a_timeout():
    engine, device, queue, driver = build()
    fill(queue, 3)
    run_gen(engine, driver.update())
    device.hw_push_header(MatchRequest(bits=1))
    engine.run()

    def consume():
        response = yield from driver.read_result()
        return response

    assert isinstance(run_gen(engine, consume()), MatchSuccess)
    assert driver.result_timeouts == 0


def test_stall_error_is_a_simulation_error():
    from repro.nic.driver import AlpuStallError
    from repro.sim.engine import SimulationError

    assert issubclass(AlpuStallError, SimulationError)
