"""The ALPU matching engine -- the paper's contribution as a backend.

Match-relevant headers are replicated in hardware to the posted-receive
ALPU and posted receives to the unexpected ALPU; the firmware consumes
results through :class:`~repro.nic.driver.AlpuQueueDriver`, falling back
to a software search of only the not-yet-inserted suffix on MATCH
FAILURE (Section IV-D).  The per-loop ``update()`` step batch-inserts the
software suffix into each ALPU (Section IV-C).

The backend requires the NIC assembly to have built the two ALPU devices
and drivers (it is registered with ``needs_alpu=True``).
"""

from __future__ import annotations

from repro.core.commands import MatchSuccess
from repro.core.match import MatchRequest
from repro.nic.backends.base import MatchBackend
from repro.nic.driver import AlpuQueueDriver
from repro.nic.queues import NicQueue
from repro.sim.process import delay


class AlpuMatchBackend(MatchBackend):
    """Two ALPUs + software-suffix fallback (the ``"alpu"`` engine)."""

    name = "alpu"
    has_update = True

    def _setup(self) -> None:
        self.posted_driver: AlpuQueueDriver = self.nic.posted_driver
        self.unexpected_driver: AlpuQueueDriver = self.nic.unexpected_driver
        if self.posted_driver is None or self.unexpected_driver is None:
            raise RuntimeError(
                "the alpu backend needs ALPU devices; build the NIC with "
                "a backend registered as needs_alpu=True "
                "(e.g. NicConfig.with_alpu())"
            )

    # ----------------------------------------------------------- matching
    def match_arrival(self, request: MatchRequest):
        was_replicated = self.nic.posted_pushed_flags.popleft()
        if was_replicated:
            entry = yield from self._alpu_match(
                self.posted_driver, self.posted_q, request
            )
        else:
            # the driver had replication disabled (queue below the
            # engagement threshold): plain software matching, with the
            # ALPU guaranteed empty
            entry = yield from self.software_search(self.posted_q, request)
        return entry

    def consume_unexpected(self, request: MatchRequest):
        was_replicated = self.nic.unexpected_pushed_flags.popleft()
        if was_replicated:
            entry = yield from self._alpu_match(
                self.unexpected_driver, self.unexpected_q, request
            )
        else:
            entry = yield from self.software_search(self.unexpected_q, request)
        return entry

    def _alpu_match(
        self,
        driver: AlpuQueueDriver,
        queue: NicQueue,
        request: MatchRequest,
    ):
        """Section IV-D result handling: ALPU response, then the software
        suffix on MATCH FAILURE."""
        rec = self.fw.recorder
        if rec.enabled:
            rec.search_note(
                alpu=driver.device.name,
                alpu_occupancy=driver.device.alpu.occupancy,
            )
        # "the processor should first retrieve the copy of the data
        # provided to it and then retrieve the response": one bus read for
        # the replicated header copy, then the result-FIFO read
        yield delay(driver.device.bus_latency_ps)
        response = yield from driver.read_result()
        yield delay(self.proc.compute(self.cost.alpu_result_handle_cycles))
        if isinstance(response, MatchSuccess):
            entry = driver.take_matched_entry(response)
            queue.remove(entry)
            # the matched entry's request state lives in its second line
            # (read-only here: the driver's tag table held the live state)
            yield delay(
                self.proc.compute(self.cost.dequeue_cycles)
                + self.proc.touch(entry.addr + 64, 64)
            )
            return entry
        entry = yield from self.software_search(queue, request, suffix_only=True)
        if entry is not None:
            driver.forget_software_removal(entry)
        return entry

    # -------------------------------------------------------- maintenance
    def needs_update(self) -> bool:
        """Would either driver's ``update()`` do anything?"""
        return (
            self.posted_driver.needs_update()
            or self.unexpected_driver.needs_update()
        )

    def update(self):
        """One "update the ALPU" step per driver (batched inserts).

        A driver whose :meth:`~AlpuQueueDriver.needs_update` is False
        would return 0 without yielding, so its generator is not built.
        """
        moved = 0
        if self.posted_driver.needs_update():
            moved += yield from self.posted_driver.update()
        if self.unexpected_driver.needs_update():
            moved += yield from self.unexpected_driver.update()
        return moved > 0
