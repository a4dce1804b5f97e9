"""The NIC: firmware, queues, DMA engines and the ALPU integration.

The paper's MPI processing happens almost entirely on the NIC (Section
V-C): the host only dispatches requests and waits for completions.  The
NIC's embedded processor "continually executes a loop that performs four
actions: checking the network for new incoming messages; checking for any
new requests from the main processor; advancing active requests; and
updating the ALPU."

* :mod:`repro.nic.queues` -- the five firmware linked lists.
* :mod:`repro.nic.host_interface` -- commands/completions crossing the
  host-NIC boundary.
* :mod:`repro.nic.dma` -- Tx/Rx DMA engines.
* :mod:`repro.nic.alpu_device` -- the ALPU as a bus device: header,
  command and result FIFOs with event-driven pipeline timing.
* :mod:`repro.nic.driver` -- the Section IV software heuristics: when to
  start using the ALPU, batched inserts, result handling, and the
  software search of the not-yet-inserted list suffix.
* :mod:`repro.nic.firmware` -- the progress loop, in baseline
  (list-traversal) and ALPU-accelerated variants.
* :mod:`repro.nic.nic` -- the assembled NIC.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "queues": ("QueueEntry", "NicQueue", "EntryKind"),
        "host_interface": ("PostRecv", "PostSend", "Completion", "HostCommand"),
        "dma": ("DmaEngine", "DmaConfig"),
        "alpu_device": ("AlpuDevice",),
        "driver": ("AlpuQueueDriver",),
        "alpu_config": ("DriverConfig",),
        "firmware": ("NicFirmware", "FirmwareConfig"),
        "nic": ("Nic", "NicConfig"),
    },
)
