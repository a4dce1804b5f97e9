"""Deterministic, seeded fault injection for the network fabric.

The fabric consults a :class:`FaultModel` once per injected packet and
receives a :class:`Verdict`: deliver it untouched, drop it, duplicate it,
delay it (re-injecting after a fixed extra latency so it lands *behind*
later traffic -- a reorder), or corrupt its match header (caught at the
receiver by the packet checksum).

Determinism contract: the model owns a private :class:`random.Random`
seeded from :attr:`FaultConfig.seed`, and two models built from equal
configs produce identical verdict sequences for identical packet
sequences.  When every rate is zero :meth:`FaultModel.judge` returns
``DELIVER`` without drawing from the RNG at all, so an attached-but-idle
model is bit-identical to no model.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from typing import Optional

from repro.network.packet import Packet


@dataclasses.dataclass(frozen=True)
class FaultConfig:
    """Per-packet fault probabilities (all independent of packet contents).

    Rates are probabilities in ``[0, 1]`` and must sum to at most 1 -- a
    single uniform draw is partitioned across the fault classes, so one
    packet suffers at most one fault.
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_rate: float = 0.0
    #: extra injection delay applied to a reordered packet (1 us default,
    #: comfortably longer than the 200 ns wire so later packets overtake)
    reorder_delay_ps: int = 1_000_000
    corrupt_rate: float = 0.0

    def __post_init__(self) -> None:
        for field in ("drop_rate", "duplicate_rate", "reorder_rate", "corrupt_rate"):
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {rate}")
        total = (
            self.drop_rate + self.duplicate_rate + self.reorder_rate + self.corrupt_rate
        )
        if total > 1.0:
            raise ValueError(f"fault rates must sum to <= 1, got {total}")
        if self.reorder_delay_ps < 0:
            raise ValueError(f"reorder_delay_ps must be >= 0, got {self.reorder_delay_ps}")

    @property
    def enabled(self) -> bool:
        """True when any fault class can actually occur."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.reorder_rate > 0
            or self.corrupt_rate > 0
        )


class Verdict(enum.Enum):
    """What the fabric should do with one packet."""

    DELIVER = "deliver"
    DROP = "drop"
    DUPLICATE = "duplicate"
    DELAY = "delay"
    CORRUPT = "corrupt"


# module globals for the per-hop path (see repro.network.packet: a load
# through the enum class is several times slower)
DELIVER = Verdict.DELIVER
DROP = Verdict.DROP
DUPLICATE = Verdict.DUPLICATE
DELAY = Verdict.DELAY
CORRUPT = Verdict.CORRUPT


class FaultModel:
    """Seeded per-packet fault oracle; one verdict per :meth:`judge` call."""

    def __init__(self, config: Optional[FaultConfig] = None) -> None:
        self.config = config if config is not None else FaultConfig()
        self._rng = random.Random(self.config.seed)
        # per-verdict tallies (a fabric's ``fault_totals`` also counts
        # them, per hop and per link)
        self.drops = 0
        self.duplicates = 0
        self.delays = 0
        self.corruptions = 0

    def judge(self, packet: Packet) -> Verdict:
        """Decide the fate of ``packet``.

        Draws exactly one uniform sample per call when any rate is
        nonzero, and none at all when the model is idle -- so a
        zero-rate model never perturbs anything, not even its own RNG.
        """
        config = self.config
        if not config.enabled:
            return DELIVER
        draw = self._rng.random()
        threshold = config.drop_rate
        if draw < threshold:
            self.drops += 1
            return DROP
        threshold += config.duplicate_rate
        if draw < threshold:
            self.duplicates += 1
            return DUPLICATE
        threshold += config.reorder_rate
        if draw < threshold:
            self.delays += 1
            return DELAY
        threshold += config.corrupt_rate
        if draw < threshold:
            self.corruptions += 1
            return CORRUPT
        return DELIVER

    def corrupt_bits(self, bits: int) -> int:
        """Flip at least one bit of a match header (deterministic per seed)."""
        mask = 0
        while mask == 0:
            mask = self._rng.getrandbits(16)
        return bits ^ mask
