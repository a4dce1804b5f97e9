"""Bounded FIFOs with back-pressure and wakeup signals.

The paper's NIC decouples the processor from the ALPU with hardware FIFOs
(header FIFO, command FIFO, result FIFO).  :class:`Fifo` models these: a
bounded queue whose ``not_empty`` / ``not_full`` signals processes can wait
on, so a consumer firmware loop can sleep until a result arrives and the
ALPU can stall when the command FIFO backs up.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

from repro.sim.signal import Signal

T = TypeVar("T")


class FifoFullError(RuntimeError):
    """Raised on push to a full FIFO."""


class FifoEmptyError(RuntimeError):
    """Raised on pop from an empty FIFO."""


class Fifo(Generic[T]):
    """A bounded FIFO.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``None`` means unbounded (used for
        software-visible queues where the bound is enforced elsewhere).
    name:
        Diagnostic name, also used to name the wakeup signals.
    """

    def __init__(self, capacity: Optional[int] = None, name: str = "fifo") -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        #: the queued items, oldest first.  Pollers may test its truth (a
        #: C-level emptiness check, no ``__len__`` call) but must never
        #: mutate it: only push/pop keep the signals in step.
        self.items: Deque[T] = deque()
        #: pulses on every push (and its level tracks non-emptiness)
        self.not_empty = Signal(f"{name}.not_empty")
        #: pulses on every pop from full (level tracks non-fullness)
        self.not_full = Signal(f"{name}.not_full")
        self.not_full.set()
        # lifetime statistics
        self.total_pushed = 0
        self.total_popped = 0
        self.high_water = 0

    # ------------------------------------------------------------- observers
    def __len__(self) -> int:
        return len(self.items)

    @property
    def empty(self) -> bool:
        """No items queued?"""
        return not self.items

    @property
    def full(self) -> bool:
        """At capacity? (Never true for unbounded FIFOs.)"""
        return self.capacity is not None and len(self.items) >= self.capacity

    def peek(self) -> T:
        """Return the head item without removing it."""
        if not self.items:
            raise FifoEmptyError(f"peek on empty fifo {self.name}")
        return self.items[0]

    # ------------------------------------------------------------ operations
    def push(self, item: T) -> None:
        """Append ``item``; raises :class:`FifoFullError` when full."""
        items = self.items
        capacity = self.capacity
        if capacity is not None and len(items) >= capacity:
            raise FifoFullError(f"push to full fifo {self.name}")
        items.append(item)
        self.total_pushed += 1
        depth = len(items)
        if depth > self.high_water:
            self.high_water = depth
        if capacity is not None and depth >= capacity:
            self.not_full.clear()
        self.not_empty.set()

    def pop(self) -> T:
        """Remove and return the head item."""
        items = self.items
        if not items:
            raise FifoEmptyError(f"pop from empty fifo {self.name}")
        item = items.popleft()
        self.total_popped += 1
        if not items:
            self.not_empty.clear()
        self.not_full.set()
        return item

    def try_pop(self) -> Optional[T]:
        """Pop if non-empty, else return None."""
        if not self.items:
            return None
        return self.pop()

    def drain(self) -> list[T]:
        """Pop everything, in order."""
        out = []
        while self.items:
            out.append(self.pop())
        return out

    def clear(self) -> None:
        """Discard all contents (models a hardware reset)."""
        self.items.clear()
        self.not_empty.clear()
        self.not_full.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        cap = "inf" if self.capacity is None else self.capacity
        return f"<Fifo {self.name!r} {len(self.items)}/{cap}>"
