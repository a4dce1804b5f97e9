"""Golden reference: an ordered linear match list, the ALPU's test oracle.

Every MPI implementation the paper surveys represents the posted-receive
and unexpected queues as linear lists with first-match-wins semantics.
:class:`ReferenceMatchList` is that list, kept as the differential
oracle: the ALPU, for any interleaving of inserts and matches, must
behave exactly like it, and the hypothesis property suite drives both
with the same traffic and compares.  (The NIC's own software queues live
in :mod:`repro.nic`; nothing in the simulator runs on this class.)
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.core.match import MatchEntry, MatchRequest


class ReferenceMatchList:
    """An ordered list with MPI match semantics (oldest entry first)."""

    def __init__(self) -> None:
        self._entries: List[MatchEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[MatchEntry]:
        return iter(self._entries)

    def append(self, entry: MatchEntry) -> None:
        """Add a new (youngest) entry at the tail."""
        self._entries.append(entry)

    def match(self, request: MatchRequest) -> Tuple[Optional[MatchEntry], int]:
        """Find-and-remove the first (oldest) matching entry.

        Returns ``(entry, entries_traversed)``; ``entry`` is None on a
        failed match, in which case every entry was traversed.
        """
        for index, entry in enumerate(self._entries):
            if entry.matches_request(request):
                del self._entries[index]
                return entry, index + 1
        return None, len(self._entries)

    def snapshot(self) -> List[MatchEntry]:
        """Copy of the entries, oldest first."""
        return list(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        self._entries.clear()
