"""Per-message lifecycle recording -- the flight recorder.

The paper's argument is a latency *decomposition*: the ALPU wins by
deleting the queue-traversal term, not the wire or DMA terms.  Aggregate
counters (:mod:`repro.obs.metrics`) cannot answer "for message #k, how
many ps went to host overhead vs. DMA vs. wire vs. unexpected-queue
residency vs. match search?".  This module can: every MPI request (and
the network journey of every send) carries a **lifecycle** -- an ordered
list of typed ``(time_ps, stage, detail)`` transition marks appended as
the message moves from ``mpi.api`` post through host command issue, NIC
posting, DMA, the wire, the receive FIFO, queue insertion, backend
search and delivery, to completion.

The core invariant is **telescoping residency**: the residency of stage
``i`` is ``marks[i+1].time_ps - marks[i].time_ps``, so the per-stage
budgets of a complete lifecycle sum *exactly* to its end-to-end latency
(terminal time minus first mark time) by construction.  The attribution
analyzer (:mod:`repro.analysis.attribution`) folds lifecycles into those
budgets; nothing downstream needs to re-derive timing.

Zero perturbation, same contract as the rest of :mod:`repro.obs`:

* recording is opt-in; the engine carries :data:`NULL_LIFECYCLE` (all
  methods no-ops, ``enabled`` False) unless a real recorder is attached;
* every mark is a plain function call -- recorders never ``yield``,
  never schedule events and never charge simulated time, so latencies
  are bit-identical either way (pinned by
  ``tests/obs/test_zero_perturbation.py``).

Identity and correlation:

* request lifecycles are keyed ``(rank, req_id)`` -- unique because each
  :class:`~repro.mpi.api.MpiProcess` draws request ids from one counter;
* the firmware binds the send queue entry's globally unique ``uid`` to
  the send's lifecycle (:meth:`LifecycleRecorder.bind_uid`), and every
  packet carries that uid as ``send_id``, so the fabric, the receiving
  NIC and the backends can mark the *message* without knowing MPI ids;
* at match time the receive-side entry is aliased onto the message
  (:meth:`alias_uid`) so the delivery/DMA/completion path -- which only
  sees the receive entry -- keeps appending to the same lifecycle, and
  the receive's completion is watched (:meth:`watch_completion`) so the
  message's terminal mark lands at the exact host ``completed_at``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

#: the one terminal stage; a complete lifecycle ends with exactly one
TERMINAL_STAGE = "complete"


@dataclasses.dataclass(frozen=True)
class LifecycleMark:
    """One typed stage transition."""

    time_ps: int
    stage: str
    detail: Optional[Dict[str, object]] = None


@dataclasses.dataclass
class MessageLifecycle:
    """The recorded journey of one request / message."""

    #: monotone recorder-local id (stable across identical runs)
    mid: int
    #: "send" (the message journey) or "recv" (the posted receive)
    kind: str
    rank: int
    req_id: int
    marks: List[LifecycleMark] = dataclasses.field(default_factory=list)
    #: workload-assigned role ("ping", "pong", "filler", ...)
    label: Optional[str] = None
    #: workload-assigned metadata (iteration, timed flag, ...)
    meta: Dict[str, object] = dataclasses.field(default_factory=dict)
    #: out-of-band facts that are not stage transitions (e.g. the
    #: sender-side completion time of a send, which may race the
    #: receiver-side terminal and so must not be a mark)
    annotations: Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return bool(self.marks) and self.marks[-1].stage == TERMINAL_STAGE

    @property
    def start_ps(self) -> int:
        return self.marks[0].time_ps if self.marks else 0

    @property
    def end_ps(self) -> int:
        return self.marks[-1].time_ps if self.marks else 0

    def to_obj(self) -> Dict[str, object]:
        """A JSON-serializable dict (the dump/CLI interchange shape)."""
        return {
            "mid": self.mid,
            "kind": self.kind,
            "rank": self.rank,
            "req_id": self.req_id,
            "label": self.label,
            "meta": dict(self.meta),
            "annotations": dict(self.annotations),
            "marks": [
                {
                    "time_ps": mark.time_ps,
                    "stage": mark.stage,
                    "detail": dict(mark.detail) if mark.detail else None,
                }
                for mark in self.marks
            ],
        }

    @staticmethod
    def from_obj(obj: Dict[str, object]) -> "MessageLifecycle":
        """Rebuild a lifecycle from :meth:`to_obj` output."""
        lifecycle = MessageLifecycle(
            mid=obj["mid"],
            kind=obj["kind"],
            rank=obj["rank"],
            req_id=obj["req_id"],
            label=obj.get("label"),
            meta=dict(obj.get("meta") or {}),
            annotations=dict(obj.get("annotations") or {}),
        )
        for mark in obj.get("marks", ()):
            lifecycle.marks.append(
                LifecycleMark(
                    time_ps=mark["time_ps"],
                    stage=mark["stage"],
                    detail=mark.get("detail"),
                )
            )
        return lifecycle


class LifecycleRecorder:
    """Collects :class:`MessageLifecycle` objects (see module docstring).

    Mark methods take an optional explicit ``time_ps``; without one they
    read the clock the engine attaches -- exactly the tracer's pattern.
    The explicit form exists for *retroactive* attribution: a search of
    the unexpected queue only learns which message it served after it
    returns, so the firmware stamps the search's start time onto the
    winning message afterwards (still monotone: the message was enqueued
    before the search began).
    """

    enabled = True

    def __init__(self) -> None:
        self._now: Callable[[], int] = lambda: 0
        self._mids = 0
        self.lifecycles: List[MessageLifecycle] = []
        self._by_key: Dict[Tuple[str, int, int], MessageLifecycle] = {}
        self._by_uid: Dict[int, MessageLifecycle] = {}
        #: (rank, req_id) of a receive -> messages whose terminal mark is
        #: that receive's completion
        self._watchers: Dict[Tuple[int, int], List[MessageLifecycle]] = {}
        #: backend-side facts captured mid-search (ALPU occupancy, hash
        #: probe counts) and merged into the search mark afterwards
        self._search_notes: Dict[str, object] = {}

    # ------------------------------------------------------------- plumbing
    def attach_clock(self, now_fn: Callable[[], int]) -> None:
        """Bind the simulated-time source (the engine does this)."""
        self._now = now_fn

    def _mark(
        self,
        lifecycle: MessageLifecycle,
        stage: str,
        time_ps: Optional[int],
        detail: Optional[Dict[str, object]],
    ) -> None:
        if lifecycle.marks and lifecycle.marks[-1].stage == TERMINAL_STAGE:
            # the message's journey has ended; late wire echoes (e.g. a
            # retransmission fired because the *ACK* was lost after the
            # payload completed) must not un-complete the record
            return
        lifecycle.marks.append(
            LifecycleMark(
                time_ps=self._now() if time_ps is None else time_ps,
                stage=stage,
                detail=detail,
            )
        )

    # ------------------------------------------------------ request keyed
    def begin(
        self,
        kind: str,
        rank: int,
        req_id: int,
        time_ps: Optional[int] = None,
        detail: Optional[Dict[str, object]] = None,
        stage: str = "api_post",
    ) -> MessageLifecycle:
        """Open a lifecycle with its first mark."""
        self._mids += 1
        lifecycle = MessageLifecycle(
            mid=self._mids, kind=kind, rank=rank, req_id=req_id
        )
        self.lifecycles.append(lifecycle)
        self._by_key[(kind, rank, req_id)] = lifecycle
        self._mark(lifecycle, stage, time_ps, detail)
        return lifecycle

    def _request(self, rank: int, req_id: int) -> Optional[MessageLifecycle]:
        # a (rank, req_id) pair names at most one lifecycle: MPI request
        # ids come from one per-process counter shared across sends and
        # receives
        for kind in ("send", "recv"):
            lifecycle = self._by_key.get((kind, rank, req_id))
            if lifecycle is not None:
                return lifecycle
        return None

    def mark_request(
        self,
        rank: int,
        req_id: int,
        stage: str,
        time_ps: Optional[int] = None,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append a stage transition to a request's lifecycle."""
        lifecycle = self._request(rank, req_id)
        if lifecycle is not None:
            self._mark(lifecycle, stage, time_ps, detail)

    def annotate_request(self, rank: int, req_id: int, **facts: object) -> None:
        """Merge facts into the *detail* of a request's last mark."""
        lifecycle = self._request(rank, req_id)
        if lifecycle is not None and lifecycle.marks:
            self._annotate_last(lifecycle, facts)

    def label_request(
        self, rank: int, req_id: int, label: str, **meta: object
    ) -> None:
        """Workloads tag roles here ("ping", iteration, timed...)."""
        lifecycle = self._request(rank, req_id)
        if lifecycle is not None:
            lifecycle.label = label
            lifecycle.meta.update(meta)

    def complete_request(
        self,
        rank: int,
        req_id: int,
        time_ps: Optional[int] = None,
        *,
        recv: bool,
    ) -> None:
        """The host consumed the request's completion.

        A *receive* completing is the terminal event of its own lifecycle
        **and** of every message watching it (the matched send) -- the
        very timestamp the benchmarks report latency against.  A *send*
        completing on the sender side may race the receiver-side journey,
        so it is recorded as an annotation, never a mark.
        """
        if recv:
            t = self._now() if time_ps is None else time_ps
            lifecycle = self._by_key.get(("recv", rank, req_id))
            if lifecycle is not None:
                self._mark(lifecycle, TERMINAL_STAGE, t, None)
            for watcher in self._watchers.pop((rank, req_id), ()):
                self._mark(watcher, TERMINAL_STAGE, t, None)
        else:
            lifecycle = self._by_key.get(("send", rank, req_id))
            if lifecycle is not None:
                lifecycle.annotations["sender_completed_at_ps"] = (
                    self._now() if time_ps is None else time_ps
                )

    # --------------------------------------------------------- uid keyed
    def bind_uid(self, rank: int, req_id: int, uid: int) -> None:
        """Bind a send queue entry's uid to the send's lifecycle."""
        lifecycle = self._by_key.get(("send", rank, req_id))
        if lifecycle is not None:
            self._by_uid[uid] = lifecycle

    def alias_uid(self, uid: int, to_uid: int) -> None:
        """Make ``uid`` (a receive-side entry) resolve to the message of
        ``to_uid`` -- the delivery path only sees the receive entry."""
        lifecycle = self._by_uid.get(to_uid)
        if lifecycle is not None:
            self._by_uid[uid] = lifecycle

    def mark_uid(
        self,
        uid: int,
        stage: str,
        time_ps: Optional[int] = None,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append a stage transition to the message bound to ``uid``.

        Unknown uids are ignored: component-level users (a bare Fabric,
        a NIC driven outside an MpiWorld) emit marks nothing listens to.
        """
        lifecycle = self._by_uid.get(uid)
        if lifecycle is not None:
            self._mark(lifecycle, stage, time_ps, detail)

    def annotate_uid(self, uid: int, **facts: object) -> None:
        """Merge facts into the detail of the bound message's last mark."""
        lifecycle = self._by_uid.get(uid)
        if lifecycle is not None and lifecycle.marks:
            self._annotate_last(lifecycle, facts)

    def mark_uid_clamped(
        self,
        uid: int,
        stage: str,
        time_ps: int,
        detail: Optional[Dict[str, object]] = None,
    ) -> None:
        """:meth:`mark_uid` with an explicit time clamped monotone.

        The fabric's per-hop marks carry *computed* timestamps (a hop's
        serialization start/end are known at injection, ahead of the
        clock), so a mark that lands after an interleaved event -- e.g. a
        retransmission of the same message re-entering the wire -- could
        otherwise step behind the record's last mark.  Clamping to the
        last mark time keeps every lifecycle monotone without perturbing
        the telescoping sums (bounding marks are never clamped forward).
        """
        lifecycle = self._by_uid.get(uid)
        if lifecycle is None:
            return
        if lifecycle.marks and time_ps < lifecycle.marks[-1].time_ps:
            time_ps = lifecycle.marks[-1].time_ps
        self._mark(lifecycle, stage, time_ps, detail)

    def watch_completion(self, rank: int, req_id: int, uid: int) -> None:
        """Terminal-mark ``uid``'s message when this receive completes."""
        lifecycle = self._by_uid.get(uid)
        if lifecycle is not None:
            self._watchers.setdefault((rank, req_id), []).append(lifecycle)

    # ------------------------------------------------------- search notes
    def search_note(self, **facts: object) -> None:
        """Backends deposit mid-search facts (ALPU occupancy, probes)."""
        self._search_notes.update(facts)

    def pop_search_notes(self) -> Dict[str, object]:
        """The firmware collects the deposited facts after the search."""
        notes, self._search_notes = self._search_notes, {}
        return notes

    def _annotate_last(
        self, lifecycle: MessageLifecycle, facts: Dict[str, object]
    ) -> None:
        last = lifecycle.marks[-1]
        detail = dict(last.detail) if last.detail else {}
        detail.update(facts)
        lifecycle.marks[-1] = dataclasses.replace(last, detail=detail)

    # -------------------------------------------------------------- output
    def __len__(self) -> int:
        return len(self.lifecycles)

    def to_obj(self) -> Dict[str, object]:
        """JSON-serializable dump of every lifecycle."""
        return {
            "lifecycles": [lc.to_obj() for lc in self.lifecycles],
        }


class NullLifecycleRecorder:
    """The disabled recorder: every method is a no-op.

    ``lifecycles`` is an immutable empty tuple so accidental reads are
    safe; hot paths guard on :attr:`enabled` before building details.
    """

    enabled = False
    lifecycles = ()

    def attach_clock(self, now_fn) -> None:
        pass

    def begin(self, kind, rank, req_id, time_ps=None, detail=None, stage="api_post"):
        return None

    def mark_request(self, rank, req_id, stage, time_ps=None, detail=None) -> None:
        pass

    def annotate_request(self, rank, req_id, **facts) -> None:
        pass

    def label_request(self, rank, req_id, label, **meta) -> None:
        pass

    def complete_request(self, rank, req_id, time_ps=None, *, recv) -> None:
        pass

    def bind_uid(self, rank, req_id, uid) -> None:
        pass

    def alias_uid(self, uid, to_uid) -> None:
        pass

    def mark_uid(self, uid, stage, time_ps=None, detail=None) -> None:
        pass

    def annotate_uid(self, uid, **facts) -> None:
        pass

    def mark_uid_clamped(self, uid, stage, time_ps, detail=None) -> None:
        pass

    def watch_completion(self, rank, req_id, uid) -> None:
        pass

    def search_note(self, **facts) -> None:
        pass

    def pop_search_notes(self):
        return {}

    def __len__(self) -> int:
        return 0

    def to_obj(self):
        return {"lifecycles": []}


NULL_LIFECYCLE = NullLifecycleRecorder()
