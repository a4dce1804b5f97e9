"""One instrumentation stream: typed records and the message lifecycles
built from them.

Every instrumented site emits each fact once, as a :class:`Record`
``(time_ps, component, stage, uid, detail)`` plus a ``kind``:

* ``instant`` (the default) -- a point: a packet on the wire, a header
  parked in the unexpected queue, a refusal, a retransmission;
* ``begin``/``end`` -- a span of one component: an ALPU command or match
  occupying the pipeline, a software queue traversal;
* ``counter`` -- one sample of a probed level (``detail={"value": v}``).

``component`` names the emitting instance (``"nic1"``,
``"nic0.alpu.posted"``, ``"fabric"``, ``"host3"``); ``uid`` is the
globally unique send-queue-entry id every packet of a message carries as
``send_id``, or ``None`` for facts about a component rather than a
message.

**Message lifecycles are a view of the stream.**  The paper's argument
is a latency *decomposition*: the ALPU wins by deleting the
queue-traversal term, not the wire or DMA terms.  So every MPI request
(and the network journey of every send) gets a :class:`MessageLifecycle`
-- the ordered records of its stage transitions from ``mpi.api`` post
through host command issue, NIC posting, DMA, the wire, the receive
FIFO, queue insertion, backend search and delivery, to completion.  The
recorder routes each record into the lifecycle it belongs to; the
lifecycle holds the *same* record object the stream holds, so each fact
is stored once.

The core invariant is **telescoping residency**: the residency of stage
``i`` is ``marks[i+1].time_ps - marks[i].time_ps``, so the per-stage
budgets of a complete lifecycle sum *exactly* to its end-to-end latency
(terminal time minus first mark time) by construction.  The attribution
analyzer (:mod:`repro.analysis.attribution`) folds lifecycles into those
budgets.

Identity and correlation:

* request lifecycles are keyed ``(rank, req_id)`` -- unique because each
  :class:`~repro.mpi.api.MpiProcess` draws request ids from one counter;
* the firmware binds the send queue entry's ``uid`` to the send's
  lifecycle (:meth:`Recorder.bind_uid`), so the fabric, the receiving
  NIC and the backends reach the *message* through the record's uid
  without knowing MPI ids;
* at match time the receive-side entry is aliased onto the message
  (:meth:`Recorder.alias_uid`) so the delivery/DMA/completion path --
  which only sees the receive entry -- keeps appending to the same
  lifecycle, and the receive's completion is watched
  (:meth:`Recorder.watch_completion`) so the message's terminal mark
  lands at the exact host ``completed_at``;
* once a lifecycle holds its terminal record it takes no more: late
  wire echoes (a retransmission fired because the *ACK* was lost after
  the payload completed) stay in the stream as component facts.

Zero perturbation: recording never yields, schedules or charges
simulated time, and the engine carries :data:`NULL_RECORDER` (``enabled``
False) unless a bundle attached a real one -- every site guards on
``enabled`` before building a detail dict.  Timestamps come from the
clock the engine attaches (:meth:`Recorder.attach_clock`); an explicit
``time_ps`` serves the *retroactive* marks (an unexpected-queue search
only learns which message it served after it returns) and the fabric's
computed per-hop times.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Tuple

#: record kinds, mirroring the Chrome trace-event phases they export to
KIND_INSTANT = "instant"
KIND_BEGIN = "begin"
KIND_END = "end"
KIND_COUNTER = "counter"

#: the one terminal stage; a complete lifecycle ends with exactly one
TERMINAL_STAGE = "complete"

Detail = Optional[Dict[str, object]]


@dataclasses.dataclass(slots=True)
class Record:
    """One typed fact of the instrumentation stream."""

    time_ps: int
    component: str
    stage: str
    uid: Optional[int] = None
    detail: Detail = None
    kind: str = KIND_INSTANT


@dataclasses.dataclass
class MessageLifecycle:
    """The recorded journey of one request / message."""

    #: monotone recorder-local id (stable across identical runs)
    mid: int
    #: "send" (the message journey) or "recv" (the posted receive)
    kind: str
    rank: int
    req_id: int
    #: the stream's records of this message, in stage order
    marks: List[Record] = dataclasses.field(default_factory=list)
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


class Recorder:
    """The stream (:attr:`records`) and its lifecycle view
    (:attr:`lifecycles`); see the module docstring."""

    enabled = True

    def __init__(self) -> None:
        self._now: Callable[[], int] = lambda: 0
        #: every record, in emission order
        self.records: List[Record] = []
        self.lifecycles: List[MessageLifecycle] = []
        self._by_key: Dict[Tuple[str, int, int], MessageLifecycle] = {}
        self._by_uid: Dict[int, MessageLifecycle] = {}
        #: (rank, req_id) of a receive -> messages whose terminal mark is
        #: that receive's completion
        self._watchers: Dict[Tuple[int, int], List[MessageLifecycle]] = {}
        #: backend-side facts captured mid-search (ALPU occupancy, hash
        #: probe counts) and merged into the search mark afterwards
        self._search_notes: Dict[str, object] = {}

    def attach_clock(self, now_fn: Callable[[], int]) -> None:
        """Bind the simulated-time source (the engine does this)."""
        self._now = now_fn

    # ------------------------------------------------------------ emission
    def _emit(
        self,
        component: str,
        stage: str,
        uid: Optional[int],
        detail: Detail,
        time_ps: Optional[int],
        kind: str = KIND_INSTANT,
    ) -> Record:
        record = Record(
            self._now() if time_ps is None else time_ps,
            component,
            stage,
            uid,
            detail,
            kind,
        )
        self.records.append(record)
        return record

    @staticmethod
    def _mark(lifecycle: Optional[MessageLifecycle], record: Record) -> None:
        """Append ``record`` to ``lifecycle`` unless its journey ended
        (the one place a later change could fold a finished message)."""
        if lifecycle is None:
            return
        marks = lifecycle.marks
        if not marks or marks[-1].stage != TERMINAL_STAGE:
            marks.append(record)

    def record(
        self,
        component: str,
        stage: str,
        uid: Optional[int] = None,
        detail: Detail = None,
        *,
        time_ps: Optional[int] = None,
        kind: str = KIND_INSTANT,
    ) -> None:
        """Emit one record; a uid bound to a message also marks it."""
        record = self._emit(component, stage, uid, detail, time_ps, kind)
        if uid is not None:
            self._mark(self._by_uid.get(uid), record)

    def record_clamped(
        self,
        component: str,
        stage: str,
        uid: int,
        time_ps: int,
        detail: Detail = None,
    ) -> None:
        """:meth:`record` at an explicit time clamped monotone.

        The fabric's per-hop records carry *computed* timestamps (a hop's
        serialization start/end are known at injection, ahead of the
        clock), so a record that lands after an interleaved event -- e.g.
        a retransmission of the same message re-entering the wire --
        could otherwise step behind its lifecycle's last mark.  Clamping
        to that mark's time keeps every lifecycle monotone without
        perturbing the telescoping sums.
        """
        lifecycle = self._by_uid.get(uid)
        if lifecycle is not None and lifecycle.marks:
            time_ps = max(time_ps, lifecycle.marks[-1].time_ps)
        self._mark(lifecycle, self._emit(component, stage, uid, detail, time_ps))

    # ------------------------------------------------------ request keyed
    def open_request(
        self,
        kind: str,
        rank: int,
        req_id: int,
        component: str,
        time_ps: Optional[int] = None,
        detail: Detail = None,
    ) -> None:
        """Open a request's lifecycle with its ``api_post`` mark."""
        lifecycle = MessageLifecycle(
            mid=len(self.lifecycles) + 1, kind=kind, rank=rank, req_id=req_id
        )
        self.lifecycles.append(lifecycle)
        self._by_key[(kind, rank, req_id)] = lifecycle
        self._mark(
            lifecycle, self._emit(component, "api_post", None, detail, time_ps)
        )

    def _request(self, rank: int, req_id: int) -> Optional[MessageLifecycle]:
        # a (rank, req_id) pair names at most one lifecycle: MPI request
        # ids come from one per-process counter shared across sends and
        # receives
        return self._by_key.get(("send", rank, req_id)) or self._by_key.get(
            ("recv", rank, req_id)
        )

    def mark_request(
        self,
        rank: int,
        req_id: int,
        component: str,
        stage: str,
        time_ps: Optional[int] = None,
        detail: Detail = None,
    ) -> None:
        """Emit a stage transition of a request's lifecycle."""
        record = self._emit(component, stage, None, detail, time_ps)
        self._mark(self._request(rank, req_id), record)

    def annotate_request(self, rank: int, req_id: int, **facts: object) -> None:
        """Merge facts into the *detail* of a request's last mark."""
        self._annotate_last(self._request(rank, req_id), facts)

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
        component: str,
        time_ps: int,
        *,
        recv: bool,
    ) -> None:
        """The host consumed the request's completion.

        A *receive* completing is the terminal record of its own
        lifecycle **and** of every message watching it (the matched send)
        -- the very timestamp the benchmarks report latency against.  A
        *send* completing on the sender side may race the receiver-side
        journey, so it is kept as an annotation, never a mark.
        """
        if recv:
            record = self._emit(component, TERMINAL_STAGE, None, None, time_ps)
            self._mark(self._by_key.get(("recv", rank, req_id)), record)
            for watcher in self._watchers.pop((rank, req_id), ()):
                self._mark(watcher, record)
        else:
            lifecycle = self._by_key.get(("send", rank, req_id))
            if lifecycle is not None:
                lifecycle.annotations["sender_completed_at_ps"] = time_ps

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

    def annotate_uid(self, uid: int, **facts: object) -> None:
        """Merge facts into the detail of the bound message's last mark."""
        self._annotate_last(self._by_uid.get(uid), facts)

    def watch_completion(self, rank: int, req_id: int, uid: int) -> None:
        """Terminal-mark ``uid``'s message when this receive completes."""
        lifecycle = self._by_uid.get(uid)
        if lifecycle is not None:
            self._watchers.setdefault((rank, req_id), []).append(lifecycle)

    @staticmethod
    def _annotate_last(
        lifecycle: Optional[MessageLifecycle], facts: Dict[str, object]
    ) -> None:
        if lifecycle is not None and lifecycle.marks:
            last = lifecycle.marks[-1]
            last.detail = {**last.detail, **facts} if last.detail else facts

    # ------------------------------------------------------- search notes
    def search_note(self, **facts: object) -> None:
        """Backends deposit mid-search facts (ALPU occupancy, probes)."""
        self._search_notes.update(facts)

    def pop_search_notes(self) -> Dict[str, object]:
        """The firmware collects the deposited facts after the search."""
        notes, self._search_notes = self._search_notes, {}
        return notes


class NullRecorder:
    """The disabled recorder: every method is a no-op.

    ``records`` and ``lifecycles`` are immutable empty tuples so
    accidental reads are safe; hot paths guard on :attr:`enabled` before
    building details.
    """

    enabled = False
    records = ()
    lifecycles = ()

    def _ignore(self, *args, **kwargs) -> None:
        return None

    attach_clock = record = record_clamped = _ignore
    open_request = mark_request = annotate_request = _ignore
    label_request = complete_request = _ignore
    bind_uid = alias_uid = annotate_uid = watch_completion = _ignore
    search_note = _ignore

    def pop_search_notes(self) -> Dict[str, object]:
        return {}


NULL_RECORDER = NullRecorder()
