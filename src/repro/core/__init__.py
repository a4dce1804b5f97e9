"""The ALPU -- Associative List Processing Unit.

This subpackage is the paper's primary contribution: a TCAM-like
associative matching structure augmented with list management so it can
implement MPI's ordered, high-turnover posted-receive and
unexpected-message queues in hardware.

The structure follows Figure 2 of the paper:

* :class:`~repro.core.alpu.Alpu` -- the array of match cells.  Each cell
  holds match bits, (optionally stored) mask bits, a valid bit and a tag
  that software uses as a pointer into NIC memory; the two
  :class:`~repro.core.alpu.CellKind` flavours differ in where the mask
  comes from (stored by the posted-receive cell, an input of the
  unexpected-message cell).  The array is packed one SWAR word per field,
  so a match compares every cell at once and the oldest hit wins; cell
  blocks survive as the insert-mode compaction rule.  The ALPU adds the
  controlling state machine of Figure 3 (Match / Read Command / Insert
  modes) and the command/response protocol of Tables I and II.
* :class:`~repro.core.pipeline.AlpuTimingModel` -- the pipeline timing of
  Section V-D: a new match every 6-7 clock cycles, inserts every other
  cycle, with the between-block stage set by the block geometry.

The golden linear-list matcher the ALPU is held equal to lives with the
tests (``tests/core/reference.py``): nothing in the simulator runs on it.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    globals(),
    {
        "match": (
            "MatchFormat",
            "MatchRequest",
            "MatchEntry",
            "matches",
            "ANY_SOURCE",
            "ANY_TAG",
        ),
        "alpu": ("Alpu", "AlpuConfig", "AlpuMode", "CellKind"),
        "commands": (
            "Command",
            "StartInsert",
            "Insert",
            "StopInsert",
            "Reset",
            "Response",
            "StartAcknowledge",
            "MatchSuccess",
            "MatchFailure",
        ),
        "pipeline": ("AlpuTimingModel",),
    },
)
