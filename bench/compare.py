"""Compare two benchmark results documents.

    python bench/compare.py A.json B.json

One row per (workload, end-to-end metric): each side's reported value
(the best pass for ``wall_s``/``events_per_s``, else the median) and
IQR, the change of B against A, and a verdict using the bounds in
``BENCHMARK.json``:

* **unresolved** -- either side's run-to-run spread (IQR / value) is
  wider than the bound, so the values cannot be told apart; unless
  every B sample beats every A sample, which reads **better**;
* **worse** / **better** -- the values differ by more than the bound;
* **unchanged** -- otherwise.

A last row per workload says whether the simulated results (the digest
of every latency sample, the event count and the final clock) are
identical.  Exits 1 when any row is **worse**.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]


def _spread(summary: dict) -> float:
    value = summary["value"]
    iqr = summary["q3"] - summary["q1"]
    return iqr / abs(value) if value else (0.0 if iqr == 0 else float("inf"))


def relative(a: float, b: float) -> float:
    """Relative change of B against A."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / abs(a)


def worse_by(a: float, b: float, better: str) -> float:
    """Relative change of B against A, signed so that positive is worse."""
    change = relative(a, b)
    return change if better == "lower" else -change


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """The verdict for one metric; ``a``/``b`` are results summaries."""
    if max(_spread(a), _spread(b)) > bound:
        beats = (lambda x, y: x < y) if better == "lower" else (lambda x, y: x > y)
        if all(beats(vb, va) for vb in b["values"] for va in a["values"]):
            return "better"
        return "unresolved"
    change = worse_by(a["value"], b["value"], better)
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "unchanged"


def compare(doc_a: dict, doc_b: dict, spec: dict) -> List[Dict[str, object]]:
    """Rows for every workload and end-to-end metric both documents hold."""
    rows = []
    for name in doc_a["workloads"]:
        wa = doc_a["workloads"][name]
        wb = doc_b["workloads"].get(name)
        if wb is None:
            continue
        for metric in spec["end_to_end"]:
            a = wa["metrics"].get(metric["name"])
            b = wb["metrics"].get(metric["name"])
            if a is None or b is None:
                continue
            rows.append(
                {
                    "workload": name,
                    "metric": metric["name"],
                    "unit": metric["unit"],
                    "a": a,
                    "b": b,
                    "change": relative(a["value"], b["value"]),
                    "verdict": verdict(a, b, metric["better"], metric["bound"]),
                }
            )
        same = (wa.get("sim") or {}).get("digest") == (wb.get("sim") or {}).get("digest")
        rows.append(
            {
                "workload": name,
                "metric": "simulated results",
                "verdict": "identical" if same else "differ",
            }
        )
    return rows


def _format(rows) -> str:
    lines = [
        f"{'workload':<18} {'metric':<17} {'A value (IQR)':>24} "
        f"{'B value (IQR)':>24} {'change':>8}  verdict"
    ]
    for row in rows:
        if "a" not in row:
            lines.append(f"{row['workload']:<18} {row['metric']:<17} {'':>59}  {row['verdict']}")
            continue
        sides = [
            f"{s['value']:.5g} ({s['q3'] - s['q1']:.2g}) {row['unit']}"
            for s in (row["a"], row["b"])
        ]
        lines.append(
            f"{row['workload']:<18} {row['metric']:<17} {sides[0]:>24} {sides[1]:>24} "
            f"{row['change']:>+8.1%}  {row['verdict']}"
        )
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(docs[0], docs[1], spec)
    print(_format(rows))
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
