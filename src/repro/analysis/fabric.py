"""Per-link and per-route fabric tables for any run or sweep row.

The terminal view of the fabric-observability layer: given a fabric
snapshot (see :meth:`repro.network.fabric.Fabric.snapshot`) this module
prints the per-link traffic/contention/fault table, the per-route
traffic matrix, and -- when per-hop lifecycle marks rode along -- the
per-link attribution budget (:func:`repro.analysis.attribution.
link_budgets`): how many picoseconds every channel cost in contention
wait, serialization, and transit.

Run as a CLI::

    python -m repro.analysis.fabric --input run_report.json
    python -m repro.analysis.fabric --input sweep_dump.json --row 3
    python -m repro.analysis.fabric --ranks 16 --topology torus3d \
        --hotspot 0

The first form reads a saved :meth:`Telemetry.report` artifact, the
second one row of a sweep telemetry dump (``fabric=True`` sweeps), and
the third runs one halo-exchange point live with the full observability
stack on (``--hotspot`` injects the incast-contention scenario).
``--json`` emits the machine-readable document instead of tables.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from repro.analysis.attribution import link_budgets
from repro.obs.recorder import MessageLifecycle


class FabricAnalysisError(ValueError):
    """The input carried no fabric snapshot to analyze."""


# -------------------------------------------------------------- rendering
def format_links(fabric: Dict[str, object]) -> str:
    """Fixed-width per-link table, hottest channels first."""
    links = sorted(
        fabric["links"],
        key=lambda link: (-link["utilization"], link["name"]),
    )
    if not links:
        return "no inter-node channels (single-node fabric)"
    name_width = max(len(link["name"]) for link in links)
    header = (
        f"{'link':<{name_width}} {'util':>6} {'msgs':>6} {'bytes':>10} "
        f"{'busy ps':>12} {'wait ps':>12} {'peak q':>6} {'faults':>6}"
    )
    lines = [header, "-" * len(header)]
    for link in links:
        faults = sum((link.get("faults") or {}).values())
        lines.append(
            f"{link['name']:<{name_width}} {link['utilization']:>6.1%} "
            f"{link['messages']:>6} {link['bytes']:>10} "
            f"{link['busy_ps']:>12} {link['wait_ps']:>12} "
            f"{link['peak_queue']:>6} {faults:>6}"
        )
    return "\n".join(lines)


def format_routes(fabric: Dict[str, object], limit: int = 24) -> str:
    """Per-pair traffic matrix, busiest routes first."""
    pairs = sorted(
        fabric["pairs"],
        key=lambda pair: (-pair["packets"], pair["src"], pair["dst"]),
    )
    if not pairs:
        return "no traffic"
    shown = pairs[:limit]
    header = f"{'route':<12} {'packets':>8} {'hops':>5}  path"
    lines = [header, "-" * len(header)]
    for pair in shown:
        path = " -> ".join(
            str(node) for node in [pair["src"]] + list(pair["route"])
        )
        lines.append(
            f"{pair['src']:>4} -> {pair['dst']:<4} {pair['packets']:>8} "
            f"{pair['hops']:>5}  {path}"
        )
    if len(pairs) > limit:
        lines.append(f"... {len(pairs) - limit} more pairs")
    return "\n".join(lines)


def format_budgets(budgets: Dict[str, Dict[str, int]]) -> str:
    """Per-link attribution table off the per-hop lifecycle marks."""
    if not budgets:
        return "no per-hop marks recorded (fabric observability off?)"
    name_width = max(len(name) for name in budgets)
    header = (
        f"{'link':<{name_width}} {'pkts':>6} {'bytes':>10} "
        f"{'wait ps':>12} {'serialize ps':>13} {'transit ps':>12} "
        f"{'delay ps':>10}"
    )
    lines = [header, "-" * len(header)]
    for name in sorted(
        budgets, key=lambda n: -budgets[n]["wait_ps"]
    ):
        entry = budgets[name]
        lines.append(
            f"{name:<{name_width}} {entry['packets']:>6} "
            f"{entry['bytes']:>10} {entry['wait_ps']:>12} "
            f"{entry['serialize_ps']:>13} {entry['transit_ps']:>12} "
            f"{entry['fault_delay_ps']:>10}"
        )
    totals = {
        key: sum(entry[key] for entry in budgets.values())
        for key in ("packets", "bytes", "wait_ps", "serialize_ps",
                    "transit_ps", "fault_delay_ps")
    }
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<{name_width}} {totals['packets']:>6} "
        f"{totals['bytes']:>10} {totals['wait_ps']:>12} "
        f"{totals['serialize_ps']:>13} {totals['transit_ps']:>12} "
        f"{totals['fault_delay_ps']:>10}"
    )
    return "\n".join(lines)


def format_fabric(
    fabric: Dict[str, object],
    *,
    budgets: Optional[Dict[str, Dict[str, int]]] = None,
    title: Optional[str] = None,
) -> str:
    """The full terminal rendering: summary, links, routes, budgets."""
    topology = fabric["topology"]
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(topology["description"])
    lines.append(
        f"{fabric['packets_injected']} packets injected, "
        f"{fabric['packets_delivered']} delivered, "
        f"{fabric['hops_forwarded']} forwarded, "
        f"{fabric['wire_bytes']} wire bytes, "
        f"{fabric['in_flight']} in flight"
    )
    if any(fabric["fault_totals"].values()):
        lines.append(
            "faults: "
            + ", ".join(
                f"{kind} {count}"
                for kind, count in sorted(fabric["fault_totals"].items())
                if count
            )
        )
    lines.append("")
    lines.append("per-link traffic")
    lines.append(format_links(fabric))
    lines.append("")
    lines.append("per-route traffic")
    lines.append(format_routes(fabric))
    if budgets is not None:
        lines.append("")
        lines.append("per-link attribution (from per-hop lifecycle marks)")
        lines.append(format_budgets(budgets))
    return "\n".join(lines)


# ------------------------------------------------------------------ inputs
def _from_document(document: Dict[str, object], row: Optional[int]):
    """``(fabric, lifecycles)`` out of a report artifact or sweep dump."""
    if "rows" in document:
        rows = document["rows"]
        index = 0 if row is None else row
        if not 0 <= index < len(rows):
            raise FabricAnalysisError(
                f"--row {index} out of range ({len(rows)} rows in dump)"
            )
        fabric = rows[index].get("fabric")
        if fabric is None:
            raise FabricAnalysisError(
                f"row {index} carries no fabric snapshot "
                "(re-run the sweep with fabric=True)"
            )
        return fabric, []
    fabric = document.get("fabric")
    if fabric is None:
        raise FabricAnalysisError(
            "the artifact carries no fabric section "
            "(re-run with Telemetry(fabric=True))"
        )
    lifecycles_obj = document.get("lifecycles") or []
    return fabric, [MessageLifecycle.from_obj(o) for o in lifecycles_obj]


def _run_live(args):
    """One halo point with the full observability stack; returns
    ``(fabric, lifecycles, telemetry)``."""
    from repro.obs.telemetry import Telemetry
    from repro.workloads.halo import HaloParams, run_halo
    from repro.workloads.sweep import nic_preset

    telemetry = Telemetry(
        tracing=True,
        timeline=True,
        health=True,
        fabric=True,
    )
    params = HaloParams(
        ranks=args.ranks,
        topology=args.topology,
        message_size=args.message_size,
        iterations=args.iterations,
        warmup=args.warmup,
        hotspot_rank=args.hotspot,
        hotspot_size=args.hotspot_size,
    )
    run_halo(nic_preset(args.preset), params, telemetry=telemetry)
    return telemetry.fabric_snapshot(), telemetry.lifecycles(), telemetry


# --------------------------------------------------------------- the CLI
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.fabric",
        description="Per-link / per-route fabric tables for a run or sweep row",
    )
    parser.add_argument(
        "--input",
        metavar="PATH",
        help="a Telemetry.report() artifact or a sweep telemetry dump; "
        "omit to run one halo point live",
    )
    parser.add_argument(
        "--row",
        type=int,
        default=None,
        help="row index when --input is a sweep dump (default 0)",
    )
    parser.add_argument("--ranks", type=int, default=16)
    parser.add_argument("--topology", default="torus3d")
    parser.add_argument("--preset", default="alpu128")
    parser.add_argument("--message-size", type=int, default=512)
    parser.add_argument("--iterations", type=int, default=3)
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument(
        "--hotspot",
        type=int,
        default=None,
        metavar="RANK",
        help="inject incast contention toward this rank (live runs)",
    )
    parser.add_argument("--hotspot-size", type=int, default=4096)
    parser.add_argument(
        "--json", action="store_true", help="emit JSON instead of tables"
    )
    parser.add_argument(
        "--html",
        metavar="PATH",
        help="also write the full HTML run report (live runs only)",
    )
    args = parser.parse_args(argv)

    telemetry = None
    if args.input:
        with open(args.input, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        try:
            fabric, lifecycles = _from_document(document, args.row)
        except FabricAnalysisError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        title = f"fabric of {args.input}" + (
            f" row {args.row}" if args.row is not None else ""
        )
    else:
        fabric, lifecycles, telemetry = _run_live(args)
        title = (
            f"fabric of halo {args.preset}, {args.ranks} ranks, "
            f"{args.topology}"
            + (f", hotspot rank {args.hotspot}" if args.hotspot is not None
               else "")
        )
    budgets = link_budgets(lifecycles) if lifecycles else None
    if args.html:
        if telemetry is None:
            print("error: --html needs a live run (no --input)", file=sys.stderr)
            return 2
        from repro.analysis.report import render_html

        with open(args.html, "w", encoding="utf-8") as handle:
            handle.write(render_html(telemetry.report()))
            handle.write("\n")
    if args.json:
        print(
            json.dumps(
                {"fabric": fabric, "link_budgets": budgets},
                indent=1,
                sort_keys=True,
            )
        )
    else:
        print(format_fabric(fabric, budgets=budgets, title=title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
