"""Figure 5's third degree of freedom: message size.

The preposted benchmark exposes "the size of the message" alongside queue
length and traversal fraction.  This benchmark fixes a moderate queue and
sweeps the payload across the eager range and past the rendezvous switch,
verifying that:

* the queue-traversal penalty is *additive*: at every size, the baseline
  pays the same ~depth x 14 ns on top of the transfer time;
* the ALPU's advantage is therefore size-independent in absolute terms
  (and fades in relative terms as bandwidth dominates) -- which is why
  the paper studies small messages.
"""

import pytest


from repro.analysis.tables import format_rows
from repro.workloads.preposted import PrepostedParams, run_preposted
from repro.workloads import nic_preset

#: full message-size grid -- excluded from the tier-1 run
pytestmark = pytest.mark.slow

SIZES = [0, 256, 1024, 4096, 16384]  # the last one goes rendezvous
QUEUE_LENGTH = 64
ITERS = dict(iterations=6, warmup=2)


def regenerate():
    table = {}
    for preset in ("baseline", "alpu128"):
        series = []
        for size in SIZES:
            deep = run_preposted(
                nic_preset(preset),
                PrepostedParams(
                    queue_length=QUEUE_LENGTH,
                    traverse_fraction=1.0,
                    message_size=size,
                    **ITERS,
                ),
            ).median_ns
            shallow = run_preposted(
                nic_preset(preset),
                PrepostedParams(
                    queue_length=QUEUE_LENGTH,
                    traverse_fraction=0.0,
                    message_size=size,
                    **ITERS,
                ),
            ).median_ns
            series.append((size, shallow, deep))
        table[preset] = series
    return table


def test_fig5_message_sizes(benchmark, once):
    table = once(benchmark, regenerate)
    print()
    print(
        f"FIGURE 5 third axis -- message size at queue length {QUEUE_LENGTH} "
        "(latency ns, shallow = depth 0, deep = full traversal)"
    )
    rows = []
    for preset, series in table.items():
        for size, shallow, deep in series:
            rows.append((preset, size, f"{shallow:.0f}", f"{deep:.0f}",
                         f"{deep - shallow:+.0f}"))
    print(format_rows(["preset", "bytes", "shallow", "deep", "traversal cost"], rows))

    baseline = table["baseline"]
    alpu = table["alpu128"]
    # latency grows with size on both NICs (bandwidth term)
    assert baseline[-1][2] > baseline[0][2]
    assert alpu[-1][2] > alpu[0][2]
    # the traversal penalty is roughly constant across eager sizes for
    # the baseline (additive model): ~63 x 14 ns
    penalties = [deep - shallow for _, shallow, deep in baseline[:4]]
    assert max(penalties) - min(penalties) < 0.5 * max(penalties)
    assert 500 < sum(penalties) / len(penalties) < 1500
    # while the ALPU's deep/shallow gap stays negligible at every size
    for _, shallow, deep in alpu:
        assert abs(deep - shallow) < 100
