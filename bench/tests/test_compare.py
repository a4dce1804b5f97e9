"""Verdicts of ``bench/compare.py`` on synthetic results."""

import json

import pytest

from bench import compare
from bench.run import summarize


def side(*values):
    return dict(summarize(list(values)), unit="s")


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        # 10.0 vs 10.4: a 4% move inside a 10% bound
        (side(9.9, 10.0, 10.1), side(10.3, 10.4, 10.5), "lower", "unchanged"),
        (side(9.9, 10.0, 10.1), side(11.4, 11.5, 11.6), "lower", "worse"),
        (side(9.9, 10.0, 10.1), side(8.4, 8.5, 8.6), "lower", "better"),
        # higher is better: the same drop is a regression
        (side(9.9, 10.0, 10.1), side(8.4, 8.5, 8.6), "higher", "worse"),
        (side(9.9, 10.0, 10.1), side(11.4, 11.5, 11.6), "higher", "better"),
        # B's spread (IQR 3 on a median of 10) is wider than the bound
        (side(9.9, 10.0, 10.1), side(7.0, 10.0, 13.0, 9.0, 11.0), "lower", "unresolved"),
        # ... unless every B run beats every A run
        (side(11.0, 14.0, 17.0), side(5.0, 7.0, 9.0), "lower", "better"),
    ],
)
def test_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, bound=0.10) == expected


def _document(wall, digest="d1"):
    return {
        "workloads": {
            "fig6-list-q1024": {
                "metrics": {"wall_s": side(*wall)},
                "sim": {"digest": digest},
            }
        }
    }


def test_rows_cover_each_metric_and_the_simulated_results():
    spec = {"end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}
    rows = compare.compare(_document([1.0, 1.0, 1.0]), _document([1.0, 1.02, 1.01], "d2"), spec)
    assert [(r["metric"], r["verdict"]) for r in rows] == [
        ("wall_s", "unchanged"),
        ("simulated results", "differ"),
    ]


def test_main_exits_nonzero_on_a_regression(tmp_path, capsys):
    paths = []
    for name, wall in (("a", [1.0, 1.0, 1.0]), ("b", [2.0, 2.0, 2.0])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_document(wall)))
        paths.append(str(path))
    assert compare.main(paths) == 1
    assert "worse" in capsys.readouterr().out
    assert compare.main([paths[0], paths[0]]) == 0
