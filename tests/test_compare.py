"""The paired A/B summary of ``benchmarks/compare.py``, on synthetic
runs: quartiles, the median paired ratio, wins with the metric's
direction (ties count for neither side) and the base-IQR rule."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "compare.py"
_SPEC = importlib.util.spec_from_file_location("bench_compare", _PATH)
compare = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = compare  # dataclasses resolve their module
_SPEC.loader.exec_module(compare)


class TestSummarize:
    def test_higher_is_better(self):
        s = compare.summarize(
            "reads_per_s", "higher", [100.0, 110.0, 90.0, 100.0],
            [150.0, 160.0, 140.0, 150.0],
        )
        assert s.wins == 4 and s.pairs == 4
        assert s.ratio == pytest.approx(1.5, rel=0.02)
        assert s.base == (97.5, 100.0, 102.5)
        assert s.head == (147.5, 150.0, 152.5)
        assert s.beyond_iqr

    def test_lower_is_better_counts_drops_as_wins(self):
        s = compare.summarize(
            "round_ms_p50", "lower", [10.0, 10.0, 10.0], [6.0, 11.0, 7.0]
        )
        assert s.wins == 2
        assert s.ratio == pytest.approx(0.7)

    def test_ties_count_for_neither_side(self):
        for better in ("higher", "lower"):
            s = compare.summarize(
                "availability", better, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]
            )
            assert s.wins == 0
            assert s.ratio == 1.0
            assert not s.beyond_iqr  # equal medians never exceed an IQR of 0

    def test_median_shift_inside_base_iqr_is_not_beyond(self):
        base = [1.0, 2.0, 3.0, 4.0, 5.0]  # IQR 2.0 around median 3.0
        inside = compare.summarize("x", "lower", base, [v - 1.5 for v in base])
        assert inside.wins == 5 and not inside.beyond_iqr
        outside = compare.summarize("x", "lower", base, [v - 2.5 for v in base])
        assert outside.beyond_iqr

    def test_zero_base(self):
        s = compare.summarize("reorg_s", "lower", [0.0, 0.0], [0.0, 0.5])
        assert s.ratio == float("inf")  # median of 1.0 and inf
        assert s.wins == 0

    def test_rejects_unpaired_or_undirected_input(self):
        with pytest.raises(ValueError):
            compare.summarize("x", "higher", [1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            compare.summarize("x", "higher", [], [])
        with pytest.raises(ValueError):
            compare.summarize("x", "sideways", [1.0], [1.0])

    def test_render_lists_every_metric(self):
        rows = [
            compare.summarize("reads_per_s", "higher", [1.0, 2.0], [2.0, 3.0]),
            compare.summarize("round_ms_p50", "lower", [4.0, 5.0], [3.0, 5.0]),
        ]
        text = compare.render("vod-zipf", rows)
        assert "over 2 pairs" in text
        assert "reads_per_s" in text and "2/2" in text
        assert "round_ms_p50" in text and "1/2" in text
