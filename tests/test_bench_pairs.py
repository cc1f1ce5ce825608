import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# sim-long wall_s runs of BENCH_kernel.json, whose summary was computed by hand
BEFORE = [2.599166, 2.456376, 2.465263, 2.737822, 2.680208,
          2.590308, 2.566641, 2.456079, 3.009129, 2.531881]
AFTER = [1.13141, 1.029901, 0.960196, 1.060774, 1.084345,
         1.018686, 1.035219, 1.056174, 0.922412, 1.004413]


class TestSummarize:
    def test_matches_the_recorded_kernel_summary(self):
        out = bench_pairs.summarize(BEFORE, AFTER, "lower")
        assert out["before"] == {"median": 2.5785, "q1": 2.4819, "q3": 2.6599}
        assert out["after"] == {"median": 1.0326, "q1": 1.008, "q3": 1.0596}
        assert out["after_better_pairs"] == 10
        assert (out["runs_before"], out["runs_after"]) == (BEFORE, AFTER)

    def test_higher_is_better_counts_the_other_way(self):
        out = bench_pairs.summarize([1.0, 2.0, 3.0], [2.0, 1.0, 3.0], "higher")
        assert out["after_better_pairs"] == 1  # a tie is no win
        assert bench_pairs.summarize([1.0, 2.0, 3.0], [2.0, 1.0, 3.0], "lower")[
            "after_better_pairs"
        ] == 1

    def test_one_pair_has_no_quartiles(self):
        out = bench_pairs.summarize([84.2], [283.8], "lower")
        assert out["before"] == {"median": 84.2}
        assert out["after_better_pairs"] == 0

    @pytest.mark.parametrize("before, after, better", [([], [], "lower"),
                                                       ([1.0], [1.0, 2.0], "lower"),
                                                       ([1.0], [1.0], "faster")])
    def test_rejects_bad_input(self, before, after, better):
        with pytest.raises(ValueError):
            bench_pairs.summarize(before, after, better)
