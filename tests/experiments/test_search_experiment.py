"""Quick-profile test of the Section V search experiment module.

Restricted to a subset check (the full exhaustive run is a benchmark);
here the hybrid part runs from one start and the statistics object is
validated structurally.
"""

import pytest

from repro.experiments import ExperimentRequest, get_experiment, run_experiment
from repro.experiments import search as search_experiment
from repro.experiments.registry import render_experiment
from repro.sched import PeriodicSchedule


class TestPaperConstants:
    def test_paper_stats_recorded(self):
        stats = search_experiment.PAPER_STATS
        assert stats["n_enumerated"] == 76
        assert stats["n_feasible"] == 74
        assert stats["optimum"] == PeriodicSchedule.of(3, 2, 3)
        assert stats["hybrid_evaluations"][(4, 2, 2)] == 9
        assert stats["hybrid_evaluations"][(1, 2, 1)] == 18


@pytest.mark.slow
class TestRunQuick:
    def test_full_experiment_quick_profile(self, quick_design_options):
        request = ExperimentRequest(design_options=quick_design_options)
        report = run_experiment("search", request)
        result = get_experiment("search").result_from(report)
        assert result.n_enumerated == 77
        assert result.n_feasible <= result.n_enumerated
        assert result.hybrid_found_optimum in (True, False)
        assert result.hybrid_cheaper_than_exhaustive
        rendered = render_experiment("search", report)
        assert rendered == result.render()
        assert "Section V" in rendered
        assert "hybrid evaluations from (4, 2, 2)" in rendered
