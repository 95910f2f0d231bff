"""Experiment runner tests."""

import pytest

from repro.experiments.runner import (
    AveragedMetrics,
    experiment_config,
    run_configs,
    run_seed_averaged,
)
from repro.sim.config import NocDesign, SystemConfig
from repro.sim.stats import RunMetrics
from repro.sweep import ResultStore, metrics_job, runners


def _metrics(latency):
    return RunMetrics(
        utilization=0.5, raw_utilization=0.55, latency_all=latency,
        latency_demand=latency / 2, completed=100, row_hit_rate=0.4,
        cycles=1_000,
    )


class TestAveraging:
    def test_averages_fields(self):
        avg = AveragedMetrics.from_runs([_metrics(100), _metrics(200)])
        assert avg.latency_all == 150
        assert avg.latency_demand == 75
        assert avg.runs == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            AveragedMetrics.from_runs([])


class TestRunning:
    CONFIG = SystemConfig(app="bluray", cycles=2_000, warmup=400)

    def test_run_configs_returns_metrics_in_order(self):
        configs = [self.CONFIG.with_(seed=1), self.CONFIG.with_(seed=2)]
        first, second = run_configs(configs)
        assert first.completed > 0
        assert [second, first] == run_configs(configs[::-1])

    def test_seed_average_uses_all_seeds(self):
        [averaged] = run_seed_averaged([self.CONFIG], seeds=(1, 2, 3))
        assert averaged.runs == 3

    def test_seed_averaging_between_extremes(self):
        a, b = run_configs(
            [self.CONFIG.with_(seed=1), self.CONFIG.with_(seed=2)]
        )
        [averaged] = run_seed_averaged([self.CONFIG], seeds=(1, 2))
        low, high = sorted((a.latency_all, b.latency_all))
        assert low <= averaged.latency_all <= high

    def test_stored_result_is_served_without_simulating(self):
        store = ResultStore()
        [fresh] = run_configs([self.CONFIG], store)
        [cached] = run_configs([self.CONFIG], store)
        assert (store.hits, store.misses) == (1, 1)
        assert cached == fresh

    def test_failed_run_raises_with_stored_error(self, monkeypatch):
        def boom(config):
            raise RuntimeError("model exploded")

        monkeypatch.setattr(runners, "build_system", boom)
        store = ResultStore()
        with pytest.raises(RuntimeError, match="model exploded"):
            run_configs([self.CONFIG], store)
        record = store.get(metrics_job(self.CONFIG).key)
        assert record["status"] == "failed"


class TestExperimentConfig:
    def test_defaults_applied(self):
        config = experiment_config(app="bluray")
        assert config.cycles == 20_000
        assert config.warmup == 3_000

    def test_overrides_win(self):
        config = experiment_config(app="bluray", cycles=500, warmup=100)
        assert config.cycles == 500

    def test_none_horizon_takes_defaults(self):
        config = experiment_config(cycles=None, warmup=None)
        assert (config.cycles, config.warmup) == (20_000, 3_000)

    def test_passes_through_design(self):
        config = experiment_config(design=NocDesign.GSS)
        assert config.design is NocDesign.GSS
