"""One exhibit path: exhibits and sweeps resolve the same jobs.

Every simulated exhibit resolves its runs as sweep jobs through the
result store, so sharding those jobs over worker processes must not
move a single float, an exhibit run into a store must leave nothing for
the orchestrator to simulate (and the other way round), and a stored
*failed* run must be simulated again rather than rendered.
"""

import dataclasses
import sys

import pytest

from repro.experiments.fault_sweep import fault_sweep_spec, run_fault_sweep
from repro.experiments.fig8 import fig8_jobs, run_fig8
from repro.sweep import (
    ResultStore,
    config_grid_spec,
    make_record,
    run_sweep,
)

needs_fork = pytest.mark.skipif(
    sys.platform == "win32", reason="fork start method required"
)

TINY = dict(cycles=1_500, warmup=300)
RATES = (0.0, 1e-3)
FIG8 = dict(cycles=1_000, warmup=200, seeds=(2010,), max_routers=1)


def _results(report):
    return [
        (outcome.job.key, outcome.record["status"], outcome.record["result"])
        for outcome in report.outcomes
    ]


def _one_and_two_workers(jobs):
    """The same jobs resolved in-process and over two workers."""
    serial = run_sweep(jobs, store=ResultStore(), workers=1)
    sharded = run_sweep(jobs, store=ResultStore(), workers=2)
    assert sharded.executed == serial.executed == len(serial.outcomes)
    return serial, sharded


@needs_fork
class TestFaultGridGolden:
    def test_two_worker_sweep_bit_identical_to_serial(self):
        spec = fault_sweep_spec(rates=RATES, seeds=(2010,), **TINY)
        serial, sharded = _one_and_two_workers(spec)
        assert _results(sharded) == _results(serial)

    def test_rerun_is_all_cache_hits(self):
        store = ResultStore()
        points = run_fault_sweep(rates=RATES, seed=2010, store=store, **TINY)
        spec = fault_sweep_spec(rates=RATES, seeds=(2010,), **TINY)
        report = run_sweep(spec, store=store, workers=2)
        assert report.all_cached
        assert run_fault_sweep(
            rates=RATES, seed=2010, store=store, **TINY
        ) == points


class TestFaultGrid:
    def test_spec_resolves_defaults_into_key_material(self):
        # cycles/warmup left as None must resolve to the experiment
        # defaults so the key covers the actual horizon.
        spec = fault_sweep_spec(rates=(0.0,), seeds=(2010,))
        params = spec.expand()[0].params
        assert params["cycles"] == 20_000 and params["warmup"] == 3_000

    def test_hung_point_surfaces_as_failed_job(self, monkeypatch):
        from repro.experiments import fault_sweep as fs

        real = fs.run_fault_point

        def hang(rate, **kwargs):
            point = real(rate, **kwargs)
            if rate > 0:
                point = dataclasses.replace(point, quiesced=False)
            return point

        monkeypatch.setattr(fs, "run_fault_point", hang)
        store = ResultStore()
        spec = fault_sweep_spec(rates=RATES, seeds=(2010,), **TINY)
        report = run_sweep(spec, store=store)  # workers=1: in-process
        assert report.failed == 1
        failed = [o for o in report.outcomes if not o.ok][0]
        assert failed.record["status"] == "failed"
        # the error names the rate and the exhausted drain budget
        assert "rate=0.001" in failed.record["error"]
        assert "50000-cycle drain budget" in failed.record["error"]
        # the exhibit renders the stored partial metrics, not a silent
        # row, and does not simulate the hung point again
        misses = store.misses
        points = run_fault_sweep(rates=RATES, seed=2010, store=store, **TINY)
        assert [p.quiesced for p in points] == [True, False]
        assert points[1].failure_reason() is not None
        assert store.misses == misses


@needs_fork
class TestFig8GridGolden:
    def test_two_worker_grid_bit_identical_to_serial(self):
        serial, sharded = _one_and_two_workers(fig8_jobs(**FIG8))
        assert sharded.executed == 6  # 3 operating points x 2 counts
        assert _results(sharded) == _results(serial)

    def test_figure_from_sharded_store_is_all_hits(self):
        store = ResultStore()
        run_sweep(fig8_jobs(**FIG8), store=store, workers=2)
        misses = store.misses
        assert run_fig8(store=store, **FIG8) == run_fig8(**FIG8)
        assert store.misses == misses


class TestConfigGrid:
    def test_fault_rate_pseudo_field_expands_to_uniform_profile(self):
        spec = config_grid_spec(
            base={"cycles": 1_000, "warmup": 200, "seed": 7},
            axes={"fault_rate": [0.0, 1e-3]},
        )
        clean, faulty = [job.params for job in spec.expand()]
        assert clean["faults"] is None
        assert faulty["faults"]["link_corrupt_rate"] == 1e-3

    def test_payload_covers_defaulted_fields(self):
        spec = config_grid_spec(
            base={"cycles": 1_000, "warmup": 200, "seed": 7},
            axes={"app": ["bluray"]},
        )
        params = spec.expand()[0].params
        # key material must include fields the grid never mentioned
        assert params["design"] == "gss+sagm"
        assert params["link_buffer_flits"] == 12


@needs_fork
class TestArbiterMatrixGolden:
    """The arbiter axis of a generic grid (the CI smoke matrix)."""

    ARBITERS = ("engine", "dpq", "bank-reg")

    def spec(self):
        return config_grid_spec(
            base=dict(TINY),
            axes={"seed": [2010], "arbiter": list(self.ARBITERS)},
        )

    def test_two_worker_matrix_bit_identical_to_serial(self):
        serial, sharded = _one_and_two_workers(self.spec())
        assert _results(sharded) == _results(serial)

    def test_matrix_spec_keys_cover_the_arbiter_field(self):
        params = [job.params for job in self.spec().expand()]
        assert [p["arbiter"] for p in params] == list(self.ARBITERS)
        assert params[0]["cycles"] == TINY["cycles"]


class TestExhibitCache:
    def test_exhibit_and_sweep_share_keys(self):
        # A figure run into a store leaves nothing for the orchestrator
        # to simulate: same jobs, same keys.
        store = ResultStore()
        run_fig8(store=store, **FIG8)
        assert run_sweep(fig8_jobs(**FIG8), store=store).all_cached

    def test_stored_failed_record_is_resimulated(self):
        store = ResultStore()
        job = fig8_jobs(**dict(FIG8, max_routers=0))[0]
        store.put(make_record(job, "failed", None, error="worker died"))
        curves = run_fig8(store=store, **dict(FIG8, max_routers=0))
        assert store.get(job.key)["status"] == "ok"
        assert curves == run_fig8(**dict(FIG8, max_routers=0))
