"""Bench harness metadata: host manifests, cross-host flagging, and the
per-repetition telemetry hook."""

import json

from repro.experiments import bench
from repro.obs.stream import TelemetryWriter, read_stream


class TestBestOfHook:
    def test_on_rep_sees_every_repetition(self):
        elapsed = iter([0.5, 0.3, 0.2, 0.4])
        seen = []
        best = bench._best_of(
            lambda: next(elapsed), reps=4, warmup_reps=1,
            on_rep=lambda rep, s, warm: seen.append((rep, s, warm)),
        )
        assert best == 0.2
        assert [entry[0] for entry in seen] == [0, 1, 2, 3]
        assert [entry[2] for entry in seen] == [True, False, False, False]

    def test_round_publisher_emits_bench_rounds(self, tmp_path):
        path = tmp_path / "bench.ndjson"
        with TelemetryWriter(path) as telemetry:
            hook = bench._round_publisher(telemetry, "dram_engine")
            hook(0, 0.5, True)
            hook(1, 0.4, False)
        records = read_stream(path)
        assert [r["type"] for r in records] == ["bench_round"] * 2
        assert records[0]["bench"] == "dram_engine"
        assert records[0]["warmup"] is True
        assert records[1]["wall_s"] == 0.4

    def test_publisher_none_without_telemetry(self):
        assert bench._round_publisher(None, "x") is None


class TestTrajectoryHostManifest:
    def test_write_trajectory_embeds_host(self, tmp_path):
        path = tmp_path / "BENCH_X.json"
        point = {"calibration_kops": 100.0}
        document = bench.write_trajectory(str(path), point)
        host = document["host"]
        for field in ("python", "cpu_count", "git", "hostname"):
            assert field in host
        # And it round-trips through the file.
        assert json.loads(path.read_text())["host"]["python"] \
            == host["python"]

    def test_host_mismatch_flags_divergent_fields(self):
        recorded = {
            "python": "3.10.1", "implementation": "CPython",
            "hostname": "ci-runner-1",
        }
        observed = dict(recorded, python="3.11.7", hostname="laptop")
        warnings = bench.host_mismatch(recorded, observed)
        assert len(warnings) == 2
        assert any("python" in w for w in warnings)
        assert any("hostname" in w for w in warnings)

    def test_identical_hosts_are_silent(self):
        manifest = {
            "python": "3.11.0", "implementation": "CPython",
            "hostname": "same",
        }
        assert bench.host_mismatch(manifest, dict(manifest)) == []

    def test_missing_recorded_manifest_is_not_a_mismatch(self):
        assert bench.host_mismatch(None) == []
        assert bench.host_mismatch({}) == []

    def test_defaults_to_current_process_manifest(self):
        from repro.obs.stream import host_manifest

        assert bench.host_mismatch(host_manifest()) == []
