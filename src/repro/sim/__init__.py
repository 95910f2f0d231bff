"""Cycle-driven simulation kernel, configuration, metrics, and analysis."""

from .analysis import (
    MasterReport,
    TailLatency,
    bandwidth_share,
    per_master_report,
    render_master_report,
    tail_latencies,
)

from .config import (
    ConfigError,
    DdrGeneration,
    NocDesign,
    PAPER_CLOCK_POINTS,
    SystemConfig,
    paper_configs,
)
from .engine import Clocked, Simulator
from .rng import core_rng, derive_rng, derive_seed, placement_rng
from .stats import LatencySeries, RunMetrics, StatsCollector

__all__ = [
    "Clocked",
    "ConfigError",
    "core_rng",
    "derive_rng",
    "derive_seed",
    "placement_rng",
    "MasterReport",
    "TailLatency",
    "bandwidth_share",
    "per_master_report",
    "render_master_report",
    "tail_latencies",
    "DdrGeneration",
    "LatencySeries",
    "NocDesign",
    "PAPER_CLOCK_POINTS",
    "RunMetrics",
    "Simulator",
    "StatsCollector",
    "SystemConfig",
    "paper_configs",
]
