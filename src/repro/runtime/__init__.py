"""The Chapel-like runtime simulator: machine model, locales, tasks, comm."""

from . import fastpath
from .aggregation import (
    BufferPool,
    PoolStats,
    default_pool,
    AGG_DEFAULT,
    AggregationConfig,
    ExchangeCost,
    exchange,
    flush_cost,
    flush_startup,
    gather_agg,
    gather_agg_ft,
    group_by_owner,
    merge_superstep_batches,
    overlap_exposed,
    split_exposed,
)
from .clock import Breakdown, CostLedger
from .config import EDISON, LAPTOP, MachineConfig
from .epoch import bump_epoch, epoch_of
from .faults import (
    RETRY_STEP,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    LocaleFailure,
    RetryExhausted,
    RetryPolicy,
)
from .machines import ETHERNET_CLUSTER, FAST_NETWORK, FAT_NODE, PRESETS, preset
from .locale import Locale, LocaleGrid, Machine, shared_machine
from .telemetry import (
    MetricsRegistry,
    chrome_trace,
    default_registry,
    trace_summary,
    write_chrome_trace,
    write_trace_csv,
    write_trace_summary,
)
from .trace import Span, Trace

__all__ = [
    "Breakdown", "CostLedger", "MachineConfig", "EDISON", "LAPTOP", "FAT_NODE", "FAST_NETWORK", "ETHERNET_CLUSTER",
    "PRESETS", "preset",
    "Locale", "LocaleGrid", "Machine", "shared_machine",
    "bump_epoch", "epoch_of",
    "RETRY_STEP", "FaultEvent", "FaultInjector", "FaultPlan", "LocaleFailure",
    "RetryExhausted", "RetryPolicy",
    "AGG_DEFAULT", "AggregationConfig", "BufferPool", "ExchangeCost",
    "PoolStats", "default_pool", "exchange",
    "flush_cost", "flush_startup", "gather_agg", "gather_agg_ft",
    "group_by_owner", "merge_superstep_batches", "overlap_exposed",
    "split_exposed", "fastpath",
    "MetricsRegistry", "default_registry", "chrome_trace", "trace_summary",
    "write_chrome_trace", "write_trace_csv", "write_trace_summary",
]
