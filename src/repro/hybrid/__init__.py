"""Hybrid CPU+GPU orchestration: work units, throughput model, scheduler."""

from repro.hybrid.scheduler import GenerationPlan, HybridScheduler
from repro.hybrid.throughput import (
    cpu_hybrid_time_ns,
    curand_time_ns,
    glibc_rand_time_ns,
    hybrid_time_ns,
    mt_time_ns,
    optimal_batch_size,
    stage_times_ns,
    utilization_report,
)
from repro.hybrid.workunits import DEVICE_MAPPING, WorkItem, WorkUnit

__all__ = [
    "GenerationPlan",
    "HybridScheduler",
    "cpu_hybrid_time_ns",
    "curand_time_ns",
    "glibc_rand_time_ns",
    "hybrid_time_ns",
    "mt_time_ns",
    "optimal_batch_size",
    "stage_times_ns",
    "utilization_report",
    "DEVICE_MAPPING",
    "WorkItem",
    "WorkUnit",
]
