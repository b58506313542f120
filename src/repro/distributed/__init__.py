"""Analytical multi-device training models (Sec. 5)."""

from repro.distributed.collectives import (allgather_time, broadcast_time,
                                           ring_allreduce_time)
from repro.distributed.data_parallel import (data_parallel_timeline,
                                             exposed_dp_communication,
                                             single_device_timeline)
from repro.distributed.hybrid import hybrid_timeline
from repro.distributed.network import PCIE4, XGMI, LinkSpec
from repro.distributed.passes import OptimizerShardPass
from repro.distributed.planner import (ParallelLayout, evaluate_layout,
                                       plan, render_plan)
from repro.distributed.pipeline import (best_micro_batch_count,
                                        pipeline_bubble_fraction,
                                        pipeline_timeline)
from repro.distributed.tensor_slicing import (ALLREDUCES_PER_LAYER,
                                              build_sliced_iteration_trace,
                                              sliced_parameter_inventory,
                                              tensor_slicing_communication,
                                              tensor_slicing_timeline)
from repro.distributed.timeline import (BUCKET_ORDER, DeviceTimeline,
                                        compute_buckets)
from repro.distributed.simulator import (CollectiveRun, TransferEvent,
                                         simulate_hierarchical_allreduce,
                                         simulate_ring_allreduce,
                                         simulate_tree_allreduce)
from repro.distributed.zero import zero_dp_timeline, zero_memory_per_device

__all__ = [
    "CollectiveRun", "OptimizerShardPass", "ParallelLayout",
    "TransferEvent",
    "best_micro_batch_count", "evaluate_layout", "plan", "render_plan",
    "pipeline_bubble_fraction", "pipeline_timeline",
    "simulate_hierarchical_allreduce", "simulate_ring_allreduce",
    "simulate_tree_allreduce", "zero_dp_timeline",
    "zero_memory_per_device",
    "ALLREDUCES_PER_LAYER", "BUCKET_ORDER", "DeviceTimeline",
    "LinkSpec", "PCIE4", "XGMI", "allgather_time", "broadcast_time",
    "build_sliced_iteration_trace", "compute_buckets",
    "data_parallel_timeline", "exposed_dp_communication", "hybrid_timeline",
    "ring_allreduce_time", "single_device_timeline",
    "sliced_parameter_inventory", "tensor_slicing_communication",
    "tensor_slicing_timeline",
]
