"""The calibrated color-tracker task graph (Figure 2 + §1's cost structure).

Costs follow the paper exactly:

* "the time for tasks T1, T2, and T3 do not depend on the number of
  models" — constants;
* "the time for tasks T4 and T5 are both linear in the number of models
  but the constant factor is quite different" — T4's line comes from the
  Table 1 calibration (serial time ``0.023 + 0.853 * m`` seconds, hitting
  the paper's 0.876 s at one model and 6.85 s at eight), T5's slope is two
  orders of magnitude smaller.

T4 carries a :class:`~repro.graph.task.DataParallelSpec` whose chunk model
is the Table 1 cost model and whose chunk counts come from the per-state
:class:`~repro.decomp.planner.DecompositionPlanner` — so the Figure 6
scheduler automatically picks the state-best decomposition, "the choice of
data parallel strategy is determined as a side-effect of optimal
scheduling".
"""

from __future__ import annotations

from typing import Optional

from repro.apps.video import VideoSource
from repro.apps.tracker import kernels
from repro.apps.colormodel import color_histogram
from repro.decomp.costmodel import DetectionCostModel, TABLE1_CALIBRATION
from repro.decomp.planner import DecompositionPlanner
from repro.graph.builders import tracker_shape_graph
from repro.graph.cost import ConstantCost, LinearCost
from repro.graph.task import DataParallelSpec
from repro.graph.taskgraph import TaskGraph
from repro.state import StateSpace

__all__ = [
    "PAPER_COSTS",
    "TRACKER_STATES",
    "DEFAULT_FRAME_SHAPE",
    "tracker_planner",
    "build_tracker_graph",
    "attach_kernels",
]

#: Frame geometry of the simulated camera (pixels).
DEFAULT_FRAME_SHAPE = (120, 160)

#: The kiosk tracks one to eight people (Table 1 spans 1 and 8; §2.1 says
#: "typically from one to five" — the space covers both).
TRACKER_STATES = StateSpace.range("n_models", 1, 8)

#: Task cost models matching the paper's measurements (seconds).
PAPER_COSTS = {
    "T1": ConstantCost(0.002),                       # digitizer: "too fast to be visible"
    "T2": ConstantCost(0.120),                       # change detection
    "T3": ConstantCost(0.080),                       # histogram
    "T4": LinearCost(                                # target detection (Table 1 serial)
        base=TABLE1_CALIBRATION.dispatch,
        slope=TABLE1_CALIBRATION.setup + TABLE1_CALIBRATION.scan_rate,
        variable="n_models",
    ),
    "T5": LinearCost(base=0.010, slope=0.010, variable="n_models"),  # peak detection
}


def tracker_planner(
    cost_model: DetectionCostModel = TABLE1_CALIBRATION,
    workers: int = 4,
) -> DecompositionPlanner:
    """The per-state (FP, MP) planner for target detection."""
    return DecompositionPlanner(
        cost_model,
        fp_options=(1, 2, 4),
        mp_options=(1, 2, 4, 8),
        workers=workers,
    )


def build_tracker_graph(
    costs: Optional[dict] = None,
    planner: Optional[DecompositionPlanner] = None,
    digitizer_period: Optional[float] = None,
    worker_counts: tuple[int, ...] = (2, 3, 4),
    frame_shape: tuple[int, int] = DEFAULT_FRAME_SHAPE,
    name: str = "color-tracker",
) -> TaskGraph:
    """Build the Figure 2 graph with calibrated costs and channel sizes.

    Parameters
    ----------
    costs:
        Override task cost models (defaults to :data:`PAPER_COSTS`).
    planner:
        Decomposition planner backing T4's data-parallel variants
        (defaults to :func:`tracker_planner`).
    digitizer_period:
        T1 firing period — the tuning variable of §3.1 (None = free-running
        under the dynamic executor, schedule-driven under the static one).
    worker_counts:
        Data-parallel widths the scheduler may choose for T4.
    """
    costs = dict(costs or PAPER_COSTS)
    planner = planner or tracker_planner()
    h, w = frame_shape
    cm = planner.cost_model
    t4_spec = DataParallelSpec(
        worker_counts=worker_counts,
        chunk_cost=planner.chunk_cost_fn(),
        chunks_for=planner.chunks_for_fn(),
        split_cost=cm.split_cost,
        join_cost=cm.join_cost,
        per_chunk_overhead=0.0,  # dispatch is already inside chunk_time
    )
    sizes = {
        "frame": h * w * 3,
        "motion_mask": h * w,
        "histogram": 8**3 * 8,
        "back_projections": h * w * 8,  # one float plane per model; sized at max
        "model_locations": 8 * 12,
        "color_model": 8**3 * 8,
    }
    return tracker_shape_graph(
        costs,
        sizes=sizes,
        t4_data_parallel=t4_spec,
        digitizer_period=digitizer_period,
        name=name,
    )


def attach_kernels(
    graph: TaskGraph,
    video: VideoSource,
    bins: int = 8,
    t4_work_scale: int = 1,
) -> tuple[TaskGraph, dict]:
    """A copy of ``graph`` with live compute kernels + static inputs.

    Returns ``(graph_with_kernels, static_inputs)`` ready for the live
    runtimes: the static ``color_model`` channel carries one histogram per
    video target, and T4 additionally carries the chunk/join kernel pair,
    which a data-parallel placement runs in the lanes it occupies on both
    live substrates.  T2, whose kernel needs the previous frame, reads
    ``frame`` through a window of 2 (:attr:`~repro.graph.task.Task.windows`),
    declared here with the kernel so every graph that runs it, the DES
    included, carries the window; the cost-only graphs do not.
    ``t4_work_scale`` scales T4's compute (identical outputs) to emulate
    the paper's Table 1 cost on modern hardware — benchmarks only.
    """
    t4_chunk, t4_join = kernels.make_target_detection_chunk_kernels(
        bins, t4_work_scale
    )
    out = graph.with_tasks(f"{graph.name}/live", {
        "T1": {"compute": kernels.make_digitizer_kernel(video)},
        "T2": {"compute": kernels.make_change_detection_kernel(), "windows": {"frame": 2}},
        "T3": {"compute": kernels.make_histogram_kernel(bins)},
        "T4": {"compute": kernels.make_target_detection_kernel(bins, t4_work_scale),
               "compute_chunk": t4_chunk, "compute_join": t4_join},
        "T5": {"compute": kernels.make_peak_detection_kernel()},
    })
    models = [
        color_histogram(video.model_patch(i), bins) for i in range(video.n_targets)
    ]
    return out, {"color_model": models}
