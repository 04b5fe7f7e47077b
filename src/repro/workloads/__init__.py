"""repro.workloads — the constrained-dynamic workload diversity suite.

Three app-graph families beyond the color tracker, each with a seeded
instance dataset and a method-independent verifier (W rules):

* :mod:`~repro.workloads.matmul` — heterogeneous-platform blocked matrix
  multiply (regime: active row-band count);
* :mod:`~repro.workloads.fusion` — wide fan-in sensor fusion over
  speech-style front-ends (regime: live sensor count);
* :mod:`~repro.workloads.webinfer` — a bursty web-inference tier
  (regime: request arrival rate).

Importing this package registers all built-in families in
:data:`~repro.workloads.base.FAMILIES`.
"""

from repro.workloads.base import (
    FAMILIES,
    WorkloadFamily,
    WorkloadInstance,
    get_family,
    register_family,
)
from repro.workloads.dataset import (
    DATASET_SEEDS,
    freeze_all,
    load_all,
    load_dataset,
    regenerate,
)
from repro.workloads.fusion import FUSION, FusionFamily
from repro.workloads.matmul import MATMUL, MatMulFamily
from repro.workloads.verify import (
    capacity_bound,
    certify_instance,
    latency_bound,
    verify_workload_table,
)
from repro.workloads.webinfer import WEBINFER, WebInferFamily

__all__ = [
    "FAMILIES",
    "WorkloadFamily",
    "WorkloadInstance",
    "get_family",
    "register_family",
    "MatMulFamily",
    "MATMUL",
    "FusionFamily",
    "FUSION",
    "WebInferFamily",
    "WEBINFER",
    "capacity_bound",
    "latency_bound",
    "certify_instance",
    "verify_workload_table",
    "DATASET_SEEDS",
    "load_dataset",
    "load_all",
    "regenerate",
    "freeze_all",
]
