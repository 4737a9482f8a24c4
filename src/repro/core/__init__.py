"""Core data model: services, execution graphs, costs, operation lists.

This subpackage is a faithful executable rendition of Section 2 and
Appendix A of the paper.  Everything downstream (schedulers, optimisers,
reductions, benchmarks) is built on these types.
"""

from .batched import ForestBatch, MappingBatch, iter_forest_rows
from .constants import INPUT, OUTPUT
from .costs import CostModel, GraphArrays, comm_edges
from .graph import CycleError, Edge, ExecutionGraph, PrecedenceError
from .models import ALL_MODELS, ONE_PORT_MODELS, CommModel
from .numeric import (
    CERT_EPS,
    Exactness,
    FloatCosts,
    Incumbent,
    certified_threshold,
)
from .platform import (
    Link,
    Mapping,
    Platform,
    Server,
    link_flow_counts,
    platform_fingerprint,
)
from .topology import FlatTopology, Topology, TorusTopology, TreeTopology
from .uncertain import (
    UncertainValue,
    perturbed_application,
    perturbed_platform,
    quantile,
)
from .operation_list import (
    COMM,
    COMP,
    Operation,
    OperationList,
    comm_op,
    comp_op,
    is_comm,
    is_comp,
    modular_overlap,
    modular_residue,
    op_servers,
)
from .plan import Plan
from .service import Application, Numeric, Service, as_fraction, make_application
from .validation import (
    InvalidScheduleError,
    ValidationReport,
    assert_valid,
    validate,
)

__all__ = [
    "ALL_MODELS",
    "Application",
    "CERT_EPS",
    "COMM",
    "COMP",
    "CommModel",
    "CostModel",
    "CycleError",
    "Edge",
    "Exactness",
    "ExecutionGraph",
    "FlatTopology",
    "FloatCosts",
    "ForestBatch",
    "GraphArrays",
    "MappingBatch",
    "iter_forest_rows",
    "Incumbent",
    "certified_threshold",
    "INPUT",
    "InvalidScheduleError",
    "Link",
    "Mapping",
    "Numeric",
    "ONE_PORT_MODELS",
    "OUTPUT",
    "Operation",
    "OperationList",
    "Plan",
    "Platform",
    "PrecedenceError",
    "Server",
    "Service",
    "Topology",
    "TorusTopology",
    "TreeTopology",
    "UncertainValue",
    "ValidationReport",
    "as_fraction",
    "assert_valid",
    "comm_edges",
    "comm_op",
    "comp_op",
    "is_comm",
    "is_comp",
    "link_flow_counts",
    "make_application",
    "modular_overlap",
    "modular_residue",
    "op_servers",
    "perturbed_application",
    "perturbed_platform",
    "platform_fingerprint",
    "quantile",
    "validate",
]
