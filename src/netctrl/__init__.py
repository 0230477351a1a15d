"""netctrl: driver-node analysis of directed networks via maximum matching.

The toolkit computes minimum driver node sets (the unmatched nodes of a
maximum matching over the out-role/in-role bipartite view), steers their
degree composition by admitting nodes to the matching in a chosen order,
samples randomized driver-set ensembles, and runs the edge-direction
experiments (directed preferential-attachment growth and degree-aware
edge reversal) that show how edge orientation shapes driver degrees.
"""

from .errors import (
    IngestionError,
    NetctrlError,
    UndefinedStatisticError,
    UsageError,
    ValidationError,
)
from .generators import (
    BaParams,
    ReversalParams,
    ReversalResult,
    gen_directed_ba,
    gen_directed_er,
    reverse_edges,
)
from .graph import (
    DegreeView,
    DirectedGraph,
    average_degree,
    degrees,
    parse_edge_list,
    read_edge_list,
    to_edge_list,
)
from .matching import Matching, MatchingState, max_matching, verify_maximum
from .mds import (
    MdsResult,
    MdsSample,
    NodeOrder,
    SampleSummary,
    drivers,
    iter_samples,
    preferential_mds,
    sample_mds,
)
from .stats import (
    DegreeHistogram,
    SweepRow,
    driver_degree_histogram,
    f_hi_lo,
    sweep_p,
    sweep_r,
    sweep_rows_to_csv,
)

__version__ = "0.5.0"

__all__ = [
    "__version__",
    "NetctrlError",
    "IngestionError",
    "UsageError",
    "ValidationError",
    "UndefinedStatisticError",
    "DirectedGraph",
    "DegreeView",
    "parse_edge_list",
    "read_edge_list",
    "to_edge_list",
    "degrees",
    "average_degree",
    "Matching",
    "MatchingState",
    "max_matching",
    "verify_maximum",
    "NodeOrder",
    "MdsResult",
    "MdsSample",
    "SampleSummary",
    "drivers",
    "preferential_mds",
    "iter_samples",
    "sample_mds",
    "BaParams",
    "ReversalParams",
    "ReversalResult",
    "gen_directed_ba",
    "gen_directed_er",
    "reverse_edges",
    "DegreeHistogram",
    "SweepRow",
    "f_hi_lo",
    "driver_degree_histogram",
    "sweep_p",
    "sweep_r",
    "sweep_rows_to_csv",
]
