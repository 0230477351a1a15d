"""netctrl: driver-node analysis of directed networks via maximum matching.

The toolkit computes minimum driver node sets (the unmatched nodes of a
maximum matching over the out-role/in-role bipartite view), steers their
degree composition by admitting nodes to the matching in a chosen order,
samples randomized driver-set ensembles, and runs the edge-direction
experiments (directed preferential-attachment growth and degree-aware
edge reversal) that show how edge orientation shapes driver degrees.
"""

import importlib

from .errors import (
    IngestionError,
    NetctrlError,
    UndefinedStatisticError,
    UsageError,
    ValidationError,
)

# the module that defines each public name; imported on first access
# (PEP 562), so that `import netctrl` loads only what a caller reads
_HOME = {
    name: module
    for module, names in {
        "generators": ("BaParams", "ReversalParams", "ReversalResult", "gen_directed_ba",
                       "gen_directed_er", "reverse_edges"),
        "graph": ("DegreeView", "DirectedGraph", "average_degree", "degrees", "parse_edge_list",
                  "read_edge_list", "to_edge_list"),
        "matching": ("Matching", "MatchingState", "max_matching", "verify_maximum"),
        "mds": ("MdsResult", "MdsSample", "NodeOrder", "SampleSummary", "drivers", "iter_samples",
                "preferential_mds", "sample_mds"),
        "stats": ("DegreeHistogram", "SweepRow", "driver_degree_histogram", "f_hi_lo", "sweep_p",
                  "sweep_r", "sweep_rows_to_csv"),
    }.items()
    for name in names
}


def __getattr__(name: str):
    # resolved on every access, never cached here: a binding patched or
    # restored in the defining module is what netctrl.<name> returns
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.7.0"

__all__ = [
    "__version__",
    "NetctrlError",
    "IngestionError",
    "UsageError",
    "ValidationError",
    "UndefinedStatisticError",
    *_HOME,
]
