"""Rainbow tree partitions of edge-colored graphs.

A rainbow (heterochromatic) tree uses every color at most once.  This
package generates the extremal colorings of complete graphs, computes exact
minimum rainbow tree partitions at desk scale, runs a polynomial-time
constructive partition algorithm, and verifies the closed-form value
ceil((n - t) / 2) with exhaustive and randomized campaigns.
"""

from .canonical import CanonicalLayout, extremal_partition, generate_canonical
from .coloring import (
    EdgeColoring,
    RestrictionMaps,
    Tree,
    TreePartition,
    Violation,
    format_coloring,
    format_partition,
    is_partition_valid,
    merge_colors,
    monochromatic_complete,
    parse_coloring,
    parse_partition,
    rainbow_complete,
    read_coloring,
    read_partition,
    restrict,
    validate,
    write_coloring,
    write_partition,
)
from .constructive import (
    RepresentativeSubgraph,
    SwapMove,
    apply_swap,
    find_swap,
    initial_representatives,
    partition_complete,
)
from .errors import ConstructionDefect, FileFormatError, SizeGuardError
from .formula import f_of_r, partition_number, r_range_for_t
from .rainbow import max_rainbow_forest, max_rainbow_forest_bruteforce
from .solver import SolveResult, solve, solve_bruteforce
from .verify import (
    VerificationReport,
    campaign_constructive,
    campaign_cutedge,
    campaign_monotonicity,
    campaign_worstcase,
    iter_surjective_colorings,
    random_surjective_coloring,
)

__version__ = "0.1.0"

__all__ = [
    "CanonicalLayout",
    "ConstructionDefect",
    "EdgeColoring",
    "FileFormatError",
    "RepresentativeSubgraph",
    "RestrictionMaps",
    "SizeGuardError",
    "SolveResult",
    "SwapMove",
    "Tree",
    "TreePartition",
    "VerificationReport",
    "Violation",
    "apply_swap",
    "campaign_constructive",
    "campaign_cutedge",
    "campaign_monotonicity",
    "campaign_worstcase",
    "extremal_partition",
    "f_of_r",
    "find_swap",
    "format_coloring",
    "format_partition",
    "generate_canonical",
    "initial_representatives",
    "is_partition_valid",
    "iter_surjective_colorings",
    "max_rainbow_forest",
    "max_rainbow_forest_bruteforce",
    "merge_colors",
    "monochromatic_complete",
    "parse_coloring",
    "parse_partition",
    "partition_complete",
    "partition_number",
    "r_range_for_t",
    "rainbow_complete",
    "random_surjective_coloring",
    "read_coloring",
    "read_partition",
    "restrict",
    "solve",
    "solve_bruteforce",
    "validate",
    "write_coloring",
    "write_partition",
]
