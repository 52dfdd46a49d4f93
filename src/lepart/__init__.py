"""Rooted spanning forests and loop-erased partitioning of weighted digraphs.

A killing rate q > 0 tilts the spanning-rooted-forest measure of a weighted
digraph by q^{#roots}; the trees of a sample partition the vertex set. The
package provides exact determinantal observables, a killed-walk sampler,
closed forms for the stylized families (paths, cycles, stars, community
stars, hierarchical trees, bottlenecks, complete graphs), enumeration and
Monte Carlo oracles, and a CLI (``lepart``).
"""

from .errors import (
    FormatError,
    LepartError,
    NumericError,
    ParameterError,
    SizeError,
    StructureError,
    UndefinedConditionalError,
)
from .graphs import (
    Bottleneck,
    CommunityStar,
    Complete,
    Cycle,
    FamilySpec,
    HierarchicalTree,
    Path,
    Star,
    WeightedDigraph,
    laplacian,
    load_edge_list,
    make_family,
    parse_family,
    save_edge_list,
    undirected,
)
from .logvalue import LogValue
from .spectral import (
    expected_root_count,
    green_kernel,
    hitting_prob,
    laplacian_spectrum,
    partition_function,
    roots_marginal,
    tree_correlation,
)
from .wilson import (
    ROOT,
    ForestSampler,
    Partition,
    RootedForest,
    TreeSampler,
    forest_sampler,
    partition_of,
    split_seed,
)
from .enumeration import (
    ForestEnsemble,
    brute_correlation,
    brute_event,
    brute_z,
    enumerate_forests,
    russo_check,
)
from .closed_forms import (
    BULK_LIMIT,
    bottleneck_limit,
    bottleneck_quantities,
    community_star_center_limit,
    community_star_quantities,
    complete_rooting_measure,
    path_asymptotic_limit,
    path_correlation,
    path_root_measures,
    path_rw_bounds,
    simple_rw_band_prob,
    star_limits,
    star_quantities,
    z_complete,
    z_cycle,
    z_path,
)
from .estimators import (
    SampleStats,
    SweepRow,
    SweepTable,
    detect_layers_experiment,
    mc_correlation,
    mc_event,
    mc_root_count,
    sweep,
)

__version__ = "0.1.0"
