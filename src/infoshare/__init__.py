"""Pointwise information sharing measures on discrete joint distributions.

The package computes non-negative per-realization measures of shared
information (union, intersection, unique, synergistic contents and their
entropies), builds the antichain lattices those measures live on, inverts
lattice valuations into per-node increments, and evaluates arbitrary
information-sharing expressions.
"""

from .algebra import (
    ExpressionError,
    LemmaResult,
    OpNode,
    SourceLeaf,
    compile_expression,
    eval_expression,
    eval_mutual,
    expression_variables,
    lemma_suite,
    lower,
    parse_expression,
    trivariate_report,
)
from .decomposition import (
    LatticeValuation,
    MutualDecomposition,
    PartialValuation,
    chain_levels,
    decompose_expected,
    decompose_pointwise,
    decomposition_rows,
    expected_valuation,
    lattice_valuation,
    mi_decompose,
    mobius_closed_form,
    mobius_inversion,
)
from .distribution import (
    InvalidDistribution,
    JointDistribution,
    VariableSet,
    ZeroMass,
    load_distribution,
    load_file,
)
from .lattice import (
    Antichain,
    RedundancyLattice,
    antichain_of,
    default_names,
    enumerate_antichains,
    enumerate_sources,
    eval_sharing,
    join,
    max_via_min_expansion,
    meet,
    precedes,
    sharing_join,
    sharing_meet,
    to_dot,
    upset_of,
)
from .measures import (
    cond_surprisal,
    entropy,
    expected,
    intersection_content,
    mutual_content,
    surprisal,
    synergy_content,
    unique_content,
    union_content,
)
from .sampling import derive_trial_seed, random_distribution, trial_rng

__version__ = "0.1.0"
