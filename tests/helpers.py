"""Fixed distributions, drawn tie-heavy ones and brute-force oracles, the
cover-free recursive Möbius inversion among them, shared by the test modules."""

import math
from itertools import product

from hypothesis import strategies as st

from infoshare import JointDistribution, PartialValuation, VariableSet, default_names


def dist(names, cards, pmf):
    return JointDistribution(VariableSet(tuple(names), tuple(cards)), pmf)


def xor3():
    """X, Y independent fair bits, Z their parity."""
    return dist(
        ("X", "Y", "Z"), (2, 2, 2),
        {(0, 0, 0): 0.25, (0, 1, 1): 0.25, (1, 0, 1): 0.25, (1, 1, 0): 0.25},
    )


def copy2():
    """Y is a copy of a fair bit X."""
    return dist(("X", "Y"), (2, 2), {(0, 0): 0.5, (1, 1): 0.5})


def copy3():
    """One fair bit copied to three variables."""
    return dist(("X", "Y", "Z"), (2, 2, 2), {(0, 0, 0): 0.5, (1, 1, 1): 0.5})


def unif2():
    """Two independent fair bits."""
    return dist(
        ("X", "Y"), (2, 2),
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
    )


def indep3():
    """Three independent fair bits."""
    pmf = {}
    for a in range(2):
        for b in range(2):
            for c in range(2):
                pmf[(a, b, c)] = 0.125
    return dist(("X", "Y", "Z"), (2, 2, 2), pmf)


def biased1():
    """Single bit with p(0) = 3/4."""
    return dist(("X",), (2,), {(0,): 0.75, (1,): 0.25})


def biased2():
    """Two independent 3/4-bits."""
    pmf = {}
    for a, pa in ((0, 0.75), (1, 0.25)):
        for b, pb in ((0, 0.75), (1, 0.25)):
            pmf[(a, b)] = pa * pb
    return dist(("X", "Y"), (2, 2), pmf)


def anti():
    """Anticorrelated pair: diagonal mass 0.1, off-diagonal 0.4."""
    return dist(
        ("X", "Y"), (2, 2),
        {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.4, (1, 1): 0.1},
    )


def point3():
    """Deterministic point mass on (0, 0, 0)."""
    return dist(("X", "Y", "Z"), (2, 2, 2), {(0, 0, 0): 1.0})


def marginal_oracle(d, source, realization):
    """Brute-force marginal: sum the pmf rows agreeing on the source."""
    idx = sorted(source)
    return sum(p for r, p in d.support() if all(r[i] == realization[i] for i in idx))


def mobius_recursive(lattice, values) -> PartialValuation:
    """Bottom-up inversion: node value minus the strictly-lower increments."""
    upsets = lattice.upsets
    partials = [0.0] * len(lattice)
    for i in lattice._topo:
        # the nodes strictly below, whose up-sets strictly contain this one
        below = (j for j, m in enumerate(upsets) if upsets[i] & ~m == 0 and j != i)
        partials[i] = values[i] - math.fsum(map(partials.__getitem__, below))
    return PartialValuation(lattice, values, partials)


XOR3_JSON = """
{"variables": [{"name": "X", "cardinality": 2},
               {"name": "Y", "cardinality": 2},
               {"name": "Z", "cardinality": 2}],
 "pmf": [{"assignment": [0, 0, 0], "p": 0.25},
         {"assignment": [0, 1, 1], "p": 0.25},
         {"assignment": [1, 0, 1], "p": 0.25},
         {"assignment": [1, 1, 0], "p": 0.25}]}
"""

UNIFORM2_JSON = """
{"variables": [{"name": "A", "cardinality": 2}, {"name": "B", "cardinality": 2}],
 "pmf": [{"assignment": [0, 0], "p": 0.25}, {"assignment": [0, 1], "p": 0.25},
         {"assignment": [1, 0], "p": 0.25}, {"assignment": [1, 1], "p": 0.25}]}
"""


@st.composite
def tie_heavy_grids(draw):
    """Whole tie-heavy distributions over n = 2..4 binary variables: equal
    masses 1/k on k cells of the grid, where k = 3, 5 or 6 is not dyadic and
    its ties can split by an ulp, or fair bits and a last variable that is a
    function of them."""
    n = draw(st.integers(2, 4))
    grid = list(product((0, 1), repeat=n))
    if draw(st.booleans()):
        cells = draw(st.lists(st.sampled_from(grid), min_size=1, max_size=len(grid), unique=True))
    else:
        fair = list(product((0, 1), repeat=n - 1))
        f = draw(st.lists(st.integers(0, 1), min_size=len(fair), max_size=len(fair)))
        cells = [(*bits, y) for bits, y in zip(fair, f)]
    return JointDistribution(VariableSet(default_names(n), (2,) * n),
                             {cell: 1.0 / len(cells) for cell in cells})
