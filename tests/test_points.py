"""A pointwise figure is its expectation over one realization's point mass.

The figures that take an optional realization read it as one point of
weight 1.0, and the `math.fsum` of `1.0 * x` is `x` bit for bit unless
`x` is -0.0.  So no pointwise reading may be -0.0: a zero reading is
+0.0, while the signed (mutual) readings may be negative.  The functions
whose realization is required refuse `None` as a malformed realization,
not as a request for the expectation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infoshare import (compile_expression, decompose_pointwise, lemma_suite, mi_decompose,
                       trivariate_report, union_content)
from infoshare.measures import surprisal_table
from infoshare.sampling import tie_heavy_distributions

from helpers import tie_heavy_grids, xor3

_NONE_REFUSED = "realization None must hold integers"


@pytest.mark.parametrize("figure", [
    lambda d: surprisal_table(d, [[0], [1, 2]])(None),
    lambda d: surprisal_table(d, [[0]], given=[2])(None),
    lambda d: decompose_pointwise(d, None),
    lambda d: decompose_pointwise(d, None, variables=[0, 2]),
    lambda d: trivariate_report(d, None),
    lambda d: lemma_suite(d, None),
    lambda d: union_content(d, [[0], [1]], None),
], ids=["table", "table-given", "decompose", "decompose-subset", "trivariate", "lemmas",
        "union"])
def test_a_required_realization_refuses_none(figure):
    with pytest.raises(ValueError) as caught:
        figure(xor3())
    assert str(caught.value) == _NONE_REFUSED


_FAMILIES = [d for n in (2, 3, 4) for d in tie_heavy_distributions(n)]


@st.composite
def _expressions(draw, names):
    """An expression text over `names`: sources and nested operator chains."""
    leaves = [*names, *(f"({a},{b})" for a in names for b in names if a < b)]
    return draw(st.recursive(
        st.sampled_from(leaves),
        lambda inner: st.tuples(inner, st.sampled_from(("cup", "cap", "minus", "oplus")), inner)
        .map(lambda t: f"({t[0]}) {t[1]} ({t[2]})"),
        max_leaves=4))


def _not_negative_zero(x: float) -> bool:
    return x != 0.0 or math.copysign(1.0, x) == 1.0


@settings(max_examples=150, deadline=None)
@given(st.one_of(tie_heavy_grids(), st.sampled_from(_FAMILIES)), st.data())
def test_no_pointwise_reading_is_negative_zero(d, data):
    n = d.variables.n
    names, last = d.variables.names, [n - 1]
    plain = compile_expression(d, data.draw(_expressions(names)))
    rest = data.draw(_expressions(names[:-1]))
    given_last = compile_expression(d, rest, given=last)
    about_last = compile_expression(d, rest, about=last)
    for r, _ in d.support():
        for value in (plain, given_last, about_last):
            assert _not_negative_zero(value(r)), (r, value(r))
        if n >= 3:
            fields = mi_decompose(d, [0], range(1, n - 1), last, r)._fields
            assert all(map(_not_negative_zero, fields)), (r, fields)
