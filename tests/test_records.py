"""The value classes compare, hash, freeze and print as plain records."""

import copy

import pytest

from infoshare import (
    Antichain,
    LemmaResult,
    MutualDecomposition,
    OpNode,
    PartialValuation,
    SourceLeaf,
    VariableSet,
)
from infoshare.checks import CheckLine, CheckReport

_LINE = {"name": "law", "max_residual": 1e-12, "passed": True}

# (class, fields by keyword, repr); the values need not have their usual
# types, since a record keeps what it is given
RECORDS = [
    (SourceLeaf, {"members": (0, 2)}, "SourceLeaf(members=(0, 2))"),
    (OpNode, {"op": "cap", "args": (SourceLeaf((0,)), SourceLeaf((1,)))},
     "OpNode(op='cap', args=(SourceLeaf(members=(0,)), SourceLeaf(members=(1,))))"),
    (LemmaResult, {"name": "L1", "lhs": 1.5, "rhs": 1.25, "residual": 0.25},
     "LemmaResult(name='L1', lhs=1.5, rhs=1.25, residual=0.25)"),
    (CheckLine, _LINE, "CheckLine(name='law', max_residual=1e-12, passed=True)"),
    (CheckReport,
     {"suite": "props", "seed": 3, "trials": 10, "tolerance": 1e-9,
      "lines": (CheckLine(**_LINE),)},
     "CheckReport(suite='props', seed=3, trials=10, tolerance=1e-09, "
     "lines=(CheckLine(name='law', max_residual=1e-12, passed=True),))"),
    (PartialValuation, {"lattice": "L", "values": [1.0, 0.5], "partials": [0.5, 0.5]},
     "PartialValuation(lattice='L', values=[1.0, 0.5], partials=[0.5, 0.5])"),
    (MutualDecomposition,
     {"union": 1.0, "unique_first": 0.25, "unique_second": 0.0, "intersection": 0.5,
      "synergy": -0.125, "joint": 0.625, "coinformation": 0.625},
     "MutualDecomposition(union=1.0, unique_first=0.25, unique_second=0.0, "
     "intersection=0.5, synergy=-0.125, joint=0.625, coinformation=0.625)"),
    (VariableSet, {"names": ("X", "Y"), "cardinalities": (2, 3)},
     "VariableSet(names=('X', 'Y'), cardinalities=(2, 3))"),
    (Antichain, {"sources": ((0,), (1, 2))}, "Antichain(sources=((0,), (1, 2)))"),
]

# its list fields reach the hash, which therefore raises
_UNHASHABLE = (PartialValuation,)


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[c.__name__ for c, _, _ in RECORDS])
def test_record_behaviour(cls, fields, text):
    record = cls(**fields)
    assert repr(record) == text
    assert record == cls(*fields.values())
    assert copy.copy(record) == record
    # equal fields are not enough: the class must match, so neither a plain
    # tuple of the fields nor an instance of a subclass compares equal
    assert record != tuple(fields.values())
    assert record != type("Twin", (cls,), {})(**fields)
    name, value = next(iter(fields.items()))
    if cls in _UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(cls(**fields))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value
