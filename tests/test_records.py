"""The record types: a validated record raises, for each field out of its
range, its own exception and message, whether built from positions or
keywords; no record takes an attribute assignment; charts sort their dots
and arrows field by field."""

import pytest

from hopfext.algebroid import AlgebroidSpec
from hopfext.bockstein import FiltrationSpec, PageEntry
from hopfext.claims import Claim
from hopfext.cli import RunConfig
from hopfext.cobar import CohomologyGroup
from hopfext.coefficients import SmithDecomposition
from hopfext.gradedpoly import RingSpec
from hopfext.invariants import H0_T_CEILING, GeneratorRecord
from hopfext.report import Arrow, ChartSpec, Dot
from hopfext.wordcx import Contraction

INVALID = [
    (RingSpec, dict(names=("x", "y"), degrees=(2,)),
     ValueError, "names/degrees length mismatch"),
    (RingSpec, dict(names=("x", "x"), degrees=(2, 2)),
     ValueError, "generator names must be unique"),
    (RingSpec, dict(names=("x",), degrees=(0,)),
     ValueError, "generator degrees must be positive"),
    (RingSpec, dict(names=("x",), degrees=(2,), mode="bogus"),
     ValueError, "unknown coefficient mode 'bogus'"),
    (AlgebroidSpec, dict(variant="bogus"),
     ValueError, "unknown variant 'bogus'"),
    (AlgebroidSpec, dict(variant="full", quotient_level=5),
     IndexError, "quotient level 5 outside 0..4"),
    (AlgebroidSpec, dict(variant="reduced", quotient_level=-1),
     IndexError, "quotient level -1 outside 0..4"),
    (FiltrationSpec, dict(k=5), IndexError, "filtration index 5 outside 0..4"),
    (FiltrationSpec, dict(k=-1), IndexError, "filtration index -1 outside 0..4"),
    (RunConfig, dict(command="ext", s_max=-1),
     ValueError, "window needs s_max >= 0 and t_max > 0"),
    (RunConfig, dict(command="ext", t_max=0),
     ValueError, "window needs s_max >= 0 and t_max > 0"),
    (RunConfig, dict(command="ext", ideal=5),
     ValueError, "ideal level must be in 0..4"),
    (RunConfig, dict(command="ext", ideal=-1),
     ValueError, "ideal level must be in 0..4"),
    (RunConfig, dict(command="bockstein", tower=5),
     ValueError, "tower index must be in 0..4"),
    (RunConfig, dict(command="bockstein", page=0),
     ValueError, "pages start at r = 1"),
    (RunConfig, dict(command="invariants", t_max=H0_T_CEILING + 8),
     ValueError, f"invariants needs t_max <= {H0_T_CEILING}, the largest"
                 " degree whose kernels are tractable"),
    (ChartSpec, dict(s_max=1, t_max=8, dots=(Dot(2, 0, 1),)),
     ValueError, "dot (2,0) outside window"),
    (ChartSpec, dict(s_max=1, t_max=8, dots=(Dot(0, 16, 1),)),
     ValueError, "dot (0,16) outside window"),
    (ChartSpec, dict(s_max=1, t_max=8, dots=(Dot(0, 4, 1),)),
     ValueError, "internal degrees must be multiples of 8"),
]


@pytest.mark.parametrize("cls,fields,exc,message", INVALID,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(INVALID)])
def test_validated_records_reject_out_of_range_fields(cls, fields, exc, message):
    with pytest.raises(exc) as by_keyword:
        cls(**fields)
    assert str(by_keyword.value) == message
    positional = [fields[f] if f in fields else cls._field_defaults[f]
                  for f in cls._fields]
    with pytest.raises(exc) as by_position:
        cls(*positional)
    assert str(by_position.value) == message


RECORDS = [
    RingSpec(("x",), (2,)),
    AlgebroidSpec("reduced", 1),
    FiltrationSpec(2),
    RunConfig("ext"),
    ChartSpec(1, 8),
    PageEntry(1, 8, 0, 1),
    Claim("tag", "description", lambda: None),
    CohomologyGroup(0, (), []),
    SmithDecomposition(None, (), None, None),
    GeneratorRecord("c2", 16, "", None, 0),
    Dot(0, 0, 1),
    Arrow(2, (0, 0), (2, 8)),
    Contraction({}, {}, {}),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_refuse_attribute_assignment(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_dots_and_arrows_sort_field_by_field():
    dots = [Dot(1, 0, 1), Dot(0, 16, 1), Dot(0, 8, 2), Dot(0, 8, 1)]
    assert sorted(dots) == [Dot(0, 8, 1), Dot(0, 8, 2), Dot(0, 16, 1),
                            Dot(1, 0, 1)]
    arrows = [Arrow(3, (0, 0), (3, 8)), Arrow(2, (1, 8), (3, 8)),
              Arrow(2, (0, 8), (2, 16), "b"), Arrow(2, (0, 8), (2, 16), "a")]
    assert sorted(arrows) == [Arrow(2, (0, 8), (2, 16), "a"),
                              Arrow(2, (0, 8), (2, 16), "b"),
                              Arrow(2, (1, 8), (3, 8)), Arrow(3, (0, 0), (3, 8))]
