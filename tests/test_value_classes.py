"""The six value classes on rootsys.Record.

Each must behave as the frozen dataclass it replaced did: equal fields
give equal objects with equal hashes (the hash of the field tuple),
instances of two classes are never equal, the repr is the dataclass
form, and each validation keeps its message.  The expected reprs and
messages are the ones the dataclass versions printed.
"""

import pytest

from cscrystal.hpoly import HTable
from cscrystal.laurent import IdentityReport
from cscrystal.rootsys import Shape
from cscrystal.tableaux import DecoratedTriangle, Tableau
from cscrystal.tpoly import TPoly


def _htable():
    return HTable(lam=Shape((1, 0, 0)), rows=(((0, 0), (3, 1, 0), TPoly((1,))),))


def _report():
    return IdentityReport(
        equal=False, lhs_terms=3, rhs_terms=4, first_mismatch=((1, 0, 0), TPoly((1,)), TPoly(()))
    )


# (builder of a fresh instance, its field tuple, its dataclass repr)
CASES = [
    (lambda: Shape((2, 1, 0)), ((2, 1, 0),), "Shape(parts=(2, 1, 0))"),
    (lambda: Tableau(2, ((1, 2), (3,))), (2, ((1, 2), (3,))), "Tableau(rank=2, rows=((1, 2), (3,)))"),
    (
        lambda: DecoratedTriangle(2, ((2, 0), (1,)), frozenset({(1, 2)}), frozenset({(2, 2)})),
        (2, ((2, 0), (1,)), frozenset({(1, 2)}), frozenset({(2, 2)})),
        "DecoratedTriangle(rank=2, grid=((2, 0), (1,)), circled=frozenset({(1, 2)}),"
        " boxed=frozenset({(2, 2)}))",
    ),
    (
        lambda: DecoratedTriangle(rank=1, grid=((0,),)),
        (1, ((0,),), frozenset(), frozenset()),
        "DecoratedTriangle(rank=1, grid=((0,),), circled=frozenset(), boxed=frozenset())",
    ),
    (lambda: TPoly((1, -2, 1, 0)), ((1, -2, 1),), "TPoly(coeffs=(1, -2, 1))"),
    (
        _htable,
        # rows became a tuple of (mu, w, H) triples after the dataclass,
        # which held a dict and had no hash
        (Shape((1, 0, 0)), (((0, 0), (3, 1, 0), TPoly((1,))),)),
        "HTable(lam=Shape(parts=(1, 0, 0)), rows=(((0, 0), (3, 1, 0), TPoly(coeffs=(1,))),))",
    ),
    (
        _report,
        (False, 3, 4, ((1, 0, 0), TPoly((1,)), TPoly(()))),
        "IdentityReport(equal=False, lhs_terms=3, rhs_terms=4,"
        " first_mismatch=((1, 0, 0), TPoly(coeffs=(1,)), TPoly(coeffs=())))",
    ),
]


@pytest.mark.parametrize("make, fields, text", CASES, ids=[c[2].split("(")[0] for c in CASES])
def test_value_class_equality_hash_and_repr(make, fields, text):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    assert repr(a) == text
    assert not hasattr(a, "__dict__")  # slots only
    assert hash(a) == hash(b) == hash(fields)


def test_unequal_fields_and_classes_are_unequal():
    # one field tuple, (2, 1), and so one hash, in two classes
    assert Shape((2, 1)) != TPoly((2, 1))
    assert TPoly((2, 1)) != Shape((2, 1))
    assert Shape((2, 1, 0)) != Shape((2, 0, 0))
    assert Tableau(2, ((1,),)) != Tableau(3, ((1,),))
    assert DecoratedTriangle(1, ((0,),)) != DecoratedTriangle(1, ((0,),), frozenset({(1, 1)}))
    assert TPoly((1,)) != (1,)
    assert IdentityReport(True, 1, 1, None) != IdentityReport(True, 1, 2, None)
    assert len({Shape((2, 1)), Shape((2, 1)), TPoly((1,)), TPoly((2, 1))}) == 3


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Shape((1,)), "a shape needs r+1 parts with r >= 1"),
        (lambda: Shape((1, -1)), "shape parts must be nonnegative integers"),
        (lambda: Shape((1, 2)), "shape parts must be weakly decreasing: (1, 2)"),
        (lambda: DecoratedTriangle(2, ((1,),)), "a rank-2 triangle needs rows of 2..1 entries"),
        (
            lambda: DecoratedTriangle(1, ((1,),), frozenset({(1, 2)})),
            "decoration marks outside the triangle",
        ),
    ],
)
def test_validation_messages(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
