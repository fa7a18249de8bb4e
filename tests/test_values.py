"""Value semantics of the immutable classes and the slotted certificate records.

Each value class compares and hashes by its field tuple (by its one field, if it
has one slot), only against its own class; it takes no assignment, deletion or new attribute, has no __dict__, and
prints as Name(field=value, ...).  The expected repr strings were printed by the
earlier dataclass versions of these classes, except DATUM_REPR: NewformDatum no
longer factors its level, so it has lost the dataclass era's bad_primes field.
"""

from fractions import Fraction

import pytest

from zdcert.certify import Check, VerificationInput, run_certificate
from zdcert.monoidring import AVMonoid, FreeMonoid, MonoidRingElement, ProjectiveSpace, WitnessReport
from zdcert.orders import ClassGroup, FracIdeal, IdealClass, QuadOrder
from zdcert.polynomials import IntPoly
from zdcert.quadratic import QuadElement
from zdcert.steinitz import AVClass, ModuleClass
from zdcert.weil import (EndomorphismConclusion, NewformDatum, ReductionCertificate, StabilityReport,
                         WeilQuartic)

ORDER_REPR = "QuadOrder(d=10, disc=40)"
CLASS_REPR = f"IdealClass(rep=FracIdeal(order={ORDER_REPR}, a=2, b=0, scale=Fraction(1, 1)))"
QUARTIC_REPR = "WeilQuartic(p=17, poly=IntPoly(coeffs=(289, -136, 40, -8, 1)))"
DATUM_REPR = ("NewformDatum(level=276, hecke_field_d=10, expected_dim=2, eigenvalues={"
              "17: QuadElement(d=10, a=Fraction(4, 1), b=Fraction(-1, 1)), "
              "19: QuadElement(d=10, a=Fraction(2, 1), b=Fraction(1, 1))})")


def _order():
    return QuadOrder(10)


def _class():
    return IdealClass(FracIdeal(_order(), 2, 0))


def _quartic():
    return WeilQuartic(17, IntPoly((289, -136, 40, -8, 1)))


def _datum():
    return NewformDatum(276, 10, 2, {17: QuadElement(10, 4, -1), 19: QuadElement(10, 2, 1)})


# a function making fresh instances with equal fields, and the repr they print
SAMPLES = [
    (lambda: QuadElement(10, 4, -1), "QuadElement(d=10, a=Fraction(4, 1), b=Fraction(-1, 1))"),
    (lambda: IntPoly((289, -136, 40, -8, 1)), "IntPoly(coeffs=(289, -136, 40, -8, 1))"),
    (_order, ORDER_REPR),
    (lambda: FracIdeal(_order(), 2, 0, Fraction(1, 3)),
     f"FracIdeal(order={ORDER_REPR}, a=2, b=0, scale=Fraction(1, 3))"),
    (_class, CLASS_REPR),
    (lambda: ClassGroup(_order(), (2,), (_class(),), (FracIdeal(_order(), 3, 1),)),
     f"ClassGroup(order={ORDER_REPR}, invariants=(2,), classes=({CLASS_REPR},), "
     f"generators=(FracIdeal(order={ORDER_REPR}, a=3, b=1, scale=Fraction(1, 1)),))"),
    (lambda: ModuleClass(1, _class()), f"ModuleClass(rank=1, steinitz={CLASS_REPR})"),
    (lambda: AVClass("A", ModuleClass(1, _class())),
     f"AVClass(base_tag='A', module=ModuleClass(rank=1, steinitz={CLASS_REPR}))"),
    (lambda: FreeMonoid(("g", "h")), "FreeMonoid(generators=('g', 'h'))"),
    (lambda: AVMonoid("A", _order()), f"AVMonoid(base_tag='A', order={ORDER_REPR})"),
    (lambda: MonoidRingElement(FreeMonoid(("g",)), (((1,), 2),)),
     "MonoidRingElement(monoid=FreeMonoid(generators=('g',)), terms=(((1,), 2),))"),
    (lambda: ProjectiveSpace(3), "ProjectiveSpace(n=3)"),
    (_quartic, QUARTIC_REPR),
    (lambda: StabilityReport(12, (4, 2), 3), "StabilityReport(bound=12, degrees=(4, 2), failed_at=3)"),
    (lambda: ReductionCertificate(_quartic(), True, True, None),
     f"ReductionCertificate(quartic={QUARTIC_REPR}, irreducible=True, ordinary=True, stability=None)"),
    (lambda: EndomorphismConclusion(10, ("h",), "End = Z[√10]"),
     "EndomorphismConclusion(d=10, hypotheses=('h',), conclusion='End = Z[√10]')"),
    (_datum, DATUM_REPR),
    (lambda: WitnessReport(True, None, "x", "y", "0"),
     "WitnessReport(accepted=True, reason=None, x_canonical='x', y_canonical='y', product_canonical='0')"),
    (lambda: VerificationInput(_datum(), FracIdeal(_order(), 2, 0), None, {"level": 276}),
     f"VerificationInput(datum={DATUM_REPR}, ideal=FracIdeal(order={ORDER_REPR}, a=2, b=0, "
     "scale=Fraction(1, 1)), golden_charpoly=None, raw={'level': 276})"),
]


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in type(x).__slots__)


def _key(x):
    """What equality and hash compare: the field tuple, or the bare field of a one-slot class."""
    fields = _fields(x)
    return fields[0] if len(fields) == 1 else fields


def _hash_or_type_error(x):
    try:
        return hash(x)
    except TypeError:  # a field holds a dict
        return TypeError


@pytest.mark.parametrize("make,expected_repr", SAMPLES, ids=[r.split("(")[0] for _, r in SAMPLES])
def test_value_semantics(make, expected_repr):
    x, y = make(), make()
    cls = type(x)
    assert x is not y and x == y and not x != y
    assert _hash_or_type_error(x) == _hash_or_type_error(y) == _hash_or_type_error(_key(x))

    # a class with the same name and fields, and the bare field tuple, are other classes
    twin = object.__new__(type(cls.__name__, cls.__bases__, {"__slots__": cls.__slots__}))
    for name, value in zip(cls.__slots__, _fields(x)):
        object.__setattr__(twin, name, value)
    assert x != twin and twin != x and not x == twin
    assert x != _fields(x) and x != _key(x)

    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(x, name, getattr(y, name))
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert not hasattr(x, "__dict__")
    assert x == y
    assert repr(x) == expected_repr


def test_certificate_records_are_slotted_with_fresh_defaults():
    first, second = Check("a", "claim", "citation", "computed"), Check("b", "claim", "citation", "computed")
    first.inputs["x"] = first.outputs["y"] = 1
    assert (second.inputs, second.outputs, second.verdict) == ({}, {}, None)
    cert = run_certificate(VerificationInput(_datum(), FracIdeal(_order(), 2, 0), None, {"level": 276}))
    for record in (first, cert, *cert.checks):
        assert not hasattr(record, "__dict__")
        with pytest.raises(AttributeError):
            record.extra = 1
