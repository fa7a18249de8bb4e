"""Integer monoid rings with canonical forms, and the zero-divisor witness.

Two commutative monoids are supported: the monoid of abelian-variety classes
over a fixed base (module classes under direct sum, where product of
varieties is direct sum of modules), and free commutative monoids on a fixed
generator alphabet.  Ring elements are finite Z-linear combinations stored
sorted by a fixed total order on monoid elements, so equality is literal
equality of stored forms.  That order is the monoid's sort_key, which must be
injective on its elements: ring arithmetic sums terms by their sort keys, so
it hashes no monoid element.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from functools import reduce

from .errors import MismatchError
from .quadratic import _Value, _terms_text
from .steinitz import AVClass, ModuleClass, direct_sum, tensor_av, zero_module


class FreeMonoid(_Value):
    """Free commutative monoid on named generators; elements are exponent tuples."""

    __slots__ = ("generators",)

    def __init__(self, generators: Sequence[str]):
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        super().__init__(tuple(generators))

    def identity(self) -> tuple[int, ...]:
        return (0,) * len(self.generators)

    def element(self, **exponents: int) -> tuple[int, ...]:
        unknown = set(exponents) - set(self.generators)
        if unknown:
            raise ValueError(f"unknown generators: {sorted(unknown)}")
        if any(e < 0 for e in exponents.values()):
            raise ValueError("exponents must be nonnegative")
        return tuple(exponents.get(g, 0) for g in self.generators)

    def combine(self, e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(a + b for a, b in zip(e1, e2))

    def sort_key(self, e: tuple[int, ...]):
        return e

    def validate(self, e) -> None:
        if not (isinstance(e, tuple) and len(e) == len(self.generators)
                and all(isinstance(x, int) and x >= 0 for x in e)):
            raise ValueError(f"{e!r} is not an element of {self}")

    def describe(self, e: tuple[int, ...]) -> str:
        parts = [g if k == 1 else f"{g}^{k}" for g, k in zip(self.generators, e) if k]
        return "*".join(parts) if parts else "1"

    def __str__(self) -> str:
        return f"FreeMonoid({', '.join(self.generators)})"


class AVMonoid(_Value):
    """Classes of products of abelian varieties built from a fixed base A.

    Elements are AVClass values with this monoid's tag; the operation is
    product of varieties, i.e. direct sum of the underlying module classes.
    """

    __slots__ = ("base_tag", "order")

    def identity(self) -> AVClass:
        return tensor_av(zero_module(self.order), self.base_tag)

    def element(self, module: ModuleClass) -> AVClass:
        if module.order != self.order:
            raise MismatchError("module class lives over a different order")
        return tensor_av(module, self.base_tag)

    def combine(self, e1: AVClass, e2: AVClass) -> AVClass:
        return tensor_av(direct_sum(e1.module, e2.module), self.base_tag)

    def sort_key(self, e: AVClass):
        return (e.module.rank, e.module.steinitz.key())

    def validate(self, e) -> None:
        if not isinstance(e, AVClass) or e.base_tag != self.base_tag or e.module.order != self.order:
            raise ValueError(f"{e!r} is not an abelian-variety class over base {self.base_tag}")

    def describe(self, e: AVClass) -> str:
        return str(e.module)

    def __str__(self) -> str:
        return f"AVMonoid(base {self.base_tag})"


class MonoidRingElement(_Value):
    """A finite Z-linear combination of monoid elements, in canonical form:
    terms is a tuple of (element, nonzero coefficient) in the monoid's sort order."""

    __slots__ = ("monoid", "terms")

    @staticmethod
    def build(monoid: FreeMonoid | AVMonoid, coefficients: Mapping) -> "MonoidRingElement":
        pairs = []
        for elem, coeff in coefficients.items():
            monoid.validate(elem)
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be integers")
            pairs.append((elem, int(coeff)))  # a bool coefficient is stored as its int
        return _canonical(monoid, pairs)

    def _same_ring(self, other: "MonoidRingElement") -> None:
        if self.monoid != other.monoid:
            raise MismatchError("ring elements live over different monoids")

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        if not isinstance(other, MonoidRingElement):
            return NotImplemented
        self._same_ring(other)
        return _canonical(self.monoid, self.terms + other.terms)

    def __neg__(self) -> "MonoidRingElement":
        return MonoidRingElement(self.monoid, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        return self + (-other)

    def __mul__(self, other: "MonoidRingElement | int") -> "MonoidRingElement":
        if isinstance(other, int):
            return _canonical(self.monoid, [(e, c * other) for e, c in self.terms])
        if not isinstance(other, MonoidRingElement):
            return NotImplemented
        self._same_ring(other)
        combine = self.monoid.combine
        return _canonical(self.monoid, [(combine(e1, e2), c1 * c2)
                                        for e1, c1 in self.terms for e2, c2 in other.terms])

    __rmul__ = __mul__

    def __str__(self) -> str:
        return _terms_text([(c, f"e[{self.monoid.describe(e)}]") for e, c in self.terms], times="*")


def _canonical(monoid: FreeMonoid | AVMonoid, pairs: Iterable) -> MonoidRingElement:
    """The sum of c*e over the (element, integer) pairs, in canonical form.  Terms are
    summed by monoid.sort_key (injective), and each keeps the first element with its key;
    the elements are not validated."""
    acc: dict = {}
    for e, c in pairs:
        key = monoid.sort_key(e)
        term = acc.get(key)
        if term is None:
            acc[key] = [e, c]
        else:
            term[1] += c
    terms = (acc[key] for key in sorted(acc))
    return MonoidRingElement(monoid, tuple((e, c) for e, c in terms if c))


def ring_zero(monoid: FreeMonoid | AVMonoid) -> MonoidRingElement:
    return MonoidRingElement(monoid, ())


def basis_element(monoid: FreeMonoid | AVMonoid, elem) -> MonoidRingElement:
    monoid.validate(elem)
    return MonoidRingElement(monoid, ((elem, 1),))  # one term is canonical, and hashes nothing


class ProjectiveSpace(_Value):
    """A projective-space factor P^n in a formal product; its Albanese variety is trivial."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if n < 0:
            raise ValueError("projective space dimension cannot be negative")
        super().__init__(n)


def albanese_image(
    monoid: AVMonoid, factors: Iterable[ProjectiveSpace | ModuleClass | AVClass]
) -> MonoidRingElement:
    """Basis element of Z[AV] for a formal product of AV classes and P^n factors.

    The Albanese variety is a birational invariant that commutes with
    products, kills every P^n, and fixes abelian varieties; so the image is
    the direct sum of the abelian factors.
    """
    abelian = [monoid.element(f) if isinstance(f, ModuleClass) else f
               for f in factors if not isinstance(f, ProjectiveSpace)]
    for f in abelian:
        monoid.validate(f)
    return basis_element(monoid, reduce(monoid.combine, abelian, monoid.identity()))


class WitnessReport(_Value):
    """Outcome of a zero-divisor check: a witness (reason None) or a named refusal."""

    __slots__ = ("accepted", "reason", "x_canonical", "y_canonical", "product_canonical")


def zero_divisor_witness(x: MonoidRingElement, y: MonoidRingElement) -> WitnessReport:
    """Certify x != 0, y != 0 and x*y = 0, all by canonical-form computation."""
    if x.monoid != y.monoid:
        raise MismatchError("witness factors live over different monoids")
    product = x * y
    reason = None
    if x.is_zero():
        reason = "first factor is zero"
    elif y.is_zero():
        reason = "second factor is zero"
    elif not product.is_zero():
        reason = f"product is nonzero: {product}"
    return WitnessReport(reason is None, reason, str(x), str(y), str(product))
