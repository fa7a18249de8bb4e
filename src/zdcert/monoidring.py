"""Integer monoid rings with canonical forms, and the zero-divisor witness.

Two commutative monoids are supported: the monoid of abelian-variety classes
over a fixed base (module classes under direct sum, where product of
varieties is direct sum of modules), and free commutative monoids on a fixed
generator alphabet.  Ring elements are finite Z-linear combinations stored
sorted by a fixed total order on monoid elements, so equality is literal
equality of stored forms.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from .errors import MismatchError
from .orders import QuadOrder
from .quadratic import _Value
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
        cleaned = {}
        for elem, coeff in coefficients.items():
            monoid.validate(elem)
            if not isinstance(coeff, int):
                raise TypeError("coefficients must be integers")
            if coeff:
                cleaned[elem] = cleaned.get(elem, 0) + coeff
        terms = tuple(
            (e, c) for e, c in sorted(cleaned.items(), key=lambda t: monoid.sort_key(t[0])) if c
        )
        return MonoidRingElement(monoid, terms)

    def _same_ring(self, other: "MonoidRingElement") -> None:
        if self.monoid != other.monoid:
            raise MismatchError("ring elements live over different monoids")

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, elem) -> int:
        for e, c in self.terms:
            if e == elem:
                return c
        return 0

    def __add__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        self._same_ring(other)
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return MonoidRingElement.build(self.monoid, acc)

    def __neg__(self) -> "MonoidRingElement":
        return MonoidRingElement(self.monoid, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "MonoidRingElement") -> "MonoidRingElement":
        return self + (-other)

    def __mul__(self, other: "MonoidRingElement | int") -> "MonoidRingElement":
        if isinstance(other, int):
            return MonoidRingElement.build(self.monoid, {e: c * other for e, c in self.terms})
        self._same_ring(other)
        acc: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = self.monoid.combine(e1, e2)
                acc[e] = acc.get(e, 0) + c1 * c2
        return MonoidRingElement.build(self.monoid, acc)

    __rmul__ = __mul__

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            basis = f"e[{self.monoid.describe(e)}]"
            if c == 1:
                parts.append(basis)
            elif c == -1:
                parts.append(f"-{basis}")
            else:
                parts.append(f"{c}*{basis}")
        out = parts[0]
        for t in parts[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def ring_zero(monoid: FreeMonoid | AVMonoid) -> MonoidRingElement:
    return MonoidRingElement(monoid, ())


def basis_element(monoid: FreeMonoid | AVMonoid, elem) -> MonoidRingElement:
    return MonoidRingElement.build(monoid, {elem: 1})


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
    total = monoid.identity()
    for f in factors:
        if isinstance(f, ProjectiveSpace):
            continue
        if isinstance(f, ModuleClass):
            f = monoid.element(f)
        if isinstance(f, AVClass):
            monoid.validate(f)
            total = monoid.combine(total, f)
        else:
            raise ValueError(f"unsupported factor kind: {f!r}")
    return basis_element(monoid, total)


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
