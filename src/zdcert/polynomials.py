"""Integer polynomials: exact arithmetic, resultants, discriminants.

Coefficients are arbitrary-precision integers, constant term first, with no
trailing zeros stored; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .quadratic import _Value, _terms_text, binary_power, exact_isqrt


def _normalize(coeffs: Iterable[int]) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


class IntPoly(_Value):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int] = ()):
        if any(not isinstance(c, int) for c in coeffs):
            raise TypeError("IntPoly coefficients must be integers")
        object.__setattr__(self, "coeffs", _normalize(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial having degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntPoly") -> "IntPoly":
        if not isinstance(other, IntPoly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        if not isinstance(other, IntPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPoly":
        return binary_power(self, n, IntPoly([1]))

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x: int | Fraction):
        """Evaluate by Horner's rule; exact for integer or rational points."""
        acc: int | Fraction = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return _terms_text([(self.coeffs[i], "" if i == 0 else "x" if i == 1 else f"x^{i}")
                            for i in range(self.degree, -1, -1)])


X = IntPoly((0, 1))


def _exact_div(n: int, q: int) -> int:
    out, rem = divmod(n, q)
    assert rem == 0, f"{q} does not divide {n}"
    return out


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder of lc(b)^(deg a - deg b + 1) * a by b, on coefficient tuples."""
    r, n = list(a), len(b) - 1
    for _ in range(len(a) - n):
        c = r.pop()  # the leading coefficient, cancelled by c * x^(len(r) - n) * b
        r = [b[-1] * x for x in r]
        for i in range(n):
            r[len(r) - n + i] -= c * b[i]
    return _normalize(r)


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) by the subresultant algorithm; Res(x - a, g) = g(a).

    Cohen, A Course in Computational Algebraic Number Theory, Alg. 3.3.7,
    without the content reduction: every division below is exact over Z.
    """
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    a, b, s, lc, h = f.coeffs, g.coeffs, 1, 1, 1
    if len(a) < len(b):
        a, b = b, a
        s = (-1) ** (f.degree * g.degree)
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        if da % 2 and db % 2:
            s = -s
        delta = da - db
        a, b = b, tuple(_exact_div(c, lc * h**delta) for c in _prem(a, b))
        lc = a[-1]
        h = _exact_div(lc**delta * h, h**delta)
    if not b:
        return 0
    da = len(a) - 1
    return s * _exact_div(b[0] ** da * h, h**da)


def discriminant(f: IntPoly) -> int:
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f) for n = deg f >= 1."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    return _exact_div(sign * resultant(f, f.derivative()), f.lc)


def is_rational_square(q: int | Fraction) -> bool:
    """True iff q is the square of a rational; zero counts, negatives do not."""
    q = Fraction(q)  # a negative q has a negative numerator, which exact_isqrt refuses
    return exact_isqrt(q.numerator) is not None and exact_isqrt(q.denominator) is not None
