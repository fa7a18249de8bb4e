"""Integer polynomials: exact arithmetic, resultants, discriminants, power sums.

Coefficients are arbitrary-precision integers, constant term first, with no
trailing zeros stored; the zero polynomial is the empty tuple.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction

from .quadratic import _Value, binary_power, exact_isqrt


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
        n = max(len(self.coeffs), len(other.coeffs))
        return IntPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
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
        if self.is_zero():
            return "0"
        parts = []
        for i in range(self.degree, -1, -1):
            c = self[i]
            if c == 0:
                continue
            mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
            if i > 0 and abs(c) == 1:
                term = mono if c == 1 else f"-{mono}"
            else:
                term = f"{c}{mono}"
            parts.append(term)
        s = parts[0]
        for t in parts[1:]:
            s += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return s


X = IntPoly((0, 1))


def rank_and_det(m: Sequence[Sequence[int]]) -> tuple[int, int]:
    """Rank and determinant of an integer matrix by fraction-free (Bareiss) elimination.

    Every entry after a pivot step is a minor of m, so each division by the
    previous pivot is exact; columns with no pivot are skipped, which makes
    the rank come out for singular and rectangular matrices too.  The
    determinant is 0 unless m is square of full rank (1 for the empty matrix).
    """
    rows = [list(r) for r in m]
    n_rows, n_cols = len(rows), len(rows[0]) if rows else 0
    rank, sign, prev = 0, 1, 1
    for col in range(n_cols):
        pivot = next((i for i in range(rank, n_rows) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        top = rows[rank]
        for row in rows[rank + 1 :]:
            for j in range(col + 1, n_cols):
                row[j], rem = divmod(row[j] * top[col] - row[col] * top[j], prev)
                assert rem == 0, "Bareiss divisions are exact over Z"
            row[col] = 0
        prev = top[col]
        rank += 1
    return rank, (sign * prev if rank == n_rows == n_cols else 0)


def sylvester_matrix(f: IntPoly, g: IntPoly) -> list[list[int]]:
    n, m = f.degree, g.degree
    size = n + m
    rows = []
    fr = list(reversed(f.coeffs))
    gr = list(reversed(g.coeffs))
    for i in range(m):
        rows.append([0] * i + fr + [0] * (size - n - 1 - i))
    for i in range(n):
        rows.append([0] * i + gr + [0] * (size - m - 1 - i))
    return rows


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Res(f, g) as the Sylvester determinant; Res(x - a, g) = g(a)."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined")
    if f.degree == 0:
        return f.lc ** g.degree
    if g.degree == 0:
        return g.lc ** f.degree
    return rank_and_det(sylvester_matrix(f, g))[1]


def discriminant(f: IntPoly) -> int:
    """(-1)^(n(n-1)/2) * Res(f, f') / lc(f) for n = deg f >= 1."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant requires degree >= 1")
    if n == 1:
        return 1
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f.lc)
    assert rem == 0, "discriminant of an integer polynomial is an integer"
    return q


def power_sums(f: IntPoly, top: int) -> list[int]:
    """Power sums s_0, ..., s_top, s_k = sum r^k over the roots r of a monic f.

    Newton's identities, which become f's linear recurrence once k > deg f.
    Integer arithmetic throughout (Cohen, A Course in Computational Algebraic
    Number Theory, 4.3).
    """
    if not f.is_monic():
        raise ValueError("power sums require a monic polynomial")
    if top < 0:
        raise ValueError("power sums require a nonnegative top index")
    deg = f.degree
    a = f.coeffs[::-1]  # a[j] is the coefficient of x^(deg - j)
    s = [deg]
    for k in range(1, top + 1):
        acc = k * a[k] if k <= deg else 0
        for j in range(1, min(k - 1, deg) + 1):
            acc += a[j] * s[k - j]
        s.append(-acc)
    return s


def is_rational_square(q: int | Fraction) -> bool:
    """True iff q is the square of a rational; zero counts, negatives do not."""
    q = Fraction(q)
    if q < 0:
        return False
    return exact_isqrt(q.numerator) is not None and exact_isqrt(q.denominator) is not None
