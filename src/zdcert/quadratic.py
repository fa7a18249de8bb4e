"""Exact elements a + b*sqrt(d) of a quadratic field, with rational coordinates."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import MismatchError, ResourceLimitError

Rat = int | Fraction

# the largest |d| of any field: its class group and units stay at desk scale
CLASS_GROUP_BOUND = 10**6


def is_squarefree(n: int) -> bool:
    if n == 0:
        return False
    n = abs(n)
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        if n % f == 0:
            n //= f
        f += 2
    return True


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
    """The distinct prime divisors of n >= 1, ascending, by trial division."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
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
    Name(field=value, ...).  __init__ takes the fields in order, unchecked.
    Classes that dicts and sets key by on hot paths spell these methods out.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

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
        _set_coords(self, _check_d(d), a, b)

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
        return self + (-other if isinstance(other, QuadElement) else _element(self.d, -Fraction(other), 0))

    def __rsub__(self, other: Rat) -> "QuadElement":
        return _element(self.d, other) - self

    def __mul__(self, other: "QuadElement | Rat") -> "QuadElement":
        if isinstance(other, (int, Fraction)):
            return _element(self.d, self.a * other, self.b * other)
        if not isinstance(other, QuadElement):
            return NotImplemented
        self._same_field(other)
        return _element(
            self.d,
            self.a * other.a + self.d * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "QuadElement | Rat") -> "QuadElement":
        if isinstance(other, (int, Fraction)):
            return _element(self.d, self.a / other, self.b / other)
        self._same_field(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero quadratic element")
        return self * other.conjugate() / n

    def __pow__(self, n: int) -> "QuadElement":
        if n < 0:
            return (_element(self.d, 1) / self) ** (-n)
        return binary_power(self, n, _element(self.d, 1))

    def conjugate(self) -> "QuadElement":
        return _element(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        """True iff the element lies in the maximal order of Q(sqrt(d))."""
        if self.d % 4 == 1:
            x, y = 2 * self.a, 2 * self.b
            return x.denominator == 1 and y.denominator == 1 and (x - y) % 2 == 0
        return self.a.denominator == 1 and self.b.denominator == 1

    def sign(self) -> int:
        """Sign under the embedding sending sqrt(d) to the positive root (d > 0 only)."""
        if self.d < 0:
            raise ValueError("sign is defined only for real quadratic elements")
        if self.b == 0:
            return (self.a > 0) - (self.a < 0)
        if self.a == 0:
            return 1 if self.b > 0 else -1
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        # opposite signs: compare a^2 with d*b^2
        lhs, rhs = self.a * self.a, self.d * self.b * self.b
        if self.a > 0:
            return 1 if lhs > rhs else -1
        return 1 if lhs < rhs else -1

    def __lt__(self, other: "QuadElement | Rat") -> bool:
        diff = self - (other if isinstance(other, QuadElement) else _element(self.d, other))
        return diff.sign() < 0

    def __gt__(self, other: "QuadElement | Rat") -> bool:
        diff = self - (other if isinstance(other, QuadElement) else _element(self.d, other))
        return diff.sign() > 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = f"√{self.d}" if self.d > 0 else f"√({self.d})"
        bpart = root if abs(self.b) == 1 else f"{abs(self.b)}{root}"
        if self.a == 0:
            return bpart if self.b > 0 else f"-{bpart}"
        return f"{self.a} {'+' if self.b > 0 else '-'} {bpart}"


def _set_coords(x: QuadElement, d: int, a: Rat, b: Rat) -> None:
    object.__setattr__(x, "d", d)
    object.__setattr__(x, "a", Fraction(a))
    object.__setattr__(x, "b", Fraction(b))


def _element(d: int, a: Rat, b: Rat = 0) -> QuadElement:
    """QuadElement(d, a, b) for a d that was already validated: skips _check_d."""
    x = object.__new__(QuadElement)
    _set_coords(x, d, a, b)
    return x


def sqrt_of(d: int) -> QuadElement:
    return QuadElement(d, 0, 1)


def exact_isqrt(n: int) -> int | None:
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None
