"""Independent oracles for the benchmark's correctness checks.

Nothing here imports zdcert: every expected value is recomputed from the
benchmark's own inputs with textbook formulas, so a defect in the code under
test cannot hide behind itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, isqrt


def is_squarefree(n: int) -> bool:
    n = abs(n)
    if n == 0:
        return False
    f = 2
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 1
    return True


def fundamental_disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


def weil_quartic(x: int, y: int, d: int, p: int) -> list[int]:
    """(X^2 - a X + p)(X^2 - conj(a) X + p) for a = x + y*sqrt(d), constant term first."""
    t = 2 * x
    n = x * x - d * y * y
    return [p * p, -p * t, n + 2 * p, -t, 1]


def quartic_discriminant(coeffs: list[int]) -> int:
    """Closed-form discriminant of e + d X + c X^2 + b X^3 + a X^4."""
    e, d, c, b, a = coeffs
    return (
        256 * a**3 * e**3 - 192 * a**2 * b * d * e**2 - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e - 27 * a**2 * d**4 + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e - 80 * a * b * c**2 * d * e + 18 * a * b * c * d**3
        + 16 * a * c**4 * e - 4 * a * c**3 * d**2 - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e - 4 * b**3 * d**3 - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, m = isqrt(q.numerator), isqrt(q.denominator)
    if n * n == q.numerator and m * m == q.denominator:
        return Fraction(n, m)
    return None


def _is_square_in_field(u: int, v: int, d: int) -> bool:
    """Whether u + v*sqrt(d) is a square in Q(sqrt(d)) (d squarefree, not 1)."""
    if v == 0:
        return _rational_sqrt(Fraction(u)) is not None or _rational_sqrt(Fraction(u, d)) is not None
    m = _rational_sqrt(Fraction(u * u - d * v * v))
    if m is None:
        return False
    # (r + s sqrt(d))^2 = u + v sqrt(d) forces r^2 = (u +- m) / 2 and s = v / (2r)
    for half in (Fraction(u + m, 2), Fraction(u - m, 2)):
        r = _rational_sqrt(half)
        if r:
            s = Fraction(v) / (2 * r)
            if r * r + d * s * s == u:
                return True
    return False


def quartic_irreducible(x: int, y: int, d: int, p: int) -> bool:
    """Irreducibility of the Weil quartic of a = x + y*sqrt(d) over Q.

    For y != 0 a root pi of X^2 - a X + p generates Q(sqrt(d), pi), which has
    degree 4 unless the discriminant a^2 - 4p is a square in Q(sqrt(d)).  For
    y = 0 the quartic is the square of a rational quadratic.
    """
    if y == 0:
        return False
    return not _is_square_in_field(x * x + d * y * y - 4 * p, 2 * x * y, d)


def is_ordinary(coeffs: list[int], p: int) -> bool:
    return gcd(coeffs[2], p) == 1


def howe_zhu_unstable(coeffs: list[int], p: int) -> bool:
    """Howe-Zhu: an ordinary simple surface with Frobenius X^4 + a X^3 + b X^2 + p a X + p^2
    fails to be absolutely simple iff a = 0 or a^2 is one of p + b, 2b, 3b - 3p."""
    a, b = coeffs[3], coeffs[2]
    return a == 0 or a * a in (p + b, 2 * b, 3 * b - 3 * p)


def _h_imaginary(disc: int) -> int:
    """Number of reduced positive definite forms of discriminant disc < 0."""
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (a == c and b < 0):
                continue
            count += 1
        a += 1
    return count


def _reduced_indefinite(a: int, b: int, disc: int) -> bool:
    # |sqrt(disc) - 2|a|| < b < sqrt(disc), compared exactly
    if b <= 0 or b * b >= disc or (2 * abs(a) + b) ** 2 <= disc:
        return False
    t = 2 * abs(a) - b
    return t <= 0 or t * t < disc


def _rho(form: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    a, b, c = form
    s = isqrt(disc)
    r = (-b) % (2 * abs(c))
    b2 = s - ((s - r) % (2 * abs(c)))
    return c, b2, (b2 * b2 - disc) // (4 * c)


def _h_real(disc: int) -> int:
    """Wide class number from cycles of reduced indefinite forms.

    The rho-cycles are the narrow classes; the wide class group is their
    quotient by the class of -1 * (principal form), which acts as
    (a, b, c) -> (-a, b, -c).  So h is the number of cycle orbits under
    that sign flip.
    """
    forms = []
    for b in range(1, isqrt(disc) + 1):
        if (disc - b * b) % 4:
            continue
        m = (disc - b * b) // 4  # = -a*c > 0
        for f in range(1, isqrt(m) + 1):
            if m % f:
                continue
            for a in {f, m // f}:
                for sa in (a, -a):
                    if _reduced_indefinite(sa, b, disc):
                        forms.append((sa, b, (b * b - disc) // (4 * sa)))
    cycle_of: dict[tuple[int, int, int], int] = {}
    for cid, start in enumerate(forms):
        f = start
        while f not in cycle_of:
            cycle_of[f] = cid
            f = _rho(f, disc)
    orbits = {frozenset((cycle_of[f], cycle_of[(-f[0], f[1], -f[2])])) for f in forms}
    return len(orbits)


@cache
def class_number(d: int) -> int:
    """Class number of the maximal order of Q(sqrt(d)) by counting binary forms."""
    disc = fundamental_disc(d)
    return _h_imaginary(disc) if disc < 0 else _h_real(disc)
