import random
from fractions import Fraction
from itertools import permutations
from math import comb, gcd, isqrt, prod

import pytest

from zdcert.polynomials import (
    IntPoly,
    X,
    discriminant,
    resultant,
)

CHARPOLY_17 = IntPoly((289, -136, 40, -8, 1))
CHARPOLY_19 = IntPoly((361, -76, 32, -4, 1))

# regression constant, cross-checked below against the closed-form quartic
# discriminant (a root-free expansion in the coefficients)
DISC_17 = 519737600
DISC_19 = 2127878400


def quartic_disc_formula(f: IntPoly) -> int:
    """Independent oracle: the classical closed-form quartic discriminant."""
    assert f.degree == 4
    a, b, c, d, e = f[4], f[3], f[2], f[1], f[0]
    return (
        256 * a**3 * e**3
        - 192 * a**2 * b * d * e**2
        - 128 * a**2 * c**2 * e**2
        + 144 * a**2 * c * d**2 * e
        - 27 * a**2 * d**4
        + 144 * a * b**2 * c * e**2
        - 6 * a * b**2 * d**2 * e
        - 80 * a * b * c**2 * d * e
        + 18 * a * b * c * d**3
        + 16 * a * c**4 * e
        - 4 * a * c**3 * d**2
        - 27 * b**4 * e**2
        + 18 * b**3 * c * d * e
        - 4 * b**3 * d**3
        - 4 * b**2 * c**3 * e
        + b**2 * c**2 * d**2
    )


def poly_from_roots(roots) -> IntPoly:
    f = IntPoly((1,))
    for r in roots:
        f = f * IntPoly((-r, 1))
    return f


def test_basic_arithmetic():
    assert IntPoly((1, 1)) * IntPoly((-1, 1)) == IntPoly((-1, 0, 1))
    assert CHARPOLY_17.derivative() == IntPoly((-136, 80, -24, 4))
    assert CHARPOLY_17.eval(0) == 289
    assert CHARPOLY_17.eval(1) == 186
    assert CHARPOLY_17.eval(Fraction(1, 2)) == Fraction(289, 1) - 68 + 10 - 1 + Fraction(1, 16)
    assert IntPoly((0, 0, 0)).is_zero() and IntPoly((0, 0, 0)).degree == -1
    assert (IntPoly((1, 2)) - IntPoly((1, 2))).is_zero()
    assert X**3 == IntPoly((0, 0, 0, 1))
    for k in range(9):
        assert IntPoly((1, 1)) ** k == IntPoly([comb(k, i) for i in range(k + 1)])
    with pytest.raises(ValueError):
        X ** -1
    # a product with the zero polynomial is the zero polynomial
    for product in (IntPoly() * X, X * IntPoly(), IntPoly() * IntPoly()):
        assert product == IntPoly() and product.coeffs == ()
    with pytest.raises(TypeError, match="^IntPoly coefficients must be integers$"):
        IntPoly((1, 2.5))
    with pytest.raises(ValueError, match="^zero polynomial has no leading coefficient$"):
        IntPoly().lc


def test_canonical_form_strips_trailing_zeros():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly(()).coeffs == ()


def test_resultant_examples():
    assert resultant(IntPoly((-2, 1)), IntPoly((1, 0, 1))) == 5  # g(2)
    assert resultant(IntPoly((-10, 0, 1)), IntPoly((-10, 0, 1))) == 0
    with pytest.raises(ValueError):
        resultant(IntPoly(()), X)


def test_resultant_linear_factor_is_evaluation():
    rng = random.Random(20260810)
    for _ in range(200):
        a = rng.randint(-10, 10)
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [rng.randint(1, 9)])
        assert resultant(IntPoly((-a, 1)), g) == g.eval(a)


def test_resultant_swap_symmetry():
    rng = random.Random(20260811)
    for _ in range(200):
        f = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        g = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 9)])
        sign = -1 if (f.degree * g.degree) % 2 else 1
        assert resultant(f, g) == sign * resultant(g, f)


def test_resultant_multiplicative_in_first_argument():
    rng = random.Random(20260812)
    for _ in range(100):
        f1, f2, g = (
            IntPoly([rng.randint(-5, 5) for _ in range(2)] + [rng.randint(1, 5)])
            for _ in range(3)
        )
        assert resultant(f1 * f2, g) == resultant(f1, g) * resultant(f2, g)


def test_discriminant_examples():
    # disc(x^2 - bx + c) = b^2 - 4c
    for b, c in [(5, 3), (0, -10), (-4, 4)]:
        assert discriminant(IntPoly((c, -b, 1))) == b * b - 4 * c
    assert discriminant(poly_from_roots([1, 2, 3])) == 4  # (1*4*1) squared differences
    # a linear polynomial has no root differences: its discriminant is the empty product 1
    for f in (X, IntPoly((-3, 1)), IntPoly((5, 2)), IntPoly((4, -1)), IntPoly((0, -7))):
        assert discriminant(f) == 1, f
    with pytest.raises(ValueError):
        discriminant(IntPoly((7,)))


def test_discriminant_frozen_values_and_formula_oracle():
    assert discriminant(CHARPOLY_17) == DISC_17 == quartic_disc_formula(CHARPOLY_17)
    assert discriminant(CHARPOLY_19) == DISC_19 == quartic_disc_formula(CHARPOLY_19)


def test_discriminant_vs_root_products_random():
    # disc of a monic split polynomial = product of squared root differences
    rng = random.Random(20260813)
    for _ in range(500):
        n = rng.randint(2, 4)
        roots = [rng.randint(-8, 8) for _ in range(n)]
        expected = 1
        for i in range(n):
            for j in range(i + 1, n):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant(poly_from_roots(roots)) == expected


def test_quartic_discriminant_formula_agreement_random():
    rng = random.Random(20260814)
    for _ in range(500):
        f = IntPoly([rng.randint(-20, 20) for _ in range(4)] + [rng.randint(1, 10)])
        assert discriminant(f) == quartic_disc_formula(f)


# Test-local oracle: a general factorization of monic integer quartics by the
# rational-root test and an exhaustive search over monic quadratic factor pairs
# (Gauss's lemma makes factoring over Z the same as over Q).  It knows nothing
# of the Weil shape, so test_weil checks the closed-form irreducibility against it.


def divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
    return small + large[::-1]


def content(f: IntPoly) -> int:
    return gcd(*f.coeffs)


def exact_div(f: IntPoly, g: IntPoly) -> IntPoly:
    """Quotient f / g when the division is exact over Z; raises otherwise."""
    if g.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(f.coeffs)
    out = [0] * max(f.degree - g.degree + 1, 0)
    for i in range(f.degree - g.degree, -1, -1):
        c, r = divmod(rem[i + g.degree], g.lc)
        if r:
            raise ValueError("division is not exact over Z")
        out[i] = c
        for j, gc in enumerate(g.coeffs):
            rem[i + j] -= c * gc
    if any(rem):
        raise ValueError("division is not exact over Z")
    return IntPoly(out)


def integer_root(f: IntPoly) -> int | None:
    """Some integer root of a monic f, or None (rational-root test)."""
    if f[0] == 0:
        return 0
    for r in divisors(f[0]):
        for s in (r, -r):
            if f.eval(s) == 0:
                return s
    return None


def factor_quartic(f: IntPoly) -> list[IntPoly]:
    """Monic irreducible integer factors of a monic primitive quartic, sorted by coefficients."""
    if f.degree != 4:
        raise ValueError("factor_quartic requires degree exactly 4")
    if not f.is_monic():
        raise ValueError("factor_quartic requires a monic polynomial")
    if content(f) != 1:
        raise ValueError("factor_quartic requires a primitive polynomial")
    factors: list[IntPoly] = []
    g = f
    while g.degree > 0 and (r := integer_root(g)) is not None:
        factors.append(IntPoly((-r, 1)))
        g = exact_div(g, IntPoly((-r, 1)))
    if g.degree == 4:
        # no linear factor: any split is (x^2 + a x + b)(x^2 + c x + e) with b e = g(0),
        # a + c = g3 and a e + b c = g1, so a is fixed once b != e
        g3, g2, g1, g0 = g[3], g[2], g[1], g[0]
        for b in (s * r for r in divisors(g0) for s in (1, -1)):
            e = g0 // b
            if b * e != g0:
                continue
            if b != e:
                a, rem = divmod(g1 - g3 * b, e - b)
                candidates = [] if rem else [a]
            else:
                root = isqrt(max(g3 * g3 - 4 * (g2 - 2 * b), 0))
                candidates = [(g3 + root) // 2, (g3 - root) // 2]
            for a in candidates:
                q1, q2 = IntPoly((b, a, 1)), IntPoly((e, g3 - a, 1))
                if q1 * q2 == g:
                    return sorted(factors + [q1, q2], key=lambda p: p.coeffs)
    if g.degree > 0:
        factors.append(g)
    return sorted(factors, key=lambda p: p.coeffs)


def is_irreducible_quartic(f: IntPoly) -> bool:
    return len(factor_quartic(f)) == 1


def test_factor_quartic_examples():
    assert factor_quartic(IntPoly((4, 0, 0, 0, 1))) == [
        IntPoly((2, -2, 1)),
        IntPoly((2, 2, 1)),
    ]  # x^4 + 4
    assert is_irreducible_quartic(CHARPOLY_17)
    assert is_irreducible_quartic(CHARPOLY_19)
    sq = IntPoly((1, 0, 1)) ** 2
    assert factor_quartic(sq) == [IntPoly((1, 0, 1)), IntPoly((1, 0, 1))]


def test_factor_quartic_with_linear_factors():
    f = poly_from_roots([1, -2]) * IntPoly((3, 1, 1))
    factors = factor_quartic(f)
    assert sorted(p.degree for p in factors) == [1, 1, 2]
    assert prod(factors, start=IntPoly((1,))) == f


def test_factor_quartic_domain_errors():
    with pytest.raises(ValueError):
        factor_quartic(IntPoly((1, 2, 1)))  # wrong degree
    with pytest.raises(ValueError):
        factor_quartic(IntPoly((1, 0, 0, 0, 2)))  # not monic
    with pytest.raises(ValueError):
        factor_quartic(IntPoly((2, 0, 0, 0, 1)) * 3)  # not primitive


def test_factor_quartic_recovers_random_quadratic_splits():
    rng = random.Random(20260815)
    for _ in range(500):
        q1 = IntPoly((rng.randint(-9, 9), rng.randint(-9, 9), 1))
        q2 = IntPoly((rng.randint(-9, 9), rng.randint(-9, 9), 1))
        f = q1 * q2
        factors = factor_quartic(f)
        assert len(factors) >= 2
        assert all(p.is_monic() for p in factors)
        assert prod(factors, start=IntPoly((1,))) == f


def test_irreducible_random_quartics_have_no_roots_or_splits():
    # spot-check the irreducibility verdict against exhausting values
    rng = random.Random(20260816)
    checked = 0
    while checked < 50:
        f = IntPoly([rng.randint(-9, 9) for _ in range(4)] + [1])
        if content(f) != 1 or not is_irreducible_quartic(f):
            continue
        checked += 1
        for r in range(-12, 13):
            assert f.eval(r) != 0


def test_exact_div_and_gcd():
    f = IntPoly((1, 2, 1))
    assert exact_div(f * IntPoly((5, 3)), IntPoly((5, 3))) == f
    with pytest.raises(ValueError):
        exact_div(IntPoly((1, 1)), IntPoly((0, 2)))


def fraction_rank(m) -> int:
    """Test-local oracle: row echelon form by Gaussian elimination over Q."""
    rows = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def leibniz_det(m) -> int:
    """Test-local oracle: the permutation expansion of the determinant."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(n))
    return total


def sylvester_matrix(f: IntPoly, g: IntPoly) -> list[list[int]]:
    """Test-local: deg g shifted rows of f's coefficients over deg f shifted rows of g's."""
    n, m = f.degree, g.degree
    fr, gr = list(f.coeffs[::-1]), list(g.coeffs[::-1])
    return ([[0] * i + fr + [0] * (m - 1 - i) for i in range(m)]
            + [[0] * i + gr + [0] * (n - 1 - i) for i in range(n)])


def test_resultant_matches_sylvester_determinant_random():
    rng = random.Random(20261019)

    def rand_poly(deg):
        return IntPoly([rng.randint(-5, 5) for _ in range(deg)] + [rng.choice((-3, -2, -1, 1, 2, 3))])

    zeros = gaps = 0
    for case in range(500):
        shared = case % 4 == 0  # a common linear factor: the resultant is 0
        df = rng.randint(0, 6 - 2 * shared)
        f, g = rand_poly(df), rand_poly(rng.randint(0, 6 - 2 * shared - df))
        if shared:
            linear = rand_poly(1)
            f, g = f * linear, g * linear
        res = resultant(f, g)
        assert res == leibniz_det(sylvester_matrix(f, g)), (f, g)
        assert res == 0 or not shared, (f, g)
        zeros += res == 0
        gaps += abs(f.degree - g.degree) >= 2
    assert zeros >= 125 and gaps >= 300, (zeros, gaps)


def power_sums(f: IntPoly, top: int) -> list[int]:
    """Power sums s_0, ..., s_top, s_k = sum r^k over the roots r of a monic f.

    Newton's identities, which become f's linear recurrence once k > deg f.
    Integer arithmetic throughout (Cohen, A Course in Computational Algebraic
    Number Theory, 4.3).  The reference that weil.endomorphism_stability's
    Lucas sequence is compared against in test_weil.
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


def test_power_sums_and_hankel_rank():
    f = poly_from_roots([1, 1, 2, -3])
    s = power_sums(f, 6)
    assert s == [2 + 2**k + (-3) ** k for k in range(7)]
    # Hermite: the Hankel matrix of the power sums has rank = number of distinct roots
    assert fraction_rank([[s[i + j] for j in range(4)] for i in range(4)]) == 3
    assert power_sums(CHARPOLY_17, 2) == [4, 8, -16]  # s_1 = -c3, s_2 = c3^2 - 2 c2
    with pytest.raises(ValueError):
        power_sums(IntPoly((1, 0, 2)), 4)  # not monic
    with pytest.raises(ValueError):
        power_sums(CHARPOLY_17, -1)
