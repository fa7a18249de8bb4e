import itertools
import random
from fractions import Fraction

import pytest

from zdcert.errors import MismatchError, ResourceLimitError
from zdcert.monoidring import AVMonoid, FreeMonoid, MonoidRingElement
from zdcert.orders import class_group, maximal_order
from zdcert.polynomials import IntPoly
from zdcert.quadratic import PRIME_TEST_BOUND, QuadElement, is_prime, is_squarefree, prime_divisors
from zdcert.steinitz import ModuleClass


def real_sign(x: QuadElement) -> int:
    """Test-local oracle: the sign of x when sqrt(d) is the positive root (d > 0 only)."""
    if x.d < 0:
        raise ValueError("sign is defined only for real quadratic elements")
    sa, sb = (x.a > 0) - (x.a < 0), (x.b > 0) - (x.b < 0)
    if sa * sb >= 0:
        return sa or sb
    # opposite signs: the larger of a^2 and d*b^2 wins, and d is not a square
    return sa if x.a * x.a > x.d * x.b * x.b else sb


def test_norm_trace_examples():
    a17 = QuadElement(10, 4, -1)
    assert a17.norm() == 6  # 16 - 10
    assert a17.trace() == 8
    assert QuadElement(10, 0, 1).norm() == -10
    assert QuadElement(10, 4, -1).conjugate() == QuadElement(10, 4, 1)


def test_rational_elements_fixed_by_conjugation():
    for a in (0, 3, Fraction(-7, 2)):
        x = QuadElement(5, a, 0)
        assert x.conjugate() == x


def test_field_parameter_validation():
    for bad in (0, 1, 4, 12, -4, 50):
        with pytest.raises(ValueError):
            QuadElement(bad, 1, 1)


def test_arithmetic_validates_d_once(monkeypatch):
    # results inherit d from a checked operand; only the public constructor checks
    from zdcert import quadratic
    from zdcert.orders import fundamental_unit, maximal_order

    calls = 0
    check = quadratic.is_squarefree

    def counting(n):
        nonlocal calls
        calls += 1
        return check(n)

    monkeypatch.setattr(quadratic, "is_squarefree", counting)
    fundamental_unit(maximal_order(999983))
    assert calls <= 2
    with pytest.raises(ValueError):
        QuadElement(999983 * 4, 1)


def test_mixed_fields_rejected():
    x = QuadElement(10, 1, 1)
    y = QuadElement(2, 1, 1)
    for op in (lambda: x + y, lambda: x * y, lambda: x - y, lambda: x / y):
        with pytest.raises(MismatchError):
            op()


def _random_element(rng, d):
    return QuadElement(
        d,
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
        Fraction(rng.randint(-20, 20), rng.randint(1, 9)),
    )


def test_norm_multiplicativity_random():
    rng = random.Random(20260801)
    for _ in range(1000):
        d = rng.choice([2, 3, 5, 10, 13, -1, -5, -10])
        x, y = _random_element(rng, d), _random_element(rng, d)
        assert (x * y).norm() == x.norm() * y.norm()


def test_conjugation_is_ring_automorphism():
    rng = random.Random(20260802)
    for _ in range(1000):
        d = rng.choice([2, 10, -5, 17])
        x, y = _random_element(rng, d), _random_element(rng, d)
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()


def test_field_laws():
    rng = random.Random(20260803)
    for _ in range(300):
        d = rng.choice([2, 10, -5])
        x, y, z = (_random_element(rng, d) for _ in range(3))
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)
        if not y.is_zero():
            assert (x / y) * y == x


def test_division_and_inverse():
    x = QuadElement(10, 3, 1)  # unit: norm -1
    inv = QuadElement(10, 1) / x
    assert x * inv == QuadElement(10, 1)
    assert x ** -1 == inv
    with pytest.raises(ZeroDivisionError):
        QuadElement(10, 1) / QuadElement(10, 0, 0)


KERNEL_FIELDS = (-7, -5, -3, -1, 2, 3, 5, 10, 13, 17, 21, 999983)


def _small_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-50, 50), rng.randint(1, 12))


def test_integer_kernels_match_fraction_formulas():
    # products, quotients, norms and traces run on integers over one denominator;
    # the oracle is the textbook formula in Fraction arithmetic on the coordinates
    rng = random.Random(20261020)
    quotients = 0
    for d in KERNEL_FIELDS:
        for _ in range(400):
            a1, b1, a2, b2 = (_small_fraction(rng) for _ in range(4))
            x, y = QuadElement(d, a1, b1), QuadElement(d, a2, b2)
            results = [(x * y, a1 * a2 + d * b1 * b2, a1 * b2 + b1 * a2)]
            n = a2 * a2 - d * b2 * b2
            if n:
                quotients += 1
                results.append((x / y, (a1 * a2 - d * b1 * b2) / n, (b1 * a2 - a1 * b2) / n))
            for z, a, b in results:
                assert (z.d, z.a, z.b) == (d, a, b), (x, y)
                assert type(z.a) is Fraction and type(z.b) is Fraction
            # integer coordinates and operands are stored as Fractions too
            for z in (QuadElement(d, a1.numerator, b1.numerator), x * a1.numerator, x / a2.denominator):
                assert type(z.a) is Fraction and type(z.b) is Fraction
            norm, trace = x.norm(), x.trace()
            assert norm == a1 * a1 - d * b1 * b1 and type(norm) is Fraction
            assert trace == 2 * a1 and type(trace) is Fraction
    assert quotients > 4700  # only y = 0 has norm 0


def test_trusted_element_builder_matches_the_checked_constructor():
    # _element skips _check_d and writes its fields by hand; QuadElement goes through _Value.__init__
    from zdcert.quadratic import _element

    coords = [(0, 0), (3, -2), (Fraction(1, 2), Fraction(-3, 2)), (Fraction(5, 4), 7), (-1, Fraction(2, 3))]
    for d in (-7, -3, -1, 2, 5, 10, 13, 21):  # -7, -3, 5, 13 and 21 are 1 mod 4
        for a, b in coords:
            trusted, checked = _element(d, a, b), QuadElement(d, a, b)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert repr(trusted) == repr(checked)
            for x in (trusted, checked):
                assert type(x.a) is Fraction and type(x.b) is Fraction
        assert _element(d, 4) == QuadElement(d, 4) == QuadElement(d, 4, 0)


def test_division_by_zero_element_keeps_its_message():
    for d in KERNEL_FIELDS:
        with pytest.raises(ZeroDivisionError, match="^division by zero quadratic element$"):
            QuadElement(d, Fraction(3, 7), -2) / QuadElement(d, 0, Fraction(0, 5))


def test_integrality_matches_the_coordinate_rule():
    # integral: a, b in Z, or for d = 1 mod 4 also a, b both in 1/2 + Z
    for d in KERNEL_FIELDS:
        for a, b in itertools.product([Fraction(n, q) for n in range(-7, 8) for q in (1, 2, 3, 4)], repeat=2):
            halves = (2 * a).denominator == (2 * b).denominator == 1 and (a - b).denominator == 1
            expected = a.denominator == b.denominator == 1 or d % 4 == 1 and halves
            assert QuadElement(d, a, b).is_integral() == expected, (d, a, b)


def test_integrality():
    assert QuadElement(10, 3, -2).is_integral()
    assert not QuadElement(10, Fraction(1, 2), 0).is_integral()
    # half-coordinates are integral exactly when they match parity, d = 1 mod 4
    assert QuadElement(5, Fraction(1, 2), Fraction(1, 2)).is_integral()
    assert not QuadElement(5, Fraction(1, 2), 1).is_integral()
    assert QuadElement(5, 2, 3).is_integral()


def test_exact_sign():
    assert real_sign(QuadElement(10, -3, 1)) == 1  # sqrt(10) > 3
    assert real_sign(QuadElement(10, -4, 1)) == -1  # sqrt(10) < 4
    assert real_sign(QuadElement(2, 0, 0)) == 0
    assert real_sign(QuadElement(2, -7, 5)) == 1  # 5*sqrt(2) = 7.07...
    assert real_sign(QuadElement(2, 7, -5)) == -1
    assert real_sign(QuadElement(10, 3, 1) - 1) == 1
    with pytest.raises(ValueError):
        real_sign(QuadElement(-5, 1, 1))


def test_sign_matches_float():
    rng = random.Random(20260804)
    for _ in range(500):
        d = rng.choice([2, 3, 10, 19])
        x = _random_element(rng, d)
        approx = float(x.a) + float(x.b) * d**0.5
        if abs(approx) > 1e-9:
            assert real_sign(x) == (1 if approx > 0 else -1)


def test_integer_helpers():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert is_squarefree(10) and is_squarefree(-5)
    assert not is_squarefree(12) and not is_squarefree(0) and not is_squarefree(-9)


def test_is_prime_matches_trial_division_below_100000():
    primes: list[int] = []
    for n in range(-5, 100_000):
        prime = n >= 2 and all(n % q for q in itertools.takewhile(lambda q: q * q <= n, primes))
        if prime:
            primes.append(n)
        assert is_prime(n) == prime, n
    assert len(primes) == 9592


# Carmichael numbers, then the least strong pseudoprimes to the first k prime bases
# for k = 1, 3, 4, 5, 6, 7, 9 and 12 (the last two fool every base below 41)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
STRONG_PSEUDOPRIMES = (2047, 25326001, 3215031751, 2152302898747, 3474749660383,
                       341550071728321, 3825123056546413051, 318665857834031151167461)


def test_is_prime_rejects_pseudoprimes_and_stops_at_its_proven_bound():
    assert not any(is_prime(n) for n in CARMICHAEL + STRONG_PSEUDOPRIMES)
    largest = PRIME_TEST_BOUND - 168  # the largest prime below psi_13
    assert is_prime(2**61 - 1) and is_prime(10**18 + 9) and is_prime(largest)
    assert not any(is_prime(n) for n in range(largest + 1, PRIME_TEST_BOUND))
    for n in (PRIME_TEST_BOUND, 2**89 - 1):  # psi_13 itself, and a Mersenne prime above it
        with pytest.raises(ResourceLimitError):
            is_prime(n)


def _joined_reference(parts: list[str]) -> str:
    out = parts[0]
    for t in parts[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def _poly_text_reference(p: IntPoly) -> str:
    """Test-local oracle: IntPoly text written term by term, then sign-joined."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p[i]
        if c == 0:
            continue
        mono = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        parts.append((mono if c == 1 else f"-{mono}") if i > 0 and abs(c) == 1 else f"{c}{mono}")
    return _joined_reference(parts)


def _quad_text_reference(x: QuadElement) -> str:
    """Test-local oracle: a + b√d text by cases on a and b."""
    if x.b == 0:
        return str(x.a)
    root = f"√{x.d}" if x.d > 0 else f"√({x.d})"
    bpart = root if abs(x.b) == 1 else f"{abs(x.b)}{root}"
    if x.a == 0:
        return bpart if x.b > 0 else f"-{bpart}"
    return f"{x.a} {'+' if x.b > 0 else '-'} {bpart}"


def _ring_text_reference(r: MonoidRingElement) -> str:
    """Test-local oracle: monoid-ring text written term by term, then sign-joined."""
    if not r.terms:
        return "0"
    parts = []
    for e, c in r.terms:
        basis = f"e[{r.monoid.describe(e)}]"
        parts.append(basis if c == 1 else f"-{basis}" if c == -1 else f"{c}*{basis}")
    return _joined_reference(parts)


def test_element_text_matches_term_by_term_references():
    rng = random.Random(20261021)
    small = [0, 0, 1, -1, 2, -2, 7, -13, 10**20, -(10**20)]
    rationals = small + [Fraction(1, 3), Fraction(-1, 3), Fraction(-7, 2), Fraction(22, 9)]
    polys = [IntPoly(()), IntPoly((5,)), IntPoly((-1,)), IntPoly((0, 1)), IntPoly((0, -1)),
             IntPoly((1, 0, -1)), IntPoly((-3, 0, 0, 1)), IntPoly((0, 0, -2))]
    polys += [IntPoly([rng.choice(small) for _ in range(rng.randint(1, 6))]) for _ in range(500)]
    for p in polys:
        assert str(p) == _poly_text_reference(p), p.coeffs
    for _ in range(1000):
        x = QuadElement(rng.choice((-5, -3, -1, 2, 3, 10, 13)), rng.choice(rationals), rng.choice(rationals))
        assert str(x) == _quad_text_reference(x), repr(x)
    free = FreeMonoid(["a", "b"])
    o10 = maximal_order(10)
    av = AVMonoid("A", o10)
    av_elems = [av.identity()] + [av.element(ModuleClass(n, c)) for n in (1, 2) for c in class_group(o10).classes]
    for _ in range(300):
        for monoid, elems in ((free, [(i, j) for i in range(3) for j in range(3)]), (av, av_elems)):
            picked = rng.sample(elems, rng.randint(0, 4))
            r = MonoidRingElement.build(monoid, {e: rng.choice(small) for e in picked})
            assert str(r) == _ring_text_reference(r), r.terms


def _prime_factors_brute_force(n: int) -> list[int]:
    """Test-local oracle: the prime factors of n >= 1 with multiplicity, dividing by every q >= 2."""
    out, q = [], 2
    while q * q <= n:
        while n % q == 0:
            out.append(q)
            n //= q
        q += 1
    return out + [n] if n > 1 else out


def test_trial_division_matches_brute_force_factoring():
    near_a_million = [10**6 - k for k in range(60)] + [10**6 + k for k in range(60)]
    for n in list(range(1, 5001)) + near_a_million:
        factors = _prime_factors_brute_force(n)
        assert prime_divisors(n) == sorted(set(factors)), n
        squarefree = len(factors) == len(set(factors))
        assert is_squarefree(n) == is_squarefree(-n) == squarefree, n
    assert not is_squarefree(0)
    assert prime_divisors(999999999989) == [999999999989] and is_prime(999999999989)
    assert prime_divisors(10**12) == [2, 5] and not is_squarefree(10**12)
    assert prime_divisors(999983**2) == [999983] and not is_squarefree(999983**2)
    assert prime_divisors(2 * 999983) == [2, 999983] and is_squarefree(-2 * 999983)
