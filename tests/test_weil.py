import itertools
import random
from bisect import bisect_left
from fractions import Fraction
from math import isqrt

import pytest

from zdcert import weil
from zdcert.errors import DeductionRefused, InvalidEigenvalueError
from zdcert.polynomials import IntPoly, discriminant, is_rational_square
from zdcert.quadratic import QuadElement, is_prime
from zdcert.weil import (
    NewformDatum,
    StabilityReport,
    WeilQuartic,
    certify_reduction,
    deduce_endomorphism_ring,
    distinct_fields_certificate,
    endomorphism_stability,
    frobenius_charpoly,
    is_irreducible,
    is_ordinary,
)

from test_polynomials import fraction_rank, is_irreducible_quartic, power_sums
from test_quadratic import real_sign

EIGEN_17 = QuadElement(10, 4, -1)
EIGEN_19 = QuadElement(10, 2, 1)
CHARPOLY_17 = frobenius_charpoly(EIGEN_17, 17)
CHARPOLY_19 = frobenius_charpoly(EIGEN_19, 19)


def test_golden_charpolys():
    assert CHARPOLY_17.poly == IntPoly((289, -136, 40, -8, 1))
    # hand expansion of the norm form: t = 4, N = -6
    assert CHARPOLY_19.poly == IntPoly((361, -76, 32, -4, 1))
    assert CHARPOLY_19.poly[1] == 19 * CHARPOLY_19.poly[3] and CHARPOLY_19.poly[0] == 19 * 19


def test_rational_eigenvalue_gives_square():
    q = frobenius_charpoly(QuadElement(10, 0, 0), 7)
    assert q.poly == IntPoly((7, 0, 1)) ** 2


def test_symbolic_expansion_matches_random():
    # expand (x^2 - a x + p)(x^2 - conj(a) x + p) coefficient by coefficient
    rng = random.Random(20260830)
    cases = 0
    while cases < 500:
        d = rng.choice([2, 3, 5, 10, 13, 17])
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23, 29])
        a = QuadElement(d, rng.randint(-8, 8), rng.randint(-3, 3))
        if d % 4 == 1 and rng.random() < 0.5:
            a = a + QuadElement(d, Fraction(1, 2), Fraction(1, 2))
        if real_sign(a * a - 4 * p) > 0 or real_sign(a.conjugate() * a.conjugate() - 4 * p) > 0:
            continue
        if not a.is_integral():
            continue
        cases += 1
        quartic = frobenius_charpoly(a, p).poly
        abar = a.conjugate()
        # coefficients of (x^2 - a x + p)(x^2 - abar x + p) over the field
        coeffs = [
            QuadElement(d, p * p),
            -p * (a + abar),
            a * abar + 2 * p,
            -(a + abar),
            QuadElement(d, 1),
        ]
        for i, c in enumerate(coeffs):
            assert c.b == 0 and c.a == quartic[i]
        assert quartic[0] == p * p and quartic[1] == p * quartic[3]


def test_weil_bound_enforced():
    with pytest.raises(InvalidEigenvalueError):
        frobenius_charpoly(QuadElement(10, 20, 1), 17)
    with pytest.raises(InvalidEigenvalueError):
        frobenius_charpoly(QuadElement(10, 4, -2), 17)  # conjugate embedding too big
    with pytest.raises(InvalidEigenvalueError):
        frobenius_charpoly(QuadElement(10, Fraction(1, 2), 0), 17)  # not integral


def test_frobenius_charpoly_tests_the_prime_first():
    # a_p = 40 breaks the Weil bound at every p < 400, but a composite p is reported first
    with pytest.raises(ValueError, match="^15 is not prime$"):
        frobenius_charpoly(QuadElement(10, 40, 0), 15)


def test_norm_form_passes_the_checks_frobenius_charpoly_skips():
    # frobenius_charpoly builds its WeilQuartic without re-validation; the public
    # constructor, which runs every check, accepts the same fields
    built = 0
    for d in (2, 5, 10, 13):
        for p in (2, 3, 17, 101):
            for x in range(-20, 21):
                for y in range(-4, 5):
                    try:
                        quartic = frobenius_charpoly(QuadElement(d, x, y), p)
                    except InvalidEigenvalueError:
                        continue
                    assert WeilQuartic(quartic.p, quartic.poly) == quartic
                    built += 1
    assert built > 500


def test_trace_and_norm_match_the_fraction_formulas():
    # _trace_and_norm reads t and n from the integer numerators once a_p is integral
    checked = 0
    for d in (2, 3, 5, 10, 13, 21):
        for a, b in itertools.product([Fraction(n, 2) for n in range(-24, 25)], repeat=2):
            a_p = QuadElement(d, a, b)
            if not a_p.is_integral():
                with pytest.raises(InvalidEigenvalueError, match="is not an algebraic integer"):
                    weil._trace_and_norm(a_p, 10007)
                continue
            t, n = weil._trace_and_norm(a_p, 10007)
            assert (t, n) == (2 * a, a * a - d * b * b) and type(t) is int and type(n) is int
            checked += 1
    assert checked == 3 * 25 * 25 + 3 * (25 * 25 + 24 * 24)  # integer pairs, and half-odd pairs for d = 1 mod 4


def test_integer_weil_bound_matches_the_embedding_signs():
    # frobenius_charpoly decides r^2 <= 4p at both conjugates r from the trace and
    # norm alone; the oracle is the sign of a^2 - 4p under each real embedding
    primes = [q for q in range(2, 104) if is_prime(q)]
    fixed = (2, 3, 5, 6, 7, 10, 13)
    boundary = 0
    for d in sorted({*fixed, *primes}):
        field_primes = primes if d in fixed else [d]
        for x in range(-25, 26):
            for y in range(-6, 7):
                a = QuadElement(d, x, y)
                squares = (a * a, a.conjugate() * a.conjugate())
                # both squares are <= 4p from some prime on: the first such index
                first = bisect_left(field_primes, True,
                                    key=lambda p: all(real_sign(s - 4 * p) <= 0 for s in squares))
                for i, p in enumerate(field_primes):
                    try:
                        quartic = frobenius_charpoly(a, p)
                    except InvalidEigenvalueError:
                        assert i < first, (a, p)
                    else:
                        assert i >= first, (a, p)
                        boundary += quartic.factor_data()[2] == 0
    assert boundary == 54  # N = 0: an embedding on the bound, as for a = 2 sqrt(p)


def test_roots_on_circle_exact():
    # y = x + p/x maps the quartic to y^2 + c3 y + (c2 - 2p); its roots are the
    # eigenvalue embeddings and must have absolute value <= 2 sqrt(p)
    for quartic, a in ((CHARPOLY_17, EIGEN_17), (CHARPOLY_19, EIGEN_19)):
        p = quartic.p
        c3, c2 = quartic.c3, quartic.c2
        disc_y = c3 * c3 - 4 * (c2 - 2 * p)
        assert disc_y > 0
        for emb in (a, a.conjugate()):
            assert real_sign(emb * emb - 4 * p) <= 0
            assert emb * emb + c3 * emb + (c2 - 2 * p) == QuadElement(10, 0, 0)


def test_roots_on_circle_random():
    # for any Weil quartic from an eigenvalue, the quadratic in y = x + p/x
    # must have real roots of absolute value <= 2 sqrt(p): checked through
    # exact sign conditions on integers and quadratic elements only
    rng = random.Random(20260833)
    for _ in range(500):
        quartic = _random_weil_quartic(rng)
        p, c3, c2 = quartic.p, quartic.c3, quartic.c2
        assert c3 * c3 - 4 * (c2 - 2 * p) >= 0  # real roots
        assert c3 * c3 <= 16 * p  # vertex inside [-2 sqrt(p), 2 sqrt(p)]
        for sign in (1, -1):
            value_at_edge = QuadElement(p, 2 * p + c2, 2 * sign * c3)
            assert real_sign(value_at_edge) >= 0


def test_weil_shape_validation():
    with pytest.raises(ValueError):
        WeilQuartic(17, IntPoly((288, -136, 40, -8, 1)))  # c0 != p^2
    with pytest.raises(ValueError):
        WeilQuartic(17, IntPoly((289, -135, 40, -8, 1)))  # c1 != p*c3
    with pytest.raises(ValueError):
        WeilQuartic(15, IntPoly((225, -120, 40, -8, 1)))  # p not prime


def test_ordinarity():
    assert is_ordinary(CHARPOLY_17)  # gcd(40, 17) = 1
    assert is_ordinary(CHARPOLY_19)  # gcd(32, 19) = 1
    assert not is_ordinary(WeilQuartic(2, IntPoly((4, 0, 2, 0, 1))))


def test_power_charpoly_squares():
    # prod (x - r_i^2) = (-1)^deg P(sqrt(x)) P(-sqrt(x)), computable by
    # separating parities; its power sums are the even-index ones of P
    even = IntPoly((289, 40, 1))  # coefficients of x^0, x^2, x^4
    odd = IntPoly((-136, -8))  # of x^1, x^3
    sq = even * even - IntPoly((0, 1)) * odd * odd
    assert power_sums(sq, 8) == power_sums(CHARPOLY_17.poly, 16)[::2]


def _companion_minpoly_degrees(f, bound):
    # independent route: the minimal polynomial of C^n, for C the companion
    # matrix of f, has degree dim span{C^0, C^n, C^2n, C^3n}, a rank over Q
    companion = [[0] * 4 for _ in range(4)]
    for i in range(3):
        companion[i + 1][i] = 1
    for i in range(4):
        companion[i][3] = -f[i]
    powers = [[[1 if i == j else 0 for j in range(4)] for i in range(4)]]
    for _ in range(3 * bound):
        last = powers[-1]
        powers.append(
            [[sum(last[i][k] * companion[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        )
    degrees = []
    for n in range(2, bound + 1):
        vectors = [[entry for row in powers[k * n] for entry in row] for k in range(4)]
        degrees.append(fraction_rank(vectors))
        if degrees[-1] != 4:
            break
    return tuple(degrees)


def test_power_charpoly_matches_companion_matrix_oracle():
    quartics = [
        CHARPOLY_17,
        CHARPOLY_19,
        WeilQuartic(2, IntPoly((4, 0, 2, 0, 1))),
        # a_5 = (5 + sqrt(5))/2: pi^5 has degree 2 though alpha_5 is irrational
        # (disc_5 = 50000), the one drop here not read off a rational alpha_n
        WeilQuartic(5, IntPoly((25, -25, 15, -5, 1))),
    ]
    rng = random.Random(20260835)
    while len(quartics) < 204:
        quartic = _random_weil_quartic(rng)
        if is_irreducible_quartic(quartic.poly):
            quartics.append(quartic)
    unstable = 0
    for quartic in quartics:
        degrees = endomorphism_stability(quartic, 12).degrees
        assert degrees == _companion_minpoly_degrees(quartic.poly, 12), quartic
        unstable += degrees[-1] != 4
    assert 0 < unstable < len(quartics)


def test_power_minpoly_unstable_example():
    f = IntPoly((4, 0, 2, 0, 1))  # x^4 + 2x^2 + 4: pi^2 has minimal polynomial y^2 + 2y + 4
    report = endomorphism_stability(WeilQuartic(2, f), 12)
    assert report.degrees == (2,)
    assert not report.stable and report.failed_at == 2
    assert str(report) == "unstable at power 2"


def test_stability_golden():
    r17 = endomorphism_stability(CHARPOLY_17, 12)
    r19 = endomorphism_stability(CHARPOLY_19, 12)
    assert r17.stable and r19.stable
    assert r17.degrees == (4,) * 11 and r19.degrees == (4,) * 11


def test_stability_requires_irreducible():
    sq = WeilQuartic(7, IntPoly((7, 0, 1)) ** 2)
    with pytest.raises(ValueError):
        endomorphism_stability(sq)
    with pytest.raises(ValueError):
        endomorphism_stability(CHARPOLY_17, 1)


def _random_weil_quartic(rng):
    while True:
        d = rng.choice([2, 3, 10, 13])
        p = rng.choice([3, 5, 7, 11, 13])
        a = QuadElement(d, rng.randint(-6, 6), rng.choice([-2, -1, 1, 2]))
        try:
            return frobenius_charpoly(a, p)
        except InvalidEigenvalueError:
            continue


def test_stability_monotonicity_random():
    # stable at bound B implies stable at every smaller bound, and the reported
    # failure point is independent of the bound once it is reached
    rng = random.Random(20260831)
    cases = 0
    while cases < 500:
        quartic = _random_weil_quartic(rng)
        try:
            full = endomorphism_stability(quartic, 4)
        except ValueError:
            continue  # reducible quartic
        cases += 1
        for smaller in (2, 3):
            part = endomorphism_stability(quartic, smaller)
            if full.stable:
                assert part.stable
            if part.failed_at is not None:
                assert full.failed_at == part.failed_at
            assert part.degrees == full.degrees[: len(part.degrees)]


def test_stability_matches_howe_zhu_criterion_random():
    # independent oracle (Howe & Zhu, J. Number Theory 92, 2002): an ordinary
    # simple surface with Weil polynomial x^4 + ax^3 + bx^2 + pax + p^2 fails
    # to be absolutely simple iff a = 0 or a^2 is one of p + b, 2b, 3b - 3p
    rng = random.Random(20260834)
    cases = unstable = 0
    while cases < 400:
        quartic = _random_weil_quartic(rng)
        if not is_ordinary(quartic) or not is_irreducible_quartic(quartic.poly):
            continue
        cases += 1
        p, a, b = quartic.p, quartic.c3, quartic.c2
        howe_zhu_simple = not (a == 0 or a * a in (p + b, 2 * b, 3 * b - 3 * p))
        report = endomorphism_stability(quartic, 12)
        assert report.stable == howe_zhu_simple, quartic
        unstable += not report.stable
    assert 0 < unstable < cases


def test_distinctness_golden():
    assert distinct_fields_certificate(CHARPOLY_17, CHARPOLY_19) == "distinct"
    assert distinct_fields_certificate(CHARPOLY_19, CHARPOLY_17) == "distinct"  # symmetric
    assert Fraction(discriminant(CHARPOLY_17.poly), discriminant(CHARPOLY_19.poly)) == Fraction(81209, 332481)
    assert not is_rational_square(Fraction(81209, 332481))


def test_distinctness_inconclusive_cases():
    assert distinct_fields_certificate(CHARPOLY_17, CHARPOLY_17) == "inconclusive"
    # P(-x) has the same discriminant and the same splitting field
    mirrored = WeilQuartic(17, IntPoly((289, 136, 40, 8, 1)))
    assert distinct_fields_certificate(CHARPOLY_17, mirrored) == "inconclusive"


def test_distinctness_requires_irreducible():
    sq = WeilQuartic(7, IntPoly((7, 0, 1)) ** 2)
    with pytest.raises(ValueError):
        distinct_fields_certificate(sq, CHARPOLY_17)


def test_deduction_happy_path():
    cert17 = certify_reduction(EIGEN_17, 17)
    cert19 = certify_reduction(EIGEN_19, 19)
    assert (cert17.quartic, cert19.quartic) == (CHARPOLY_17, CHARPOLY_19)
    for cert in (cert17, cert19):
        assert cert.irreducible and cert.ordinary and cert.stability.stable
    conclusion = deduce_endomorphism_ring(10, cert17, cert19, "distinct", conductor=1)
    assert "Z[√10]" in conclusion.conclusion
    assert len(conclusion.hypotheses) == 4


def test_deduction_refused_on_any_gap():
    cert17 = certify_reduction(EIGEN_17, 17)
    cert19 = certify_reduction(EIGEN_19, 19)
    with pytest.raises(DeductionRefused):
        deduce_endomorphism_ring(10, cert17, cert19, "inconclusive", conductor=1)
    with pytest.raises(DeductionRefused):
        deduce_endomorphism_ring(10, None, cert19, "distinct", conductor=1)
    broken_stab = StabilityReport(12, (4, 2), 3)
    for mutated in (
        type(cert17)(cert17.quartic, False, cert17.ordinary, cert17.stability),
        type(cert17)(cert17.quartic, cert17.irreducible, False, cert17.stability),
        type(cert17)(cert17.quartic, cert17.irreducible, cert17.ordinary, None),
        type(cert17)(cert17.quartic, cert17.irreducible, cert17.ordinary, broken_stab),
    ):
        with pytest.raises(DeductionRefused):
            deduce_endomorphism_ring(10, mutated, cert19, "distinct", conductor=1)
        with pytest.raises(DeductionRefused):
            deduce_endomorphism_ring(10, cert19, mutated, "distinct", conductor=1)


def test_deduction_refused_unless_the_eigenvalues_generate_the_maximal_order():
    cert17 = certify_reduction(EIGEN_17, 17)
    cert19 = certify_reduction(EIGEN_19, 19)
    for conductor in (0, 2, 3):
        with pytest.raises(DeductionRefused, match=f"Z \\+ {conductor}O"):
            deduce_endomorphism_ring(10, cert17, cert19, "distinct", conductor=conductor)


def test_hecke_conductor_is_the_gcd_of_omega_parts():
    # omega = sqrt(d) for d = 2, 3 (mod 4) and (1 + sqrt(d))/2 for d = 1 (mod 4),
    # where x + y sqrt(d) = (x - y) + 2y omega
    assert NewformDatum(276, 10, 2, {17: EIGEN_17, 19: EIGEN_19}).hecke_conductor == 1
    assert NewformDatum(1, 10, 2, {17: QuadElement(10, 1, 2), 19: QuadElement(10, 0, -2)}).hecke_conductor == 2
    assert NewformDatum(1, 10, 2, {17: QuadElement(10, 1, 2), 19: QuadElement(10, 0, 1)}).hecke_conductor == 1
    assert NewformDatum(1, 10, 2, {17: QuadElement(10, 3), 19: QuadElement(10, -2)}).hecke_conductor == 0
    half = Fraction(1, 2)
    assert NewformDatum(1, 65, 2, {23: QuadElement(65, -1, 1), 29: QuadElement(65, -2, -1)}).hecke_conductor == 2
    assert NewformDatum(1, 5, 2, {11: QuadElement(5, half, half), 19: QuadElement(5, 1, 1)}).hecke_conductor == 1


# units x + y sqrt(d) of norm +-1, with i for d = -1 and a sixth root of unity for d = -3
_UNITS = {-1: (0, 1), -3: (Fraction(1, 2), Fraction(1, 2)), 2: (1, 1), 3: (2, 1), 5: (2, 1),
          6: (5, 2), 7: (8, 3), 10: (3, 1)}
_PRIMES = [p for p in range(2, 200) if is_prime(p)]


def _quartic_of(p: int, t: int, n: int) -> WeilQuartic:
    """The Weil quartic whose quadratic factor x^2 - alpha x + p has Tr alpha = t, N alpha = n."""
    return WeilQuartic(p, IntPoly((p * p, -p * t, n + 2 * p, -t, 1)))


def _seeded_weil_quartics(rng, count):
    """Weil quartics of four kinds in turn; the last three are reducible by construction."""
    out = []
    while len(out) < count:
        p = rng.choice(_PRIMES)
        kind = len(out) % 4
        if kind == 0:  # any trace and norm, so D = t^2 - 4n of either sign
            t, n = rng.randint(-40, 40), rng.randint(-400, 400)
        elif kind == 1:  # rational alpha: D = k^2
            t = rng.randint(-40, 40)
            k = rng.randrange(t % 2, 41, 2)
            n = (t * t - k * k) // 4
        elif kind == 2:  # g = (x - eps)(x - p/eps) splits over K for a unit eps
            d = rng.choice(list(_UNITS))
            eps = rng.choice([1, -1]) * QuadElement(d, *_UNITS[d]) ** rng.randint(1, 3)
            alpha = eps + p * eps**-1
            t, n = int(alpha.trace()), int(alpha.norm())
        else:  # alpha = pi - conj(pi) = 2y sqrt(d) for pi = x + y sqrt(d) of norm -p
            d, x, y = rng.randint(2, 30), rng.randint(0, 12), rng.randint(1, 6)
            p = d * y * y - x * x
            if p < 2 or not is_prime(p):
                continue
            t, n = 0, -4 * d * y * y
        out.append(_quartic_of(p, t, n))
    return out


def test_irreducibility_matches_divisor_pair_search():
    quartics = [CHARPOLY_17, CHARPOLY_19, WeilQuartic(7, IntPoly((7, 0, 1)) ** 2)]
    quartics += _seeded_weil_quartics(random.Random(20260840), 3200)
    tally = {"irreducible": 0, "D square": 0, "D < 0": 0, "split over Q(sqrt(D))": 0}
    for quartic in quartics:
        t, disc_alpha, cofactor = quartic.factor_data()
        irreducible = is_irreducible(quartic)
        assert irreducible == is_irreducible_quartic(quartic.poly), quartic
        if irreducible:
            tally["irreducible"] += 1
            p = quartic.p
            assert discriminant(quartic.poly) == p * p * disc_alpha**2 * cofactor, quartic
            assert cofactor != 0
        elif disc_alpha >= 0 and isqrt(disc_alpha) ** 2 == disc_alpha:
            tally["D square"] += 1
        else:
            tally["split over Q(sqrt(D))"] += 1
        tally["D < 0"] += disc_alpha < 0
    assert tally["irreducible"] >= 500 and tally["D < 0"] >= 200, tally
    assert tally["D square"] >= 500 and tally["split over Q(sqrt(D))"] >= 500, tally


def _power_sum_stability(quartic, bound):
    """(degrees, failed_at) by the power sums s_k of the quartic's roots: alpha_n
    has trace s_n and (alpha_n - conj(alpha_n))^2 = 2 s_2n - s_n^2 + 8p^n."""
    s = power_sums(quartic.poly, 2 * bound)
    degrees = []
    for n in range(2, bound + 1):
        q = quartic.p**n
        degrees.append(4 if weil._has_degree_4(s[n], 2 * s[2 * n] - s[n] ** 2 + 8 * q, q) else 2)
        if degrees[-1] != 4:
            return tuple(degrees), n
    return tuple(degrees), None


def test_stability_lucas_sequence_matches_power_sums_random():
    # (t, n) drawn inside the Weil range r^2 <= 4p at both conjugates r, as in
    # weil._trace_and_norm, for every prime p < 100
    rng = random.Random(20261019)
    primes = [p for p in _PRIMES if p < 100]
    quartics = {}
    for _ in range(20000):
        p = rng.choice(primes)
        m = isqrt(16 * p)
        t = rng.randint(-m, m)
        n = rng.randint(-((8 * p - t * t) // 2), t * t // 4)
        quartic = _quartic_of(p, t, n)
        if n * n - 4 * p * (t * t - 2 * n) + 16 * p * p >= 0 and is_irreducible(quartic):
            quartics[quartic] = None
    first_drops = {}
    for quartic in quartics:
        report = endomorphism_stability(quartic, 24)
        assert (report.degrees, report.failed_at) == _power_sum_stability(quartic, 24), quartic
        first_drops[report.failed_at] = first_drops.get(report.failed_at, 0) + 1
    assert len(quartics) >= 5000 and len(quartics) - first_drops[None] >= 400, first_drops
    assert set(first_drops) == {None, 2, 3, 4, 5, 6}, first_drops


def test_newform_datum_validation():
    datum = NewformDatum(276, 10, 2, {17: EIGEN_17, 19: EIGEN_19})
    for p in (2, 3, 23):  # good reduction is level % p != 0; the level is not factored
        with pytest.raises(ValueError, match=f"^prime {p} divides the level 276: no good reduction$"):
            NewformDatum(276, 10, 2, {p: QuadElement(10, 0, 0)})
    assert datum.good_primes() == [17, 19]
    with pytest.raises(ValueError):
        NewformDatum(276, 10, 2, {23: QuadElement(10, 1, 1)})  # 23 divides 276
    with pytest.raises(ValueError):
        NewformDatum(276, 10, 2, {15: QuadElement(10, 1, 1)})  # not prime
    with pytest.raises(ValueError):
        NewformDatum(276, 10, 2, {17: QuadElement(2, 1, 1)})  # wrong field
    with pytest.raises(InvalidEigenvalueError):
        NewformDatum(276, 10, 2, {17: QuadElement(10, 30, 0)})  # Weil bound
    with pytest.raises(ValueError):
        NewformDatum(0, 10, 2, {})
    assert is_prime(23)
