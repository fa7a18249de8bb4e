import random
import time
from fractions import Fraction
from math import gcd, isqrt, lcm

import pytest

from zdcert.errors import MismatchError
from zdcert.monoidring import FreeMonoid, basis_element
from zdcert.orders import (
    FracIdeal,
    _ideals_above_prime,
    class_group,
    fundamental_unit,
    ideal_class,
    is_principal,
    maximal_order,
    minkowski_bound,
    principal_generator,
    principal_ideal,
    trivial_class,
    unit_ideal,
)
from zdcert.polynomials import IntPoly
from zdcert.quadratic import QuadElement, is_prime, is_squarefree, prime_divisors

from test_quadratic import real_sign

O10 = maximal_order(10)


# ---------------------------------------------------------------------------
# independent class-number oracles working purely with binary quadratic forms
# ---------------------------------------------------------------------------


def h_imaginary_by_forms(disc: int) -> int:
    """Count reduced positive definite forms of fundamental discriminant disc < 0."""
    assert disc < 0
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a:
                continue
            if a == c and b < 0:
                continue
            count += 1
        a += 1
    return count


def _reduced_indefinite(a: int, b: int, disc: int) -> bool:
    # |sqrt(disc) - 2|a|| < b < sqrt(disc), all comparisons exact
    if b <= 0 or b * b >= disc:
        return False
    if (2 * abs(a) + b) ** 2 <= disc:
        return False
    t = 2 * abs(a) - b
    return t <= 0 or t * t < disc


def _rho_indefinite(a: int, b: int, c: int, disc: int) -> tuple[int, int, int]:
    s = isqrt(disc)
    r = (-b) % (2 * abs(c))
    b2 = s - ((s - r) % (2 * abs(c)))
    return c, b2, (b2 * b2 - disc) // (4 * c)


def narrow_h_by_form_cycles(disc: int) -> int:
    """Count rho-cycles of reduced indefinite forms: the narrow class number."""
    assert disc > 0
    forms = set()
    for b in range(1, isqrt(disc) + 1):
        if (disc - b * b) % 4:
            continue
        m = (disc - b * b) // 4  # = -a*c > 0
        for a in range(1, m + 1):
            if m % a:
                continue
            for aa in (a, -a):
                if _reduced_indefinite(aa, b, disc):
                    forms.add((aa, b, (b * b - disc) // (4 * aa)))
    cycles = 0
    todo = set(forms)
    while todo:
        start = todo.pop()
        cycles += 1
        f = _rho_indefinite(*start, disc)
        while f != start:
            todo.discard(f)
            f = _rho_indefinite(*f, disc)
    return cycles


def wide_h_by_forms(order) -> int:
    if order.disc < 0:
        return h_imaginary_by_forms(order.disc)
    h_plus = narrow_h_by_form_cycles(order.disc)
    if fundamental_unit(order).norm() == -1:
        return h_plus
    assert h_plus % 2 == 0
    return h_plus // 2


def ideals_of_norm_up_to(order, bound: int):
    """All primitive integral ideals of norm <= bound (every class is hit
    once bound reaches the Minkowski bound)."""
    for a in range(1, bound + 1):
        for b in range(a):
            if order.norm_b_plus_omega(b) % a == 0:
                yield FracIdeal(order, a, b)


def h_by_pairwise_equivalence(order) -> int:
    """Partition all ideals of norm <= the Minkowski bound by equivalence tests."""
    reps: list[FracIdeal] = []
    for ideal in ideals_of_norm_up_to(order, minkowski_bound(order)):
        if not any(is_principal(ideal * rep.conjugate()) for rep in reps):
            reps.append(ideal)
    return max(len(reps), 1)


def fundamental_discriminants(limit: int):
    for d in range(-limit, limit + 1):
        if d in (0, 1) or not is_squarefree(d):
            continue
        disc = d if d % 4 == 1 else 4 * d
        if abs(disc) <= limit:
            yield maximal_order(d)


# ---------------------------------------------------------------------------
# orders and ideals
# ---------------------------------------------------------------------------


def test_maximal_order_examples():
    assert O10.disc == 40 and O10.omega() == QuadElement(10, 0, 1)
    o5 = maximal_order(5)
    assert o5.disc == 5 and o5.omega() == QuadElement(5, Fraction(1, 2), Fraction(1, 2))
    om5 = maximal_order(-5)
    assert om5.disc == -20 and om5.omega() == QuadElement(-5, 0, 1)


def test_maximal_order_rejects_bad_d():
    for bad in (0, 1, 12, -4):
        with pytest.raises(ValueError):
            maximal_order(bad)


def test_ideal_normal_form_validation():
    FracIdeal(O10, 2, 0)
    FracIdeal(O10, 3, 1)
    with pytest.raises(ValueError):
        FracIdeal(O10, 7, 1)  # 7 does not divide 1 - 10
    with pytest.raises(ValueError):
        FracIdeal(O10, -2, 0)
    with pytest.raises(ValueError):
        FracIdeal(O10, 2, 0, 0)


def test_ideal_mul_examples():
    ramified = FracIdeal(O10, 2, 0)
    assert ramified * ramified == FracIdeal(O10, 1, 0, 2)  # (2, sqrt10)^2 = (2)
    anything = FracIdeal(O10, 3, 1, Fraction(5, 7))
    assert anything * unit_ideal(O10) == anything
    assert FracIdeal(O10, 3, 1).norm() == 3
    assert ramified.norm() == 2
    assert (ramified * ramified).norm() == 4


def test_mixed_orders_rejected():
    with pytest.raises(MismatchError):
        FracIdeal(O10, 2, 0) * FracIdeal(maximal_order(2), 2, 0)


def _random_ideal(rng, order, max_a=40, scaled=False):
    while True:
        a = rng.randint(1, max_a)
        bs = [b for b in range(a) if order.norm_b_plus_omega(b) % a == 0]
        if bs:
            scale = Fraction(rng.randint(1, 6), rng.randint(1, 6)) if scaled else Fraction(1)
            return FracIdeal(order, a, rng.choice(bs), scale)


def test_ideal_norm_multiplicative_random():
    rng = random.Random(20260820)
    for d in (10, 2, 79, -5, -23):
        order = maximal_order(d)
        for _ in range(500):
            i1 = _random_ideal(rng, order, scaled=True)
            i2 = _random_ideal(rng, order, scaled=True)
            assert (i1 * i2).norm() == i1.norm() * i2.norm()


def test_ideal_multiplication_ring_laws():
    rng = random.Random(20260825)
    for d in (10, -5, 13):
        order = maximal_order(d)
        for _ in range(60):
            i1, i2, i3 = (_random_ideal(rng, order, scaled=True) for _ in range(3))
            assert i1 * i2 == i2 * i1
            assert (i1 * i2) * i3 == i1 * (i2 * i3)


def _contains(ideal, alpha) -> bool:
    # solve alpha = x + y*w = s*(m*a + n*(b+w)) over the integers
    x, y = ideal.order.to_coords(alpha)
    n = y / ideal.scale
    m = (x / ideal.scale - n * ideal.b) / ideal.a
    return n.denominator == 1 and m.denominator == 1


def _sample_fields(rng) -> list[int]:
    """10 imaginary and 10 real squarefree d with |d| <= 4000."""
    negative = [d for d in range(-4000, 0) if is_squarefree(d)]
    positive = [d for d in range(2, 4001) if is_squarefree(d)]
    return rng.sample(negative, 10) + rng.sample(positive, 10)


def test_ideal_contains_its_generator_products():
    # the generator products span I1 * I2 over Z, so the product ideal contains
    # them; with the right norm it is no larger, which pins it down
    rng = random.Random(20261018)
    for d in [10, -5] + _sample_fields(rng):
        order = maximal_order(d)
        for _ in range(40):
            i1 = _random_ideal(rng, order, max_a=200, scaled=True)
            i2 = _random_ideal(rng, order, max_a=200, scaled=True)
            product = i1 * i2
            assert product.norm() == i1.norm() * i2.norm(), (d, i1, i2)
            for g1 in i1.generators():
                for g2 in i2.generators():
                    assert _contains(product, g1 * g2), (d, i1, i2)


def test_principal_ideal_contains_its_generator_with_its_norm():
    # alpha in the ideal gives (alpha) inside it, and equal norms give equality
    rng = random.Random(20261019)
    for d in [10, -5, -1, -3, 5, 13] + _sample_fields(rng):
        order = maximal_order(d)
        for bound in (1, 3, 100, 10**6):
            for _ in range(15):
                x = Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
                y = Fraction(rng.randint(-bound, bound), rng.randint(1, 12))
                if x == y == 0:
                    continue
                alpha = order.from_coords(x, y)
                ideal = principal_ideal(order, alpha)
                assert _contains(ideal, alpha), (d, alpha)
                assert ideal.norm() == abs(alpha.norm()), (d, alpha)


def test_unsupported_operands_raise_type_error():
    ideal, poly, x = FracIdeal(O10, 2, 0), IntPoly((1, 1)), QuadElement(10, 1, 1)
    free = FreeMonoid(("a",))
    ring = basis_element(free, free.element(a=1))
    for product in (lambda: ideal * 2.5, lambda: 2.5 * ideal, lambda: ideal * "x",
                    lambda: ideal_class(ideal) * 2, lambda: ideal_class(ideal) * ideal,
                    lambda: poly * 2.5, lambda: poly + 2, lambda: x / "x", lambda: x / 2.5,
                    lambda: x - "x", lambda: 2.5 - x,
                    lambda: ring + 2, lambda: ring * 2.5, lambda: ring * "x"):
        with pytest.raises(TypeError):
            product()


def test_ideal_times_conjugate_is_norm():
    rng = random.Random(20260821)
    for d in (10, -5, 13):
        order = maximal_order(d)
        for _ in range(100):
            ideal = _random_ideal(rng, order)
            assert ideal * ideal.conjugate() == unit_ideal(order) * ideal.norm()


def test_principal_ideal_construction():
    alpha = QuadElement(10, 1, 1)
    ideal = principal_ideal(O10, alpha)
    assert ideal == FracIdeal(O10, 9, 1)
    assert ideal.norm() == abs(alpha.norm())
    # fractional generator
    half = principal_ideal(O10, QuadElement(10, Fraction(1, 2), 0))
    assert half == FracIdeal(O10, 1, 0, Fraction(1, 2))
    with pytest.raises(ValueError):
        principal_ideal(O10, QuadElement(10, 0, 0))


def test_principality_examples():
    assert not is_principal(FracIdeal(O10, 2, 0))  # x^2 - 10 y^2 = +-2 impossible mod 5
    assert not is_principal(FracIdeal(O10, 3, 1))
    gen_ideal = principal_ideal(O10, QuadElement(10, 3, 1))
    assert is_principal(gen_ideal)
    # 3 + sqrt(10) is a unit, so the ideal is the whole order
    assert gen_ideal == unit_ideal(O10)
    witness = principal_generator(gen_ideal)
    assert witness is not None and principal_ideal(O10, witness) == gen_ideal


def test_principal_generator_witnesses_random():
    rng = random.Random(20260822)
    for d in (10, 2, 15, -5, -23):
        order = maximal_order(d)
        for _ in range(60):
            x = rng.randint(-9, 9)
            y = rng.randint(-9, 9)
            alpha = order.from_coords(x, y)
            if alpha.is_zero():
                continue
            ideal = principal_ideal(order, alpha)
            witness = principal_generator(ideal)
            assert witness is not None
            assert principal_ideal(order, witness) == ideal


def generator_by_norm_search(ideal, eps: int):
    """Independent principality oracle for a primitive ideal I = (a, b + w), given
    an integer eps at least the fundamental unit (1 when imaginary): coordinates
    (u, y) of some u + y*w = x*a + y*(b + w) of norm +-a, hence a generator of I,
    or None.  Units move any generator until both of its embeddings are at most
    sqrt(a * eps), which bounds |y| by sqrt(a) * (eps + 1); for each such y,
    N(u + y*w) = +-a is the quadratic (2u + y tr w)^2 = D y^2 +- 4a in u."""
    order, a, b = ideal.order, ideal.a, ideal.b
    bound = (isqrt(a) + 1) * (eps + 1)
    for y in range(-bound, bound + 1):
        for rhs in (order.disc * y * y + 4 * a, order.disc * y * y - 4 * a):
            r = isqrt(max(rhs, 0))
            if r * r != rhs:
                continue
            for twice_u in (r - order.omega_trace * y, -r - order.omega_trace * y):
                if twice_u % 2 == 0 and (twice_u // 2 - y * b) % a == 0:
                    return twice_u // 2, y
    return None


def test_principality_matches_norm_equation_search(monkeypatch):
    muls = 0
    multiply = QuadElement.__mul__

    def counting(self, other):
        nonlocal muls
        muls += 1
        return multiply(self, other)

    monkeypatch.setattr(QuadElement, "__mul__", counting)
    outcomes = set()
    for d in (2, 3, 5, 6, 7, 10, 15, 79, 82, 130, -5, -21, -23):
        order = maximal_order(d)
        # eps < 2 Re(eps) + 1, since its conjugate is +-1/eps
        eps = int(2 * pell_fundamental(d).a) + 1 if d > 0 else 1
        for ideal in ideals_of_norm_up_to(order, 60):
            found = generator_by_norm_search(ideal, eps)
            assert is_principal(ideal) == (found is not None), (d, ideal)
            muls = 0
            gen = principal_generator(ideal)
            if found is None:
                assert gen is None, (d, ideal)
                # a nonprincipal ideal is decided on its reduced form, with no element arithmetic
                assert muls == 0, (d, ideal)
            else:
                assert principal_ideal(order, order.from_coords(*found)) == ideal
                assert gen is not None and principal_ideal(order, gen) == ideal, (d, ideal)
            outcomes.add((d > 0, found is not None))
    assert outcomes == {(True, True), (True, False), (False, True), (False, False)}


def imaginary_generator_by_search(ideal):
    """Independent generator search for an imaginary ideal, or None: the form (a, b)
    of the primitive ideal represents 1 at some (x, y) with (2ax + by)^2 = 4a + D y^2,
    found by trying every |y| <= sqrt(4a/|D|), least y first and for each y the
    larger x; then x*a + y*(b_I + w) generates the primitive ideal.  Its time grows
    like sqrt(a), so it serves only small ideals."""
    order = ideal.order
    a, b = ideal.a, 2 * ideal.b + order.omega_trace
    m = isqrt(4 * a // -order.disc)
    for y in range(-m, m + 1):
        rhs = 4 * a + order.disc * y * y
        s = isqrt(rhs)
        for num in (s - b * y, -s - b * y):
            if s * s == rhs and num % (2 * a) == 0:
                return ideal.scale * order.from_coords(num // 2 + y * ideal.b, y)
    return None


def test_imaginary_generator_matches_the_search():
    principal = 0
    for d in (-1, -2, -3, -5, -7, -11, -15, -19, -21, -23, -30, -43, -163):
        order = maximal_order(d)
        for ideal in ideals_of_norm_up_to(order, 399):
            found = imaginary_generator_by_search(ideal)
            assert principal_generator(ideal) == found, (d, ideal)
            principal += found is not None
    assert principal == 2172


def test_scaled_ideals_keep_principality_class():
    ideal = FracIdeal(O10, 2, 0, Fraction(3, 7))
    assert not is_principal(ideal)
    scaled_unit = FracIdeal(O10, 1, 0, Fraction(5, 2))
    gen = principal_generator(scaled_unit)
    assert gen == QuadElement(10, Fraction(5, 2))
    # imaginary case with a rational scale
    om5 = maximal_order(-5)
    assert principal_generator(FracIdeal(om5, 1, 0, Fraction(3, 2))) == QuadElement(-5, Fraction(3, 2))
    assert not is_principal(FracIdeal(om5, 2, 1, Fraction(7, 3)))


def test_reduction_handles_states_beyond_sqrt_disc():
    # ideals whose theta starts with b_D^2 > D push the continued fraction
    # through negative intermediate denominators; (13, 7 + sqrt10) is one
    ideal = FracIdeal(O10, 13, 7)
    assert not is_principal(ideal)  # x^2 - 10 y^2 = +-13 impossible mod 5
    assert ideal_class(ideal) == ideal_class(FracIdeal(O10, 2, 0))  # h = 2
    conj = ideal.conjugate()
    assert conj == FracIdeal(O10, 13, 6)
    assert is_principal(ideal * conj)  # their product is (13)
    big = principal_ideal(O10, QuadElement(10, 1, 31))  # norm 1 - 9610
    gen = principal_generator(big)
    assert gen is not None and principal_ideal(O10, gen) == big


def test_equivalent_ideals_same_class():
    rng = random.Random(20260823)
    for d in (10, 79, -5, -23):
        order = maximal_order(d)
        for _ in range(40):
            ideal = _random_ideal(rng, order)
            x, y = rng.randint(-6, 6), rng.randint(-6, 6)
            alpha = order.from_coords(x, y)
            if alpha.is_zero():
                continue
            assert ideal_class(ideal) == ideal_class(ideal * alpha)
            assert ideal_class(ideal) == ideal_class(ideal * Fraction(3, 5))


def test_class_equality_matches_equivalence_test():
    rng = random.Random(20260824)
    for d in (10, -23, 15):
        order = maximal_order(d)
        ideals = [_random_ideal(rng, order, max_a=25) for _ in range(12)]
        for i1 in ideals:
            for i2 in ideals:
                same = ideal_class(i1) == ideal_class(i2)
                assert same == is_principal(i1 * i2.conjugate())


def test_class_group_examples():
    cg10 = class_group(O10)
    assert cg10.invariants == (2,) and cg10.h == 2
    nontrivial = cg10.nontrivial_classes()[0]
    assert nontrivial.rep == FracIdeal(O10, 2, 0)
    assert (nontrivial * nontrivial).is_trivial

    cg2 = class_group(maximal_order(2))
    assert cg2.invariants == () and cg2.h == 1
    assert minkowski_bound(maximal_order(2)) < 2

    cgm5 = class_group(maximal_order(-5))
    assert cgm5.h == 2 and cgm5.invariants == (2,)


def test_class_group_respects_bound():
    # every order refuses |d| > 10^6, before the trial division of its squarefree test
    with pytest.raises(ValueError, match="exceeds the bound"):
        class_group(maximal_order(1000003))
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the bound"):
        class_group(maximal_order(1000000000000000003))
    assert time.perf_counter() - t0 < 1


def test_prime_ideals_above_match_brute_scan():
    primes = [p for p in range(2, 400) if all(p % f for f in range(2, p))]
    for d in range(-500, 501):
        if d in (0, 1) or not is_squarefree(d):
            continue
        order = maximal_order(d)
        tr, n = order.omega_trace, order.omega_norm
        for p in primes:
            brute = [b for b in range(p) if (b * b + tr * b + n) % p == 0]  # p | N(b + w)
            assert _ideals_above_prime(order, p) == [FracIdeal(order, p, b) for b in brute], (d, p)


def _primes_below(n: int) -> list[int]:
    return [p for p in range(2, n) if all(p % f for f in range(2, isqrt(p) + 1))]


def test_prime_ideals_above_match_brute_scan_for_large_fields():
    # every prime below 1400, which covers the Minkowski bound 1333 of |d| <= 10^6; among
    # them 257, 641, 769 and 1153, where p - 1 has a power of 2 that runs the Tonelli-Shanks loop
    rng = random.Random(20261021)
    fields = []
    for center in (10**6, -(10**6), 2 * 10**4, -2 * 10**4):
        near = [d for d in range(center - 3000, center + 3001) if abs(d) <= 10**6 and is_squarefree(d)]
        fields += rng.sample(near, 4)
    assert max(minkowski_bound(maximal_order(d)) for d in fields) < 1400
    for d in fields:
        order = maximal_order(d)
        tr, n = order.omega_trace, order.omega_norm
        for p in _primes_below(1400):
            brute = [b for b in range(p) if (b * b + tr * b + n) % p == 0]
            assert _ideals_above_prime(order, p) == [FracIdeal(order, p, b) for b in brute], (d, p)


def test_sqrt_mod_matches_brute_force():
    from zdcert.orders import _sqrt_mod

    for p in _primes_below(600)[1:]:
        roots: dict[int, set[int]] = {}
        for x in range(p):
            roots.setdefault(x * x % p, set()).add(x)
        assert len(roots) == (p + 1) // 2
        for n, xs in roots.items():
            assert _sqrt_mod(n, p) in xs, (n, p)


def _xgcd_reference(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a, b) >= 0 and x, y with a x + b y = g, by the extended Euclidean algorithm."""
    x, next_x, y, next_y = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
    return (a, x, y) if a >= 0 else (-a, -x, -y)


def _compose_by_xgcd(disc: int, f: tuple[int, int], g: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """Test-local Dirichlet composition (Cohen, Alg. 5.4.7) through two extended gcds, for every a1, a2."""
    (a1, b1), (a2, b2) = f, g
    s = (b1 + b2) // 2
    d, y1, _ = _xgcd_reference(a2, a1)
    e, x2, y2 = _xgcd_reference(s, d)
    v1, v2 = a1 // e, a2 // e
    r = (y1 * y2 * (s - b2) - x2 * ((b2 * b2 - disc) // (4 * a2))) % v1
    return (v1 * v2, b2 + 2 * v2 * r), e


def test_compose_matches_the_xgcd_composition():
    from zdcert.orders import _compose

    rng = random.Random(20261022)
    seen = set()
    for d in [-5, -23, -3315, 10, 79, 1155] + _sample_fields(rng):
        disc = maximal_order(d).disc
        # the primitive forms (a, b), -a < b <= a, of the fundamental discriminant disc
        forms = [(a, b) for a in range(1, 120) for b in range(-a + 1, a + 1) if (b * b - disc) % (4 * a) == 0]
        pairs = [(rng.choice(forms), rng.choice(forms)) for _ in range(300)]
        pairs += [(forms[0], g) for g in rng.sample(forms, 20)] + [(f, f) for f in rng.sample(forms, 20)]
        for f, g in pairs:
            assert _compose(disc, f, g) == _compose_by_xgcd(disc, f, g), (disc, f, g)
            seen.add((disc > 0, gcd(f[0], g[0]) == 1, f[0] == 1, f[0] == g[0]))
    for real in (True, False):
        assert {(real, True, True, False), (real, False, False, False), (real, False, False, True)} <= seen


def test_prime_ideal_splitting():
    # 3 splits in Z[sqrt(10)]: two primes with b in {1, 2}
    split = _ideals_above_prime(O10, 3)
    assert sorted(i.b for i in split) == [1, 2]
    # 2 ramifies: one prime
    assert [i.b for i in _ideals_above_prime(O10, 2)] == [0]
    # 7 is inert
    assert _ideals_above_prime(O10, 7) == []


def test_fundamental_unit_examples():
    u10 = fundamental_unit(O10)
    assert u10 == QuadElement(10, 3, 1) and u10.norm() == -1
    assert fundamental_unit(maximal_order(2)) == QuadElement(2, 1, 1)
    u3 = fundamental_unit(maximal_order(3))
    assert u3 == QuadElement(3, 2, 1) and u3.norm() == 1
    assert fundamental_unit(maximal_order(5)) == QuadElement(5, Fraction(1, 2), Fraction(1, 2))
    assert fundamental_unit(maximal_order(19)) == QuadElement(19, 170, 39)
    with pytest.raises(ValueError):
        fundamental_unit(maximal_order(-5))


def pell_fundamental(d: int) -> QuadElement:
    """Independent oracle: scan y upward for the least solution of the unit norm
    equation (x^2 - d y^2 = +-4 in half coordinates when d = 1 mod 4, else +-1)."""
    targets = (-4, 4) if d % 4 == 1 else (-1, 1)
    y = 1
    while True:
        hits = []
        for t in targets:
            x2 = d * y * y + t
            if x2 <= 0:
                continue
            x = isqrt(x2)
            if x * x == x2 and (d % 4 != 1 or (x - y) % 2 == 0):
                if d % 4 == 1:
                    hits.append(QuadElement(d, Fraction(x, 2), Fraction(y, 2)))
                else:
                    hits.append(QuadElement(d, x, y))
        if hits:
            return min(hits, key=lambda u: (u.a, u.b))
        y += 1


def test_fundamental_unit_matches_pell_oracle():
    for d in (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23, 26, 29, 33, 62):
        assert fundamental_unit(maximal_order(d)) == pell_fundamental(d), d


def unit_by_fraction_walk(order) -> tuple[Fraction, Fraction]:
    """Test-local oracle: the coordinates (a, b) of the product of the complete quotients
    (p + sqrt(D)) / q = p/q + (c/q) sqrt(d), c = 1 or 2, of the continued fraction of w,
    multiplied in Fraction coordinates, from the unit ideal's (tr w, 2) up to the next
    state with q = 2."""
    disc, d = order.disc, order.d
    c, s = (1 if d % 4 == 1 else 2), isqrt(disc)
    p, q = order.omega_trace, 2
    a, b = Fraction(1), Fraction(0)
    while True:
        k = (p + s) // q if q > 0 else -((p + s) // -q) - 1  # floor((p + sqrt(D)) / q)
        p = k * q - p
        q = (disc - p * p) // q
        ta, tb = Fraction(p, q), Fraction(c, q)
        a, b = a * ta + d * b * tb, a * tb + b * ta
        if q == 2:
            return a, b


def test_fundamental_unit_matches_the_fraction_walk():
    fields = [d for d in range(2, 2001) if is_squarefree(d)] + [999961, 999983]
    for d in fields:
        unit = fundamental_unit(maximal_order(d))
        assert (unit.a, unit.b) == unit_by_fraction_walk(maximal_order(d)), d
        assert type(unit.a) is Fraction and type(unit.b) is Fraction
    assert len(fields) == 1216


def test_fundamental_unit_makes_no_element_products(monkeypatch):
    # the walk multiplies complete quotients as integers and builds one element at the end
    muls = 0
    multiply = QuadElement.__mul__

    def counting(self, other):
        nonlocal muls
        muls += 1
        return multiply(self, other)

    monkeypatch.setattr(QuadElement, "__mul__", counting)
    unit = fundamental_unit(maximal_order(999961))
    assert muls == 0 and abs(unit.norm()) == 1


def principal_ideal_by_fractions(order, alpha):
    """Test-local copy of the Fraction version of principal_ideal: the coordinates
    of alpha over (1, w), their content gcd(numerators) / lcm(denominators), and the
    ideal of the primitive part."""
    x, y = (alpha.a - alpha.b, 2 * alpha.b) if order.d % 4 == 1 else (alpha.a, alpha.b)
    content = Fraction(gcd(x.numerator, y.numerator), lcm(x.denominator, y.denominator))
    x, y = int(x / content), int(y / content)
    a = abs(x * x + order.omega_trace * x * y + order.omega_norm * y * y)
    return FracIdeal(order, a, x * pow(y, -1, a), content)


def test_principal_ideal_matches_the_fraction_version():
    rng = random.Random(20261021)
    # both signs of d, and d = 1 and d != 1 mod 4 for each
    for d in (-7, -5, -3, -1, 2, 3, 5, 10, 13, 17, 21, 79, -23, -10):
        order = maximal_order(d)
        for _ in range(300):
            alpha = QuadElement(d, Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
                                Fraction(rng.randint(-60, 60), rng.randint(1, 12)))
            if alpha.is_zero():
                continue
            expected = (alpha.a - alpha.b, 2 * alpha.b) if d % 4 == 1 else (alpha.a, alpha.b)
            assert order.to_coords(alpha) == expected
            assert principal_ideal(order, alpha) == principal_ideal_by_fractions(order, alpha), (d, alpha)
    with pytest.raises(MismatchError, match=r"^element of Q\(sqrt\(3\)\) used with order of Q\(sqrt\(10\)\)$"):
        principal_ideal(O10, QuadElement(3, 1, 1))


def test_fundamental_unit_minimality_brute_force_box():
    # nothing with bounded coordinates can sit strictly between 1 and the unit
    for d in (2, 3, 5, 6, 7, 10, 13, 21):
        order = maximal_order(d)
        u = fundamental_unit(order)
        for x in range(-60, 61):
            for y in range(-60, 61):
                v = order.from_coords(x, y)
                if abs(v.norm()) == 1 and real_sign(v - 1) > 0:
                    assert real_sign(u - v) <= 0, (d, v)


def test_class_numbers_against_form_oracles_small():
    for order in fundamental_discriminants(60):
        assert class_group(order).h == wide_h_by_forms(order), order.disc


def test_class_numbers_against_pairwise_oracle_small():
    for order in fundamental_discriminants(60):
        assert class_group(order).h == h_by_pairwise_equivalence(order), order.disc


def test_known_class_numbers():
    known = {-163: 1, -23: 3, -5: 2, -15: 2, -1: 1, -3: 1, 5: 1, 2: 1, 10: 2, 15: 2, 79: 3}
    for d, h in known.items():
        assert class_group(maximal_order(d)).h == h, d


def test_class_group_structure_z3():
    # disc -23 has class group Z/3: check invariants and generator order
    cg = class_group(maximal_order(-23))
    assert cg.invariants == (3,)
    c = cg.nontrivial_classes()[0]
    assert not (c * c).is_trivial and (c * c * c).is_trivial


def test_class_group_noncyclic():
    # disc -84: class group Z/2 x Z/2
    cg = class_group(maximal_order(-21))
    assert cg.invariants == (2, 2)
    assert all((c * c).is_trivial for c in cg.classes)


def test_invariants_match_torsion_counts_by_powering():
    # an abelian group with invariants (n_i) has prod gcd(m, n_i) elements
    # killed by m; count them by direct powering, independently of the closure
    orders = list(fundamental_discriminants(300))
    orders += [maximal_order(d) for d in (-3315, 1155, 4279)]
    for order in orders:
        cg = class_group(order)
        for m in range(1, cg.h + 1):
            if cg.h % m:
                continue
            killed = sum(1 for c in cg.classes if (c ** m).is_trivial)
            expected = 1
            for n in cg.invariants:
                expected *= gcd(m, n)
            assert killed == expected, (order.disc, m, cg.invariants)
    assert class_group(maximal_order(-3315)).invariants == (2, 2, 2)
    assert class_group(maximal_order(1155)).invariants == (2, 2, 2)
    assert class_group(maximal_order(4279)).invariants == (6,)


def test_two_rank_matches_genus_theory_imaginary():
    # Gauss: for disc < 0 the 2-rank of the class group is omega(disc) - 1
    for d in range(-3000, -1):
        if not is_squarefree(d):
            continue
        order = maximal_order(d)
        even = sum(1 for n in class_group(order).invariants if n % 2 == 0)
        assert even == len(prime_divisors(-order.disc)) - 1, d


def test_class_group_multiplies_once_per_new_class(monkeypatch):
    calls = 0
    multiply = FracIdeal.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(FracIdeal, "__mul__", counting)
    for d, invariants in ((-18185, (2, 80)), (999961, (3,)), (4279, (6,))):
        calls = 0
        cg = class_group(maximal_order(d))
        assert cg.invariants == invariants
        # classes are composed as forms (counted in the next test), never as ideal products
        assert calls == 0, d


def test_class_group_composes_once_per_new_class(monkeypatch):
    from zdcert import orders

    calls = 0
    compose = orders._compose

    def counting(disc, f, g):
        nonlocal calls
        calls += 1
        return compose(disc, f, g)

    monkeypatch.setattr(orders, "_compose", counting)
    for d, invariants in ((-18185, (2, 80)), (999961, (3,)), (4279, (6,))):
        calls = 0
        cg = class_group(maximal_order(d))
        assert cg.invariants == invariants
        assert 0 < calls <= cg.h + cg.h.bit_length(), d


def test_form_composition_matches_ideal_product():
    # the reduced composed form is the class of I * J (whose normal form
    # test_ideal_contains_its_generator_products checks independently)
    from zdcert import orders

    rng = random.Random(20261018)
    for d in _sample_fields(rng):
        order = maximal_order(d)
        for _ in range(40):
            i1, i2 = _random_ideal(rng, order, max_a=200), _random_ideal(rng, order, max_a=200)
            form, _ = orders._compose(order.disc, orders._form_of(i1), orders._form_of(i2))
            product = i1 * i2
            composed = orders._class_of(order, orders._reduced(order, form, {}))
            assert composed == ideal_class(product) == ideal_class(i1) * ideal_class(i2), (d, i1, i2)


def test_class_group_classes_match_fresh_reductions_real():
    # class_group shares its cycle states across reductions; a fresh public
    # ideal_class of every ideal up to the Minkowski bound must give the same set
    for d in [d for d in range(2, 2001) if is_squarefree(d)] + [100003, 999961]:
        order = maximal_order(d)
        cg = class_group(order)
        fresh = {ideal_class(i) for i in ideals_of_norm_up_to(order, minkowski_bound(order))}
        assert fresh == set(cg.classes), order.d


def test_conjugate_prime_class_is_inverse():
    for d in (10, 79, 1155, 4279, 19999, -23, -3315, -18185):
        order = maximal_order(d)
        for p in range(2, minkowski_bound(order) + 1):
            if not is_prime(p):
                continue
            above = _ideals_above_prime(order, p)
            if len(above) == 2:
                first, second = above
                assert first.conjugate() == second
                assert ideal_class(first.conjugate()) == ideal_class(first).inverse() == ideal_class(second)


def test_class_group_reduces_one_ideal_per_prime_and_each_state_once(monkeypatch):
    from zdcert import orders

    reductions, steps = 0, []
    reduced, cf_step = orders._reduced, orders._cf_step

    def counting_reduced(order, form, seen):
        nonlocal reductions
        reductions += 1
        return reduced(order, form, seen)

    def recording_cf_step(*args):
        steps.append(args[:2])
        return cf_step(*args)

    monkeypatch.setattr(orders, "_reduced", counting_reduced)
    monkeypatch.setattr(orders, "_cf_step", recording_cf_step)
    for d, invariants in ((-18185, (2, 80)), (999961, (3,)), (4279, (6,))):
        order = maximal_order(d)
        primes = [p for p in range(2, minkowski_bound(order) + 1)
                  if is_prime(p) and _ideals_above_prime(order, p)]
        reductions, steps = 0, []
        cg = class_group(order)
        assert cg.invariants == invariants
        # one reduction per prime with an ideal above it, plus one per coset product
        assert len(primes) <= reductions <= len(primes) + cg.h + cg.h.bit_length(), d
        assert len(steps) == len(set(steps)), d


def test_class_power_zero_is_the_trivial_class_without_a_cycle_walk(monkeypatch):
    from zdcert import orders

    order = maximal_order(999961)
    g = class_group(order).nontrivial_classes()[0]
    walked = ideal_class(unit_ideal(order))  # the principal cycle's least ideal
    steps = 0
    cf_step = orders._cf_step

    def counting_cf_step(*args):
        nonlocal steps
        steps += 1
        return cf_step(*args)

    monkeypatch.setattr(orders, "_cf_step", counting_cf_step)
    assert g ** 0 == trivial_class(order) == walked
    assert steps == 0


def _strictly_between(lo: int, hi: int, disc: int) -> bool:
    """Whether lo < sqrt(disc) < hi, for a nonsquare disc > 0, by comparing squares."""
    return (lo < 0 or lo * lo < disc) and hi > 0 and hi * hi > disc


def test_cf_step_matches_the_square_comparison_oracle():
    # seeded states (p, q) with q | D - p^2, of both signs of q, over fundamental
    # discriminants D = d (d = 1 mod 4) and D = 4d up to 4*10^6
    from zdcert.orders import _cf_step

    rng = random.Random(27)
    kinds, signs = set(), set()
    for _ in range(600):
        d = rng.randint(2, 4 * 10 ** rng.randint(0, 6))
        disc = d if d % 4 == 1 else 4 * d
        if disc > 4 * 10**6 or not is_squarefree(d):
            continue
        p = rng.randint(-4000, 4000)
        m = abs(disc - p * p)
        divisors = [f for f in range(1, isqrt(m) + 1) if m % f == 0]
        q = rng.choice(divisors + [m // f for f in divisors]) * rng.choice((1, -1))
        kinds.add(disc % 4)
        signs.add(q > 0)
        p1, q1 = _cf_step(p, q, disc, isqrt(disc))
        assert q * q1 == disc - p1 * p1, (disc, p, q)
        assert (p + p1) % q == 0, (disc, p, q)
        # a = (p + p1)/q has a <= (p + sqrt D)/q < a + 1 iff sqrt D lies strictly (D is
        # not a square) between a q - p = p1 and (a + 1) q - p = p1 + q
        assert _strictly_between(min(p1, p1 + q), max(p1, p1 + q), disc), (disc, p, q)
    assert kinds == {0, 1} and signs == {True, False}


def test_cf_walks_take_the_root_of_the_discriminant_once(monkeypatch):
    # isqrt(D) once per walk, not once per step: taken per step, the counts would be
    # at least the 278 and 647 steps of these two walks
    from zdcert import orders

    counts = dict.fromkeys(("isqrt", "_cf_step"), 0)
    for name in counts:
        def counting(*args, _name=name, _fn=getattr(orders, name)):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(orders, name, counting)
    for d, walk in ((19999, class_group), (999961, fundamental_unit)):
        order = maximal_order(d)
        counts.update(isqrt=0, _cf_step=0)
        walk(order)
        assert 0 < counts["isqrt"] < counts["_cf_step"], (d, counts)
    assert counts["isqrt"] == 1  # the unit's one walk


def test_trivial_class_and_inverse():
    cg = class_group(O10)
    c = cg.nontrivial_classes()[0]
    assert trivial_class(O10).is_trivial
    assert (c * c.inverse()).is_trivial
    assert c ** -1 == c.inverse()
    assert c ** 2 == trivial_class(O10)


def test_ideal_text_writes_omega_as_the_order_does():
    # FracIdeal.__str__ writes ω from d, without building order.omega()
    for d in range(-300, 301):
        if d not in (0, 1) and is_squarefree(d):
            order = maximal_order(d)
            assert str(FracIdeal(order, 1, 0)) == f"1Z + (0 + {order.omega()})Z", d


def test_ideals_built_from_forms_pass_validation():
    # class ideals, generator (prime) ideals and ideal products skip FracIdeal's checks;
    # each must pass them
    rng = random.Random(20261019)
    for d in [d for d in range(-400, 401) if d not in (0, 1) and is_squarefree(d)] + [-18185, 4279]:
        order = maximal_order(d)
        cg = class_group(order)
        products = [c * g for c in cg.classes for g in cg.classes[:3]]
        ideals = [c.rep for c in (*cg.classes, *products, trivial_class(order))] + list(cg.generators)
        for _ in range(5):
            ideals.append(_random_ideal(rng, order, scaled=True) * _random_ideal(rng, order))
        for ideal in ideals:
            assert FracIdeal(ideal.order, ideal.a, ideal.b, ideal.scale) == ideal, (d, ideal)
            assert type(ideal.scale) is Fraction and 0 <= ideal.b < ideal.a


def _gauss_reduce_reference(a: int, b: int, disc: int) -> tuple[int, int]:
    """Test-local oracle: Gauss reduction of a positive definite form, without the change of basis."""
    while True:
        b += 2 * a * ((a - b) // (2 * a))  # -a < b <= a
        c = (b * b - disc) // (4 * a)
        if a <= c:
            return a, -b if a == c and b < 0 else b
        a, b = c, -b


def test_reduce_form_returns_the_reduced_form_and_a_primitive_representation():
    from zdcert.orders import _reduce_form

    rng = random.Random(20261020)
    forms = [(2, -1, 2), (1, -1, 1), (3, -3, 5), (1, 1, 1), (1, 0, 1)]
    for _ in range(1500):
        a, c = rng.randint(1, 10**4), rng.randint(1, 10**4)
        forms.append((a, rng.randint(-isqrt(4 * a * c - 1), isqrt(4 * a * c - 1)), c))
    # unimodular images of the principal forms of discriminants -3 and -4, and of random forms
    for start in [(1, 1, 1), (1, 0, 1)] * 100 + forms[5:205]:
        a, b, c = start
        for _ in range(rng.randint(1, 12)):
            k = rng.randint(-50, 50)
            a, b, c = a * k * k + b * k + c, -(b + 2 * a * k), a  # (X, Y) -> (X + kY, Y), then (-Y, X)
        forms.append((a, b, c))
    for a, b, c in forms:
        disc = b * b - 4 * a * c
        ra, rb, x, y = _reduce_form(a, b, disc)
        assert (ra, rb) == _gauss_reduce_reference(a, b, disc), (a, b, c)
        assert a * x * x + b * x * y + c * y * y == ra and gcd(x, y) == 1, (a, b, c)
    assert sum(b * b - 4 * a * c in (-3, -4) for a, b, c in forms) >= 200
    # a = c with b < 0 ends with (X, Y) -> (-Y, X), whose first column is M's second
    assert _reduce_form(2, -1, -15) == (2, 1, 0, 1)
