"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and time bound is asserted, not just printed.
"""

import copy
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from zdcert.cli import bundled_dataset_path, main as cli_main
from zdcert.errors import InvalidEigenvalueError
from zdcert.monoidring import AVMonoid, FreeMonoid, MonoidRingElement, basis_element, zero_divisor_witness
from zdcert.orders import (
    FracIdeal,
    class_group,
    ideal_class,
    is_principal,
    maximal_order,
    principal_generator,
    principal_ideal,
    trivial_class,
    unit_ideal,
)
from zdcert.polynomials import IntPoly, discriminant
from zdcert.quadratic import QuadElement
from zdcert.steinitz import ModuleClass, direct_sum, free_module, tensor_av, zero_module
from zdcert.weil import (
    certify_reduction,
    deduce_endomorphism_ring,
    distinct_fields_certificate,
    endomorphism_stability,
    frobenius_charpoly,
)

from test_orders import (
    fundamental_discriminants,
    h_by_pairwise_equivalence,
    wide_h_by_forms,
)

_MODULE_T0 = time.perf_counter()


def _report(number, ok, text):
    print(f"\nACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_golden_charpoly():
    a17 = QuadElement(10, 4, -1)
    expected = IntPoly((289, -136, 40, -8, 1))
    quartic = frobenius_charpoly(a17, 17)
    elapsed = min(_time_once(lambda: frobenius_charpoly(a17, 17)) for _ in range(3))
    ok = quartic.poly == expected and elapsed < 0.010
    _report(1, ok, f"frobenius_charpoly(4-sqrt10, 17) = x^4-8x^3+40x^2-136x+289 in {elapsed*1000:.3f} ms")


def _time_once(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_2_class_numbers():
    t0 = time.perf_counter()
    cg40 = class_group(maximal_order(10))
    assert cg40.invariants == (2,) and cg40.h == 2
    cg_m20 = class_group(maximal_order(-5))
    assert cg_m20.h == 2
    checked = 0
    for order in fundamental_discriminants(200):
        h = class_group(order).h
        assert h == wide_h_by_forms(order), f"form oracle disagrees at disc {order.disc}"
        assert h == h_by_pairwise_equivalence(order), f"pairwise oracle disagrees at disc {order.disc}"
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 100 and elapsed < 30
    _report(2, ok, f"disc 40 -> Z/2, disc -20 -> order 2, both oracles agree on "
                   f"{checked} fundamental discriminants with |disc| <= 200 in {elapsed:.1f} s")


def test_criterion_3_nonprincipality():
    t0 = time.perf_counter()
    order = maximal_order(10)
    assert not is_principal(FracIdeal(order, 2, 0))
    assert not is_principal(FracIdeal(order, 3, 1))
    witnessed = principal_ideal(order, QuadElement(10, 3, 1))
    gen = principal_generator(witnessed)
    assert gen is not None and principal_ideal(order, gen) == witnessed
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1
    _report(3, ok, f"(2, sqrt10), (3, 1+sqrt10) nonprincipal; (3+sqrt10) principal "
                   f"with recovered generator, in {elapsed*1000:.0f} ms")


def test_criterion_4_reduction_pipeline():
    t0 = time.perf_counter()
    cert17 = certify_reduction(QuadElement(10, 4, -1), 17, bound=12)
    cert19 = certify_reduction(QuadElement(10, 2, 1), 19, bound=12)
    assert cert17.irreducible and cert19.irreducible
    assert cert17.ordinary and cert19.ordinary  # gcd(40,17)=1, gcd(32,19)=1
    assert cert17.stability.stable and cert19.stability.stable
    distinct = distinct_fields_certificate(cert17.quartic, cert19.quartic)
    assert distinct == "distinct"
    conclusion = deduce_endomorphism_ring(10, cert17, cert19, distinct, conductor=1)  # √10-parts -1, 1
    assert "Z[√10]" in conclusion.conclusion
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5
    _report(4, ok, f"irreducibility, shape, ordinarity, stability at B=12, distinctness, "
                   f"and End = Z[sqrt10] deduction in {elapsed:.2f} s")


def test_criterion_5_zero_divisor_witness():
    t0 = time.perf_counter()
    order = maximal_order(10)
    nontrivial = class_group(order).nontrivial_classes()[0]
    av = AVMonoid("A", order)
    e_a = basis_element(av, av.element(free_module(order, 1)))
    e_b = basis_element(av, av.element(ModuleClass(1, nontrivial)))
    report = zero_divisor_witness(e_a + e_b, e_a - e_b)
    assert report.accepted and report.product_canonical == "0"
    free = FreeMonoid(("g", "h"))
    e_g = basis_element(free, free.element(g=1))
    e_h = basis_element(free, free.element(h=1))
    refusal = zero_divisor_witness(e_g + e_h, e_g - e_h)
    assert not refusal.accepted and "nonzero" in refusal.reason
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1
    _report(5, ok, f"witness accepted in Z[AV] (x, y nonzero, xy = 0) and refused over the "
                   f"free monoid, in {elapsed*1000:.0f} ms")


MUTATIONS = [
    (["hecke_field_d"], 2),
    (["hecke_field_d"], 6),
    (["eigenvalues", 0, "a", 0], 5),
    (["eigenvalues", 0, "a", 2], 0),
    (["eigenvalues", 0, "a", 1], 2),
    (["eigenvalues", 1, "a", 2], 0),
    (["eigenvalues", 1, "a", 0], 0),
    (["ideal", "a"], 1),
    (["expected_dim"], 3),
    (["paper_charpoly", 0], 290),
]


def test_criterion_6_end_to_end(tmp_path, capsys):
    t0 = time.perf_counter()
    result = subprocess.run(
        [sys.executable, "-m", "zdcert", "verify", "--bundled"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.count("PASS") >= 10

    dataset = json.loads(bundled_dataset_path().read_text())
    assert len(MUTATIONS) == 10
    for i, (path, value) in enumerate(MUTATIONS):
        raw = copy.deepcopy(dataset)
        target = raw
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        mutated = tmp_path / f"mutated_{i}.json"
        mutated.write_text(json.dumps(raw))
        code = cli_main(["verify", str(mutated)])
        assert code == 1, f"mutation {i} at {path} should fail a check, got exit {code}"
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60
    _report(6, ok, f"bundled dataset: exit 0 with 10/10 checks; all 10 single-scalar "
                   f"mutations exit 1; {elapsed:.1f} s")


def test_criterion_7_property_suites():
    rng = random.Random(20260860)
    order = maximal_order(10)
    cg = class_group(order)
    classes = list(cg.classes)

    # field norm multiplicativity
    for _ in range(500):
        d = rng.choice([2, 10, -5])
        x = QuadElement(d, Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        y = QuadElement(d, Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                        Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        assert (x * y).norm() == x.norm() * y.norm()

    # ideal norm multiplicativity
    def random_ideal(o):
        while True:
            a = rng.randint(1, 30)
            bs = [b for b in range(a) if o.norm_b_plus_omega(b) % a == 0]
            if bs:
                return FracIdeal(o, a, rng.choice(bs))

    for _ in range(500):
        o = maximal_order(rng.choice([10, -5, 13]))
        i1, i2 = random_ideal(o), random_ideal(o)
        assert (i1 * i2).norm() == i1.norm() * i2.norm()

    # ring axioms in both monoid rings
    av = AVMonoid("A", order)
    free = FreeMonoid(("g", "h"))

    def random_av():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            rank = rng.randint(0, 3)
            module = zero_module(order) if rank == 0 else ModuleClass(rank, rng.choice(classes))
            terms[av.element(module)] = rng.randint(-4, 4)
        return MonoidRingElement.build(av, terms)

    def random_free():
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[free.element(g=rng.randint(0, 3), h=rng.randint(0, 3))] = rng.randint(-4, 4)
        return MonoidRingElement.build(free, terms)

    for maker in (random_av, random_free):
        for _ in range(500):
            x, y, z = maker(), maker(), maker()
            assert x * y == y * x
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z

    # direct_sum monoid laws
    def random_module():
        rank = rng.randint(0, 5)
        return zero_module(order) if rank == 0 else ModuleClass(rank, rng.choice(classes))

    for _ in range(500):
        m1, m2, m3 = random_module(), random_module(), random_module()
        assert direct_sum(m1, m2) == direct_sum(m2, m1)
        assert direct_sum(direct_sum(m1, m2), m3) == direct_sum(m1, direct_sum(m2, m3))
        assert direct_sum(zero_module(order), m1) == m1

    # T-injectivity on classes
    for _ in range(500):
        m1, m2 = random_module(), random_module()
        assert (tensor_av(m1, "A") == tensor_av(m2, "A")) == (m1 == m2)

    # discriminant vs product of squared root differences
    for _ in range(500):
        n = rng.randint(2, 4)
        roots = [rng.randint(-8, 8) for _ in range(n)]
        f = IntPoly((1,))
        for r in roots:
            f = f * IntPoly((-r, 1))
        expected = 1
        for i in range(n):
            for j in range(i + 1, n):
                expected *= (roots[i] - roots[j]) ** 2
        assert discriminant(f) == expected

    # stability monotonicity
    checked = 0
    while checked < 500:
        d = rng.choice([2, 3, 10, 13])
        p = rng.choice([3, 5, 7, 11, 13])
        a = QuadElement(d, rng.randint(-6, 6), rng.choice([-2, -1, 1, 2]))
        try:
            quartic = frobenius_charpoly(a, p)
            full = endomorphism_stability(quartic, 4)
        except (InvalidEigenvalueError, ValueError):
            continue
        checked += 1
        for smaller in (2, 3):
            part = endomorphism_stability(quartic, smaller)
            assert part.degrees == full.degrees[: len(part.degrees)]
            if full.stable:
                assert part.stable

    _report(7, True, "norm multiplicativity (field, ideal), ring axioms (both monoids), "
                     "direct_sum laws, T-injectivity, discriminant-root oracle, stability "
                     "monotonicity: >= 500 randomized cases each, zero failures")


def test_acceptance_suite_under_60s():
    elapsed = time.perf_counter() - _MODULE_T0
    _report("6-time", elapsed < 60, f"acceptance suite wall time {elapsed:.1f} s < 60 s")
