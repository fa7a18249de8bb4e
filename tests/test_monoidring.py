import random

import pytest

from zdcert.errors import MismatchError
from zdcert.monoidring import (
    AVMonoid,
    FreeMonoid,
    MonoidRingElement,
    ProjectiveSpace,
    albanese_image,
    basis_element,
    ring_zero,
    zero_divisor_witness,
)
from zdcert.orders import class_group, maximal_order, trivial_class
from zdcert.steinitz import ModuleClass, free_module, zero_module

O10 = maximal_order(10)
CG10 = class_group(O10)
TRIV = trivial_class(O10)
NONTRIV = CG10.nontrivial_classes()[0]
AV = AVMonoid("A", O10)
FREE = FreeMonoid(("g", "h"))


def _e(monoid, elem):
    return basis_element(monoid, elem)


def test_basis_multiplication_is_monoid_operation():
    g = FREE.element(g=1)
    h = FREE.element(h=1)
    gh = FREE.element(g=1, h=1)
    assert _e(FREE, g) * _e(FREE, h) == _e(FREE, gh)
    a1 = AV.element(free_module(O10, 1))
    assert _e(AV, a1) * _e(AV, a1) == _e(AV, AV.element(free_module(O10, 2)))


def test_zero_annihilates():
    x = _e(FREE, FREE.element(g=2)) - 3 * _e(FREE, FREE.element(h=1))
    assert (x * ring_zero(FREE)).is_zero()
    assert (x - x).is_zero()


def test_canonical_form_soundness():
    x = MonoidRingElement.build(FREE, {FREE.element(g=1): 2, FREE.element(h=1): -1})
    y = _e(FREE, FREE.element(g=1)) * 2 - _e(FREE, FREE.element(h=1))
    assert x == y and x.terms == y.terms
    # zero coefficients are never stored
    z = MonoidRingElement.build(FREE, {FREE.element(g=1): 0})
    assert z.is_zero() and z.terms == ()


def test_mixed_monoids_rejected():
    other = FreeMonoid(("g", "h", "k"))
    with pytest.raises(MismatchError):
        _e(FREE, FREE.element(g=1)) + _e(other, other.element(g=1))
    with pytest.raises(ValueError):
        basis_element(FREE, (1, 2, 3))
    with pytest.raises(ValueError, match="^generator names must be distinct$"):
        FreeMonoid(("g", "g"))
    with pytest.raises(ValueError, match=r"^unknown generators: \['h'\]$"):
        FreeMonoid(("g",)).element(h=1)
    with pytest.raises(ValueError, match="^exponents must be nonnegative$"):
        FREE.element(g=-1)
    with pytest.raises(TypeError, match="^coefficients must be integers$"):
        MonoidRingElement.build(FREE, {FREE.element(g=1): 1.5})
    with pytest.raises(MismatchError, match="^module class lives over a different order$"):
        AV.element(free_module(maximal_order(2), 1))


def _random_free_element(rng):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        elem = FREE.element(g=rng.randint(0, 3), h=rng.randint(0, 3))
        terms[elem] = rng.randint(-5, 5)
    return MonoidRingElement.build(FREE, terms)


def _random_av_element(rng, classes):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        rank = rng.randint(0, 4)
        module = zero_module(O10) if rank == 0 else ModuleClass(rank, rng.choice(classes))
        terms[AV.element(module)] = rng.randint(-5, 5)
    return MonoidRingElement.build(AV, terms)


def test_ring_axioms_free_monoid_random():
    rng = random.Random(20260850)
    one = _e(FREE, FREE.identity())
    for _ in range(1000):
        x, y, z = (_random_free_element(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * one == x
        assert (x + (-x)).is_zero()


def test_ring_axioms_av_monoid_random():
    rng = random.Random(20260851)
    classes = list(CG10.classes)
    one = _e(AV, AV.identity())
    for _ in range(1000):
        x, y, z = (_random_av_element(rng, classes) for _ in range(3))
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x * one == x


def test_no_zero_divisors_in_free_monoid_random():
    rng = random.Random(20260852)
    for _ in range(500):
        x, y = _random_free_element(rng), _random_free_element(rng)
        if x.is_zero() or y.is_zero():
            continue
        assert not (x * y).is_zero()


def test_no_zero_divisors_in_rank_graded_submonoid():
    # elements supported on (n, trivial) classes only: free rank grading
    rng = random.Random(20260853)
    for _ in range(500):
        def rand():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                terms[AV.element(free_module(O10, rng.randint(0, 5)))] = rng.randint(-4, 4)
            return MonoidRingElement.build(AV, terms)

        x, y = rand(), rand()
        if x.is_zero() or y.is_zero():
            continue
        assert not (x * y).is_zero()


def test_witness_golden():
    e_a = _e(AV, AV.element(free_module(O10, 1)))
    e_b = _e(AV, AV.element(ModuleClass(1, NONTRIV)))
    report = zero_divisor_witness(e_a + e_b, e_a - e_b)
    assert report.accepted
    assert report.product_canonical == "0"
    # and the raw computation: (e_a + e_b)(e_a - e_b) = e_{2,triv} - e_{2,triv}
    assert ((e_a + e_b) * (e_a - e_b)).is_zero()


def test_witness_refusals():
    e_a = _e(AV, AV.element(free_module(O10, 1)))
    zero = ring_zero(AV)
    assert zero_divisor_witness(zero, e_a).reason == "first factor is zero"
    assert zero_divisor_witness(e_a, zero).reason == "second factor is zero"
    e_g = _e(FREE, FREE.element(g=1))
    e_h = _e(FREE, FREE.element(h=1))
    report = zero_divisor_witness(e_g + e_h, e_g - e_h)
    assert not report.accepted and report.reason.startswith("product is nonzero")
    # the nonzero product is e_{g^2} - e_{h^2}
    expected = _e(FREE, FREE.element(g=2)) - _e(FREE, FREE.element(h=2))
    assert (e_g + e_h) * (e_g - e_h) == expected
    with pytest.raises(MismatchError):
        zero_divisor_witness(e_a, e_g)


def test_albanese_image_examples():
    a_module = free_module(O10, 1)
    b_module = ModuleClass(1, NONTRIV)
    # P^n factors vanish
    assert albanese_image(AV, [a_module, ProjectiveSpace(3)]) == _e(AV, AV.element(a_module))
    assert albanese_image(AV, [a_module]) == _e(AV, AV.element(a_module))
    # products multiply through
    image = albanese_image(AV, [a_module, b_module])
    assert image == _e(AV, AV.element(ModuleClass(2, NONTRIV)))
    # empty product is the class of a point
    assert albanese_image(AV, []) == _e(AV, AV.identity())
    with pytest.raises(ValueError):
        albanese_image(AV, ["junk"])
    with pytest.raises(ValueError, match="^projective space dimension cannot be negative$"):
        ProjectiveSpace(-1)


def test_albanese_image_is_monoid_homomorphism_random():
    rng = random.Random(20260854)
    classes = list(CG10.classes)

    def random_factors():
        out = []
        for _ in range(rng.randint(0, 4)):
            if rng.random() < 0.4:
                out.append(ProjectiveSpace(rng.randint(0, 5)))
            else:
                out.append(ModuleClass(rng.randint(1, 3), rng.choice(classes)))
        return out

    for _ in range(500):
        u, v = random_factors(), random_factors()
        assert albanese_image(AV, u) * albanese_image(AV, v) == albanese_image(AV, u + v)


def test_string_rendering_is_canonical():
    e_a = _e(AV, AV.element(free_module(O10, 1)))
    e_b = _e(AV, AV.element(ModuleClass(1, NONTRIV)))
    x = e_a + e_b
    y = e_b + e_a
    assert str(x) == str(y)
    assert str(ring_zero(AV)) == "0"
