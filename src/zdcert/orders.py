"""Maximal quadratic orders: fractional ideals, units, principality, class groups.

An order is Z[w] with w = (1+sqrt(d))/2 for d = 1 mod 4 and w = sqrt(d)
otherwise.  A fractional ideal is stored in two-generator normal form

    I = s * (Z*a + Z*(b + w)),   s a positive rational, a > 0, 0 <= b < a,

which is unique per ideal.  The real-quadratic reduction operator is the
continued-fraction step on the quadratic irrational (b_D + sqrt(D)) / (2a),
tracked exactly through (P, Q) integer pairs; principality, canonical class
representatives and fundamental units all come out of its cycle structure.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod
from typing import Iterator, Sequence

from .errors import MismatchError, ResourceLimitError
from .quadratic import QuadElement, Rat, _Value, _check_d, _element, binary_power, is_prime

_MAX_STEPS = 1_000_000


class QuadOrder(_Value):
    """The maximal order of Q(sqrt(d))."""

    __slots__ = ("d", "disc")

    def __init__(self, d: int):
        object.__setattr__(self, "d", _check_d(d))
        object.__setattr__(self, "disc", d if d % 4 == 1 else 4 * d)

    # _Value's field-tuple hash, spelled out for speed: each ideal's and class's hash includes it
    def __hash__(self):
        return hash((self.d, self.disc))

    @property
    def is_real(self) -> bool:
        return self.d > 0

    def omega(self) -> QuadElement:
        if self.d % 4 == 1:
            return _element(self.d, Fraction(1, 2), Fraction(1, 2))
        return _element(self.d, 0, 1)

    @property
    def omega_trace(self) -> int:
        return 1 if self.d % 4 == 1 else 0

    @property
    def omega_norm(self) -> int:
        return (1 - self.d) // 4 if self.d % 4 == 1 else -self.d

    def norm_b_plus_omega(self, b: int) -> int:
        return b * b + self.omega_trace * b + self.omega_norm

    def mul_coords(self, v: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
        """Product of x1 + y1*w and x2 + y2*w in the (1, w) basis."""
        x1, y1 = v
        x2, y2 = w
        return (x1 * x2 - self.omega_norm * y1 * y2, x1 * y2 + x2 * y1 + self.omega_trace * y1 * y2)

    def to_coords(self, x: QuadElement) -> tuple[Fraction, Fraction]:
        if x.d != self.d:
            raise MismatchError(f"element of Q(sqrt({x.d})) used with order of Q(sqrt({self.d}))")
        if self.d % 4 == 1:
            return (x.a - x.b, 2 * x.b)
        return (x.a, x.b)

    def from_coords(self, x: Rat, y: Rat) -> QuadElement:
        return _element(self.d, x) + Fraction(y) * self.omega()

    def contains(self, x: QuadElement) -> bool:
        cx, cy = self.to_coords(x)
        return cx.denominator == 1 and cy.denominator == 1


def maximal_order(d: int) -> QuadOrder:
    return QuadOrder(d)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


class FracIdeal(_Value):
    __slots__ = ("order", "a", "b", "scale")

    def __init__(self, order: QuadOrder, a: int, b: int, scale: Rat = 1):
        scale = Fraction(scale)
        if a <= 0:
            raise ValueError(f"ideal parameter a must be positive, got {a}")
        if scale <= 0:
            raise ValueError(f"ideal scale must be positive, got {scale}")
        b %= a
        if order.norm_b_plus_omega(b) % a != 0:
            raise ValueError(f"({a}, {b} + ω) is not an ideal: {a} does not divide N({b} + ω)")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "scale", scale)

    # _Value's field-tuple equality and hash, spelled out for speed: class groups key by classes
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.order, self.a, self.b, self.scale) == (other.order, other.a, other.b, other.scale)

    def __hash__(self):
        return hash((self.order, self.a, self.b, self.scale))

    def _same_order(self, other: "FracIdeal") -> None:
        if self.order != other.order:
            raise MismatchError("ideals live over different orders")

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.a

    def is_integral(self) -> bool:
        return self.scale.denominator == 1

    def primitive_part(self) -> "FracIdeal":
        return FracIdeal(self.order, self.a, self.b)

    def generators(self) -> tuple[QuadElement, QuadElement]:
        w = self.order.omega()
        return (self.scale * _element(self.order.d, self.a),
                self.scale * (_element(self.order.d, self.b) + w))

    def __mul__(self, other: "FracIdeal | QuadElement | Rat") -> "FracIdeal":
        if isinstance(other, (int, Fraction)):
            if other <= 0:
                raise ValueError("ideal scaling requires a positive rational")
            return FracIdeal(self.order, self.a, self.b, self.scale * other)
        if isinstance(other, QuadElement):
            return self * principal_ideal(self.order, other)
        self._same_order(other)
        o = self.order
        gens = [
            (self.a * other.a, 0),
            (self.a * other.b, self.a),
            (other.a * self.b, other.a),
            o.mul_coords((self.b, 1), (other.b, 1)),
        ]
        return ideal_from_generators(o, gens, self.scale * other.scale)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "FracIdeal":
        if n < 0:
            raise ValueError("negative ideal powers are not supported; use conjugate()")
        return binary_power(self, n, unit_ideal(self.order))

    def conjugate(self) -> "FracIdeal":
        tr = self.order.omega_trace
        return ideal_from_generators(
            self.order, [(self.a, 0), (self.b + tr, -1)], self.scale
        )

    def __str__(self) -> str:
        w = self.order.omega()
        inner = f"{self.a}Z + ({self.b} + {w})Z"
        return inner if self.scale == 1 else f"({self.scale})({inner})"


def ideal_from_generators(
    order: QuadOrder, gens: Sequence[tuple[int, int]], scale: Rat = 1
) -> FracIdeal:
    """Normal form of the Z-module spanned by x + y*w generators (must be an ideal)."""
    g_y, wx = 0, 0
    for x, y in gens:
        if y:
            g_new, s, t = _xgcd(g_y, y)
            wx = s * wx + t * x
            g_y = g_new
    if g_y == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    xs = [x - (y // g_y) * wx for x, y in gens]
    g_x = 0
    for x in xs:
        g_x = gcd(g_x, x)
    if g_x == 0:
        raise ValueError("generators do not span a rank-2 lattice")
    # an O-stable lattice factors as content * primitive ideal
    if g_x % g_y or wx % g_y:
        raise ValueError("generator lattice is not stable under the order")
    a = g_x // g_y
    b = (wx // g_y) % a
    return FracIdeal(order, a, b, Fraction(scale) * g_y)


def unit_ideal(order: QuadOrder) -> FracIdeal:
    return FracIdeal(order, 1, 0)


def principal_ideal(order: QuadOrder, alpha: QuadElement) -> FracIdeal:
    if alpha.is_zero():
        raise ValueError("the zero element generates no fractional ideal")
    x, y = order.to_coords(alpha)
    m = x.denominator * y.denominator // gcd(x.denominator, y.denominator)
    bx, by = int(x * m), int(y * m)
    gens = [(bx, by), order.mul_coords((bx, by), (0, 1))]
    return ideal_from_generators(order, gens, Fraction(1, m))


# ---------------------------------------------------------------------------
# Continued-fraction reduction on real quadratic ideals.
#
# The primitive ideal (a, b + w) corresponds to theta = (P + sqrt(D)) / Q with
# P = 2b + tr(w) and Q = 2a; the ideal condition is exactly 2Q | D - P^2, and
# one checks this is preserved by the continued-fraction step, so every state
# below is again an ideal.
# ---------------------------------------------------------------------------


def _floor_quadratic(p: int, q: int, d: int) -> int:
    """floor((p + sqrt(d)) / q) for nonsquare d > 0 and q != 0."""
    s = isqrt(d)
    if q > 0:
        return (p + s) // q
    return -((p + s) // -q) - 1


def _cf_step(order: QuadOrder, p: int, q: int) -> tuple[int, int]:
    dd = order.disc
    a = _floor_quadratic(p, q, dd)
    p1 = a * q - p
    q1 = (dd - p1 * p1) // q
    return p1, q1


def _theta(order: QuadOrder, p: int, q: int) -> QuadElement:
    # (p + sqrt(D)) / q expressed over sqrt(d)
    root_coeff = 2 if order.d % 4 != 1 else 1
    return _element(order.d, Fraction(p, q), Fraction(root_coeff, q))


def _state_of(ideal: FracIdeal) -> tuple[int, int]:
    return (2 * ideal.b + ideal.order.omega_trace, 2 * ideal.a)


def is_principal(ideal: FracIdeal) -> bool:
    return principal_generator(ideal) is not None


def principal_generator(ideal: FracIdeal) -> QuadElement | None:
    """A generator alpha with (alpha) = I, or None when I is not principal."""
    order = ideal.order
    if not order.is_real:
        alpha = _imaginary_generator(ideal)
    else:
        alpha = _real_generator(ideal)
    if alpha is not None:
        assert principal_ideal(order, alpha) == ideal
    return alpha


def _real_generator(ideal: FracIdeal) -> QuadElement | None:
    order = ideal.order
    p, q = _state_of(ideal.primitive_part())
    multiplier = _element(order.d, 1)
    if q == 2:
        return _element(order.d, ideal.scale * ideal.a)
    seen = {(p, q)}
    for _ in range(_MAX_STEPS):
        p, q = _cf_step(order, p, q)
        multiplier = multiplier * _theta(order, p, q)
        if q == 2:
            return _element(order.d, ideal.scale * ideal.a) / multiplier
        if (p, q) in seen:
            return None
        seen.add((p, q))
    raise ResourceLimitError("principality test failed to terminate")


def _imaginary_generator(ideal: FracIdeal) -> QuadElement | None:
    order = ideal.order
    prim = ideal.primitive_part()
    a, b, c = _form_of(prim)
    ra, _, _ = _reduce_form(a, b, c, order.disc)
    if ra != 1:
        return None
    # the associated positive form represents 1; such (x, y) gives the generator
    for y in range(-isqrt(4 * a // abs(order.disc)) - 1, isqrt(4 * a // abs(order.disc)) + 2):
        rhs = 4 * a + order.disc * y * y
        if rhs < 0:
            continue
        s = isqrt(rhs)
        if s * s != rhs:
            continue
        for sgn in (s, -s):
            num = sgn - b * y
            if num % (2 * a):
                continue
            x = num // (2 * a)
            alpha = ideal.scale * (
                x * _element(order.d, prim.a)
                + y * (_element(order.d, prim.b) + order.omega())
            )
            if not alpha.is_zero():
                return alpha
    raise AssertionError("reduced form is principal but no generator was found")


def _form_of(ideal: FracIdeal) -> tuple[int, int, int]:
    """The integral binary quadratic form N(a*x + (b+w)*y) / a of discriminant D."""
    order = ideal.order
    a = ideal.a
    bd = 2 * ideal.b + order.omega_trace
    c = order.norm_b_plus_omega(ideal.b) // a
    return a, bd, c


def _reduce_form(a: int, b: int, c: int, disc: int) -> tuple[int, int, int]:
    """Gauss reduction of a positive definite form (disc < 0)."""
    while True:
        if b <= -a or b > a:
            k = (a - b) // (2 * a)
            b = b + 2 * a * k
            c = (b * b - disc) // (4 * a)
        if a > c:
            a, b, c = c, -b, a
            continue
        if a == c and b < 0:
            b = -b
        return a, b, c


# ---------------------------------------------------------------------------
# Ideal classes and the class group.
# ---------------------------------------------------------------------------


class IdealClass(_Value):
    """An ideal class, identified by a canonical reduced representative.

    Real case: the cycle ideal minimizing (norm, a, b); imaginary case: the
    ideal of the Gauss-reduced form.  Equal representatives characterize
    equivalent ideals.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: FracIdeal):
        object.__setattr__(self, "rep", rep)

    def __eq__(self, other):  # spelled out as for FracIdeal
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash((self.rep,))

    @property
    def order(self) -> QuadOrder:
        return self.rep.order

    @property
    def is_trivial(self) -> bool:
        return self.rep.a == 1

    def key(self) -> tuple[int, int]:
        return (self.rep.a, self.rep.b)

    def __mul__(self, other: "IdealClass") -> "IdealClass":
        if self.order != other.order:
            raise MismatchError("ideal classes live over different orders")
        return ideal_class(self.rep * other.rep)

    def __pow__(self, n: int) -> "IdealClass":
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, trivial_class(self.order))

    def inverse(self) -> "IdealClass":
        return ideal_class(self.rep.conjugate())

    def __str__(self) -> str:
        return f"[{self.rep}]"


def ideal_class(ideal: FracIdeal) -> IdealClass:
    return _class_of(ideal, {})


def _class_of(ideal: FracIdeal, seen: dict[tuple[int, int], IdealClass]) -> IdealClass:
    """The class of ideal (its scale is ignored).

    Real case: walk the continued-fraction states until one is in seen or
    the walk closes a new cycle, whose least (a, b) = (q/2, ((p mod q) -
    tr w)/2) is the representative; every state walked is then recorded in
    seen with the class, since each step keeps the class.
    """
    order = ideal.order
    if not order.is_real:
        a, b, c = _form_of(ideal)
        ra, rb, _ = _reduce_form(a, b, c, order.disc)
        return IdealClass(FracIdeal(order, ra, ((rb % (2 * ra)) - order.omega_trace) // 2))
    state = _state_of(ideal)
    path: dict[tuple[int, int], int] = {}
    while state not in seen and state not in path:
        if len(path) > _MAX_STEPS:
            raise ResourceLimitError("reduction orbit failed to close")
        path[state] = len(path)
        state = _cf_step(order, *state)
    cls = seen.get(state)
    if cls is None:
        tr = order.omega_trace
        cycle = islice(path, path[state], None)
        cls = IdealClass(FracIdeal(order, *min((q // 2, ((p % q) - tr) // 2) for p, q in cycle)))
    seen.update(dict.fromkeys(path, cls))
    return cls


def trivial_class(order: QuadOrder) -> IdealClass:
    return IdealClass(unit_ideal(order))


# ---------------------------------------------------------------------------
# Fundamental units.
# ---------------------------------------------------------------------------


def fundamental_unit(order: QuadOrder) -> QuadElement:
    """Smallest unit > 1, from the continued fraction of w; |norm| = 1.

    The trajectory starts at the unit ideal; the first return to an ideal
    with a = 1 multiplies the successive complete quotients into the unit.
    """
    if not order.is_real:
        raise ValueError("fundamental units exist only for real quadratic orders")
    p, q = order.omega_trace, 2
    unit = _element(order.d, 1)
    for _ in range(_MAX_STEPS):
        p, q = _cf_step(order, p, q)
        unit = unit * _theta(order, p, q)
        if q == 2:
            assert abs(unit.norm()) == 1
            return unit
    raise ResourceLimitError("fundamental unit computation failed to terminate")


# ---------------------------------------------------------------------------
# Class group.
# ---------------------------------------------------------------------------


class ClassGroup(_Value):
    __slots__ = ("order", "invariants", "classes", "generators")

    @property
    def h(self) -> int:
        n = 1
        for k in self.invariants:
            n *= k
        return n

    def nontrivial_classes(self) -> tuple[IdealClass, ...]:
        return tuple(c for c in self.classes if not c.is_trivial)

    def __str__(self) -> str:
        if not self.invariants:
            return "trivial"
        return " x ".join(f"Z/{n}" for n in self.invariants)


def minkowski_bound(order: QuadOrder) -> int:
    """Integer bound covering sqrt(D)/2 (real) or (2/pi)*sqrt(|D|) (imaginary)."""
    if order.is_real:
        return isqrt(order.disc) // 2
    # 2/3 > 2/pi, so this slightly over-generates primes, which is harmless
    return (2 * isqrt(-order.disc)) // 3 + 1


def prime_ideals_above(order: QuadOrder, p: int) -> list[FracIdeal]:
    """Degree-one prime ideals over p: empty when p is inert."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p > 2 and pow(order.disc, (p - 1) // 2, p) == p - 1:
        return []  # Euler's criterion: disc is a non-residue, so p is inert
    b = next((b for b in range(p) if order.norm_b_plus_omega(b) % p == 0), None)
    if b is None:
        return []
    # the roots of x^2 + tr(w) x + N(w) mod p sum to -tr(w)
    return [FracIdeal(order, p, r) for r in sorted({b, (-order.omega_trace - b) % p})]


def class_group(order: QuadOrder) -> ClassGroup:
    """Structure of Pic(O) from the norm <= Minkowski-bound prime ideals.

    Each generator class g not yet reached extends the group H reached so far
    by the cosets H*g, H*g^2, ... until g^n lies in H: one multiplication per
    new class.  Each stop gives a relation row n*e_g - (digits of g^n in H);
    the rows form a triangular matrix of determinant h, whose Smith-form
    diagonal is the invariants.

    Works for any fundamental discriminant; QuadOrder's cap |d| <= CLASS_GROUP_BOUND
    keeps the prime enumeration and reduction cycles at desk scale.
    """
    above = [prime_ideals_above(order, p) for p in range(2, minkowski_bound(order) + 1) if is_prime(p)]
    gens = [i for ideals in above for i in ideals]

    # every continued-fraction state walked in this call, with its class
    seen: dict[tuple[int, int], IdealClass] = {}

    def times(x: IdealClass, g: IdealClass) -> IdealClass:
        return _class_of(x.rep * g.rep, seen)

    # elems[i] is the product of g_j^(e_j), e = the digits of i in radices n_j
    elems = [trivial_class(order)]
    index = {elems[0]: 0}
    radices: list[int] = []
    relations: list[list[int]] = []
    # the conjugate prime's class is the inverse, in H once the first one is
    for g in dict.fromkeys(_class_of(ideals[0], seen) for ideals in above if ideals):
        if g in index:
            continue
        size = len(elems)
        while (head := times(elems[-size], g)) not in index:
            for c in [head] + [times(x, g) for x in elems[len(elems) - size + 1:]]:
                index[c] = len(elems)
                elems.append(c)
        row, pos = [], index[head]
        for n in radices:
            pos, digit = divmod(pos, n)
            row.append(-digit)
        radices.append(len(elems) // size)
        relations.append(row + [radices[-1]])

    invariants = _smith_invariants([row + [0] * (len(radices) - len(row)) for row in relations])
    assert prod(invariants) == len(elems)
    ordered = tuple(sorted(elems, key=IdealClass.key))
    return ClassGroup(order, invariants, ordered, tuple(gens))


def _smith_invariants(m: list[list[int]]) -> tuple[int, ...]:
    """The Smith normal form diagonal entries != 1 of a nonsingular square
    integer matrix (consumed), ascending: each divides the next."""
    out: list[int] = []
    while m:
        # a pass that does not retire its pivot leaves a smaller nonzero entry
        _, i, j = min((abs(x), i, j) for i, row in enumerate(m) for j, x in enumerate(row) if x)
        p = m[i][j]
        for row in m[:i] + m[i + 1:]:
            q = row[j] // p
            row[:] = [x - q * y for x, y in zip(row, m[i])]
        for l, q in enumerate([x // p for x in m[i]]):
            if l != j:
                for row in m:
                    row[l] -= q * row[j]
        if any(row[j] for row in m[:i] + m[i + 1:]) or any(m[i][:j] + m[i][j + 1:]):
            continue
        bad = next((row for row in m if any(x % p for x in row)), None)
        if bad is None:
            out.append(abs(p))
            m = [row[:j] + row[j + 1:] for row in m[:i] + m[i + 1:]]
        else:
            # add that row to row i, then reduce row i modulo the pivot column
            m[i] = [p if l == j else x % p for l, x in enumerate(bad)]
    return tuple(n for n in out if n != 1)


def ideals_of_norm_up_to(order: QuadOrder, bound: int) -> Iterator[FracIdeal]:
    """All primitive integral ideals of norm <= bound (every class is hit
    once bound reaches the Minkowski bound)."""
    for a in range(1, bound + 1):
        for b in range(a):
            if order.norm_b_plus_omega(b) % a == 0:
                yield FracIdeal(order, a, b)
