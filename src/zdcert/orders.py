"""Maximal quadratic orders: fractional ideals, units, principality, class groups.

An order is Z[w] with w = (1+sqrt(d))/2 for d = 1 mod 4 and w = sqrt(d)
otherwise.  A fractional ideal is stored in two-generator normal form

    I = s * (Z*a + Z*(b + w)),   s a positive rational, a > 0, 0 <= b < a,

which is unique per ideal.  Ideals multiply by composing their primitive
forms (a, b) of discriminant D: the product is the composition's content
times the ideal of the composed form.  The ideal of a generator c*(x + y*w),
c its content, is c*(|N(x + y*w)|, x/y + w), with x, y and c read from the
element's integer numerators over one denominator.  Ideal classes are computed as
reduced forms, composed and reduced (real fields walk the continued fraction
of (b_D + sqrt(D)) / (2a) as exact (P, Q) integer pairs); an ideal is built
only when a class is returned, from its reduced form without FracIdeal's
checks, which such a form passes by construction; the prime ideals up to the
Minkowski bound are the forms (p, r) of the sieved primes p, with r a square root
of D mod p (Tonelli-Shanks, Cohen, Alg. 1.5.1).  An ideal is principal when its
reduced class is trivial; a real ideal's generator and the fundamental unit come
from one walk, the product of complete quotients up to the unit ideal, multiplied
as integers over one denominator; an imaginary ideal's generator comes from Gauss
reduction of its form, carrying the change of basis.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, prod

from .errors import MismatchError, ResourceLimitError
from .quadratic import (QuadElement, Rat, _Value, _check_d, _element, _from_ints, _over_one_denominator,
                        _root_text, binary_power)

_MAX_STEPS = 1_000_000


class QuadOrder(_Value):
    """The maximal order of Q(sqrt(d))."""

    __slots__ = ("d", "disc")

    def __init__(self, d: int):
        super().__init__(_check_d(d), d if d % 4 == 1 else 4 * d)

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

    def to_coords(self, x: QuadElement) -> tuple[Fraction, Fraction]:
        u, v, z = self._int_coords(x)
        return Fraction(u, z), Fraction(v, z)

    def _int_coords(self, x: QuadElement) -> tuple[int, int, int]:
        """Integers (u, v, z), z > 0, with x = (u + v*w) / z: sqrt(d) = 2w - 1 when d = 1 mod 4."""
        if x.d != self.d:
            raise MismatchError(f"element of Q(sqrt({x.d})) used with order of Q(sqrt({self.d}))")
        u, v, z = _over_one_denominator(x)
        return (u - v, 2 * v, z) if self.d % 4 == 1 else (u, v, z)

    def from_coords(self, x: Rat, y: Rat) -> QuadElement:
        return _element(self.d, x) + Fraction(y) * self.omega()


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
            raise ValueError(f"ideal parameter a must be positive, got {_brief(a)}")
        if scale <= 0:
            raise ValueError(f"ideal scale must be positive, got {scale}")
        b %= a
        if order.norm_b_plus_omega(b) % a != 0:
            a, b = _brief(a), _brief(b)
            raise ValueError(f"({a}, {b} + ω) is not an ideal: {a} does not divide N({b} + ω)")
        super().__init__(order, a, b, scale)

    def _same_order(self, other: "FracIdeal") -> None:
        if self.order != other.order:
            raise MismatchError("ideals live over different orders")

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.a

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
        if not isinstance(other, FracIdeal):
            return NotImplemented
        self._same_order(other)
        form, e = _compose(self.order.disc, _form_of(self), _form_of(other))
        return _ideal_of(self.order, form, self.scale * other.scale * e)

    __rmul__ = __mul__

    def conjugate(self) -> "FracIdeal":
        # b + w' = (b + tr w) - w, so the conjugate is (a, -b - tr w + w)
        return FracIdeal(self.order, self.a, -self.b - self.order.omega_trace, self.scale)

    def __str__(self) -> str:
        d = self.order.d
        w = f"1/2 + 1/2{_root_text(d)}" if d % 4 == 1 else _root_text(d)  # str(self.order.omega())
        inner = f"{self.a}Z + ({self.b} + {w})Z"
        return inner if self.scale == 1 else f"({self.scale})({inner})"


def _brief(n: int) -> str:
    """n in decimal, or "<N-digit integer>" when it has more than 30 digits."""
    digits = abs(n).bit_length() * 30102 // 100000  # never above the digit count: 0.30102 < log10(2)
    while 10**digits <= abs(n):
        digits += 1
    return str(n) if digits <= 30 else f"<{digits}-digit integer>"


def unit_ideal(order: QuadOrder) -> FracIdeal:
    return FracIdeal(order, 1, 0)


def principal_ideal(order: QuadOrder, alpha: QuadElement) -> FracIdeal:
    if alpha.is_zero():
        raise ValueError("the zero element generates no fractional ideal")
    # alpha = (x + y*w) / z = c * (x/g + y/g*w) with content c = g/z, g = gcd(x, y); the
    # primitive x + y*w (now divided by g) lies in (a, b + w) with a = |N(x + y*w)| exactly
    # when b = x/y mod a (y is prime to a, and a = 1 when y = 0), and both ideals have norm a
    x, y, z = order._int_coords(alpha)
    g = gcd(x, y)
    x, y = x // g, y // g
    a = abs(x * x + order.omega_trace * x * y + order.omega_norm * y * y)
    return FracIdeal(order, a, x * pow(y, -1, a), Fraction(g, z))


# ---------------------------------------------------------------------------
# Continued-fraction reduction on real quadratic ideals.
#
# The primitive ideal (a, b + w) corresponds to theta = (P + sqrt(D)) / Q with
# P = 2b + tr(w) and Q = 2a; the ideal condition is exactly 2Q | D - P^2, and
# one checks this is preserved by the continued-fraction step, so every state
# below is again an ideal.
# ---------------------------------------------------------------------------


def _cf_step(p: int, q: int, disc: int, root: int) -> tuple[int, int]:
    """The state after (p, q): a = floor((p + sqrt(disc)) / q), p' = a q - p and
    q' = (disc - p'^2) / q, for a nonsquare disc > 0 with root = isqrt(disc) and q != 0."""
    a = (p + root) // q if q > 0 else -((p + root) // -q) - 1
    p1 = a * q - p
    return p1, (disc - p1 * p1) // q


def _quotient_product(order: QuadOrder, p: int, q: int) -> QuadElement:
    """The product of the complete quotients (p_i + sqrt(D)) / q_i of the states
    after (p, q), up to the first with q_i = 2, which only a principal class
    reaches: (q/2) / product then generates the ideal of (p, q), and from the
    unit ideal's (tr w, 2) the product is the fundamental unit.  It is kept as
    integers (x + y sqrt(D)) / z and becomes an element once, at the end."""
    x, y, z = 1, 0, 1
    disc, root = order.disc, isqrt(order.disc)
    for _ in range(_MAX_STEPS):
        p, q = _cf_step(p, q, disc, root)
        x, y, z = x * p + disc * y, x + p * y, z * q
        if q == 2:  # sqrt(D) = sqrt(d), or 2 sqrt(d) when D = 4d
            return _from_ints(order.d, x, y if disc == order.d else 2 * y, z)
    raise ResourceLimitError("continued-fraction walk failed to reach the unit ideal")


def is_principal(ideal: FracIdeal) -> bool:
    return ideal_class(ideal).is_trivial


def principal_generator(ideal: FracIdeal) -> QuadElement | None:
    """A generator alpha with (alpha) = I, or None when I is not principal."""
    return _generator_of(ideal) if is_principal(ideal) else None


def _generator_of(ideal: FracIdeal) -> QuadElement:
    """A generator alpha with (alpha) = I, for an I known to be principal."""
    order = ideal.order
    if not order.is_real:
        alpha = _imaginary_generator(ideal)
    elif ideal.a == 1:
        alpha = _element(order.d, ideal.scale)
    else:
        a, b = _form_of(ideal)
        alpha = _element(order.d, ideal.scale * a) / _quotient_product(order, b, 2 * a)
    assert principal_ideal(order, alpha) == ideal
    return alpha


def _imaginary_generator(ideal: FracIdeal) -> QuadElement:
    """The generator x*a + y*(b + w), times the scale, of a principal imaginary
    ideal, least in (y, -x) among its associates.  Gauss reduction of the ideal's
    form f (_reduce_form) ends at (1, .), and f is 1 at the first column (x, y)
    of its change of basis; so x*a + y*(b + w) has the primitive ideal's norm: it
    generates it, as do its unit multiples."""
    order = ideal.order
    a, b = _form_of(ideal)
    _, _, x, y = _reduce_form(a, b, order.disc)
    # the associates u + v*w, by powers of w, a unit of order 4 or 6, for d = -1 or -3,
    # else by -1
    units = {-1: 4, -3: 6}.get(order.d, 2)
    u, v = x * ideal.a + y * ideal.b, y
    associates = []
    for _ in range(units):
        associates.append((u, v))
        u, v = (-order.omega_norm * v, u + order.omega_trace * v) if units > 2 else (-u, -v)
    # x*a = u - v*b grows with u, so the least (y, -x) is the least (v, -u)
    u, v = min(associates, key=lambda uv: (uv[1], -uv[0]))
    return ideal.scale * order.from_coords(u, v)


def _form_of(ideal: FracIdeal) -> tuple[int, int]:
    """The form N(a x + (b + w) y) / a of the ideal's primitive part, as the pair (a, 2b + tr w):
    (a, b) stands for the primitive form a x^2 + b xy + (b^2 - D)/4a y^2 of discriminant D."""
    return ideal.a, 2 * ideal.b + ideal.order.omega_trace


def _ideal_of(order: QuadOrder, form: tuple[int, int], scale: Fraction = Fraction(1)) -> FracIdeal:
    """scale > 0 (by default one shared Fraction(1)) times the primitive ideal of form
    (see _form_of), without FracIdeal's checks: a form (a, b) of discriminant D has
    b^2 = D mod 4a, so a divides N((b - tr w)/2 + w) and (a, (b - tr w)/2 + w) is an ideal."""
    a, b = form
    # fields set by hand: 0.69 us a call, 1.18 us through _Value.__init__ (CPython 3.11.7, 2-vCPU VM)
    ideal = object.__new__(FracIdeal)
    setfield = object.__setattr__
    setfield(ideal, "order", order)
    setfield(ideal, "a", a)
    setfield(ideal, "b", b // 2 % a)  # b = tr w mod 2, so b // 2 = (b - tr w) / 2
    setfield(ideal, "scale", scale)
    return ideal


def _compose(disc: int, f: tuple[int, int], g: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """Dirichlet composition of the primitive forms f and g of discriminant
    disc, unreduced (Cohen, Alg. 5.4.7): the form (a3, b3) and the content e.
    a3 = a1 a2 / e^2 with e = gcd(a1, a2, (b1 + b2)/2), and b3 = b1 mod 2a1/e,
    b3 = b2 mod 2a2/e, b3^2 = disc mod 4a3.  The product of the primitive
    ideals of f and g is e times the ideal of (a3, b3)."""
    (a1, b1), (a2, b2) = f, g
    s = (b1 + b2) // 2
    if gcd(a1, a2) == 1:  # then e = 1 and r = (s - b2) / a2 mod a1
        return (a1 * a2, b2 + 2 * a2 * ((s - b2) * pow(a2, -1, a1) % a1)), 1
    d, y1, _ = _xgcd(a2, a1)
    e, x2, y2 = _xgcd(s, d)
    v1, v2 = a1 // e, a2 // e
    r = (y1 * y2 * (s - b2) - x2 * ((b2 * b2 - disc) // (4 * a2))) % v1
    return (v1 * v2, b2 + 2 * v2 * r), e


def _reduce_form(a: int, b: int, disc: int) -> tuple[int, int, int, int]:
    """Gauss reduction of a positive definite form f (disc < 0): the reduced form
    (a', b') and the first column (x, y) of the change of basis M, with
    f(M(X, Y)) the reduced form, so f(x, y) = a' and gcd(x, y) = 1."""
    x, y, x2, y2 = 1, 0, 0, 1  # the columns of M
    while True:
        k = (a - b) // (2 * a)  # (X, Y) -> (X + kY, Y) takes b into (-a, a]
        if k:  # often 0: skipping keeps the tracked loop as fast as a bare one
            b += 2 * a * k
            x2 += k * x
            y2 += k * y
        c = (b * b - disc) // (4 * a)
        if a <= c:
            if a == c and b < 0:  # (X, Y) -> (-Y, X) swaps a and c
                return a, -b, x2, y2
            return a, b, x, y
        a, b = c, -b  # (X, Y) -> (-Y, X)
        x, x2 = x2, -x
        y, y2 = y2, -y


def _reduced(order: QuadOrder, form: tuple[int, int], seen: dict) -> tuple[int, int]:
    """The one reduced form of the class of form: Gauss-reduced if imaginary.

    Real case: walk the continued-fraction states from (b mod 2a, 2a) until
    one is in seen or the walk closes a new cycle, whose least (q/2, p mod q)
    is the representative; every state walked is then recorded in seen with
    it, since each step keeps the class.
    """
    a, b = form
    if not order.is_real:
        return _reduce_form(a, b, order.disc)[:2]
    disc, root = order.disc, isqrt(order.disc)
    state = (b % (2 * a), 2 * a)
    path: dict[tuple[int, int], int] = {}
    while state not in seen and state not in path:
        if len(path) > _MAX_STEPS:
            raise ResourceLimitError("reduction orbit failed to close")
        path[state] = len(path)
        state = _cf_step(*state, disc, root)
    rep = seen.get(state)
    if rep is None:
        rep = min((q // 2, p % q) for p, q in islice(path, path[state], None))
    seen.update(dict.fromkeys(path, rep))
    return rep


# ---------------------------------------------------------------------------
# Ideal classes and the class group.
# ---------------------------------------------------------------------------


class IdealClass(_Value):
    """An ideal class, identified by a canonical reduced representative.

    Real case: the cycle ideal minimizing (norm, a, b); imaginary case: the
    ideal of the Gauss-reduced form.  Equal representatives characterize
    equivalent ideals.  Products and inverses compose and reduce forms; a
    product with the trivial class is the other factor.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: FracIdeal):
        # field set by hand: 0.32 us a call, 0.65 us through _Value.__init__ (CPython 3.11.7, 2-vCPU VM)
        object.__setattr__(self, "rep", rep)

    @property
    def order(self) -> QuadOrder:
        return self.rep.order

    @property
    def is_trivial(self) -> bool:
        return self.rep.a == 1

    def key(self) -> tuple[int, int]:
        return (self.rep.a, self.rep.b)

    def __mul__(self, other: "IdealClass") -> "IdealClass":
        if not isinstance(other, IdealClass):
            return NotImplemented
        if self.order != other.order:
            raise MismatchError("ideal classes live over different orders")
        if self.is_trivial:
            return other
        if other.is_trivial:
            return self
        form, _ = _compose(self.order.disc, _form_of(self.rep), _form_of(other.rep))
        return _class_of(self.order, _reduced(self.order, form, {}))

    def __pow__(self, n: int) -> "IdealClass":
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(self, n, trivial_class(self.order))

    def inverse(self) -> "IdealClass":
        # the conjugate ideal's form is (a, -b)
        a, b = _form_of(self.rep)
        return _class_of(self.order, _reduced(self.order, (a, -b), {}))

    def __str__(self) -> str:
        return f"[{self.rep}]"


def ideal_class(ideal: FracIdeal) -> IdealClass:
    """The class of ideal (its scale is ignored)."""
    return _class_of(ideal.order, _reduced(ideal.order, _form_of(ideal), {}))


def _class_of(order: QuadOrder, form: tuple[int, int]) -> IdealClass:
    """The class whose reduced form is form, with its ideal."""
    return IdealClass(_ideal_of(order, form))


def trivial_class(order: QuadOrder) -> IdealClass:
    return _class_of(order, (1, order.omega_trace))


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
    unit = _quotient_product(order, order.omega_trace, 2)
    assert abs(unit.norm()) == 1
    return unit


# ---------------------------------------------------------------------------
# Class group.
# ---------------------------------------------------------------------------


class ClassGroup(_Value):
    __slots__ = ("order", "invariants", "classes", "generators")

    @property
    def h(self) -> int:
        return prod(self.invariants)

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


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of the square n mod the odd prime p (Tonelli-Shanks; Cohen, Alg. 1.5.1)."""
    if p % 4 == 3 or n == 0:
        return pow(n, (p + 1) // 4, p)
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2^e q with q odd
    q = (p - 1) >> e
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)  # a non-residue
    y, x, b = pow(z, q, p), pow(n, (q + 1) // 2, p), pow(n, q, p)
    while b != 1:  # x^2 = n b, and y generates the subgroup of order 2^e that holds b
        m, t = 1, b * b % p
        while t != 1:
            m, t = m + 1, t * t % p
        t = pow(y, 1 << (e - m - 1), p)
        y, e, x, b = t * t % p, m, x * t % p, b * t * t % p
    return x


def _ideals_above_prime(order: QuadOrder, p: int) -> list[FracIdeal]:
    """Degree-one prime ideals over the prime p, ascending: the ideals of the forms (p, |r|)
    and (p, -|r|), r^2 = D mod 4p, r = D mod 2, -p < r <= p (for odd p a square root of D mod p
    by Tonelli-Shanks, Cohen, Alg. 1.5.1, or that root - p).  None when p is inert, one when p | r."""
    disc = order.disc
    if p == 2 and disc % 8 == 5 or p > 2 and pow(disc, (p - 1) // 2, p) == p - 1:
        return []  # inert: D = 5 mod 8, or for odd p a non-residue by Euler's criterion
    r = (1 if disc % 2 else disc % 8 // 2) if p == 2 else _sqrt_mod(disc % p, p)
    r -= p if (r - disc) % 2 else 0
    return [_ideal_of(order, (p, f)) for f in ((abs(r),) if r % p == 0 else (abs(r), -abs(r)))]


def class_group(order: QuadOrder) -> ClassGroup:
    """Structure of Pic(O) from the norm <= Minkowski-bound prime ideals.

    Classes are computed as reduced primitive forms (see _reduced).  Each
    generator class g not yet reached extends the group H reached so far by
    the cosets H*g, H*g^2, ... until g^n lies in H: one composition per new
    class.  Each stop gives a relation row n*e_g - (digits of g^n in H); the
    rows form a triangular matrix of determinant h, whose Smith-form diagonal
    is the invariants.  Each class becomes an ideal once, at the end.

    Works for any fundamental discriminant; QuadOrder's cap |d| <= CLASS_GROUP_BOUND
    keeps the prime enumeration and reduction cycles at desk scale.
    """
    bound = minkowski_bound(order)
    sieve = bytearray([0, 0]) + bytearray([1]) * (bound - 1)
    for p in range(2, isqrt(bound) + 1):  # composite p too: its multiples are composite
        sieve[p * p::p] = bytes(len(sieve[p * p::p]))
    above = [_ideals_above_prime(order, p) for p in range(bound + 1) if sieve[p]]
    gens = [i for ideals in above for i in ideals]

    # every continued-fraction state walked in this call, with its reduced form
    seen: dict[tuple[int, int], tuple[int, int]] = {}

    def times(x: tuple[int, int], g: tuple[int, int]) -> tuple[int, int]:
        form, _ = _compose(order.disc, x, g)
        return _reduced(order, form, seen)

    # elems[i] is the product of g_j^(e_j), e = the digits of i in radices n_j
    elems = [(1, order.omega_trace)]
    index = {elems[0]: 0}
    radices: list[int] = []
    relations: list[list[int]] = []
    # the conjugate prime's class is the inverse, in H once the first one is
    for g in dict.fromkeys(_reduced(order, _form_of(ideals[0]), seen) for ideals in above if ideals):
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
    ordered = tuple(sorted((_class_of(order, f) for f in elems), key=IdealClass.key))
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
