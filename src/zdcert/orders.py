"""Maximal quadratic orders: fractional ideals, units, principality, class groups.

An order is Z[w] with w = (1+sqrt(d))/2 for d = 1 mod 4 and w = sqrt(d)
otherwise.  A fractional ideal is stored in two-generator normal form

    I = s * (Z*a + Z*(b + w)),   s a positive rational, a > 0, 0 <= b < a,

which is unique per ideal.  Ideals multiply by composing their primitive
forms (a, b) of discriminant D: the product is the composition's content
times the ideal of the composed form.  The ideal of a generator c*(x + y*w),
c its content, is c*(|N(x + y*w)|, x/y + w).  Ideal classes are computed as
reduced forms, composed and reduced (real fields walk the continued fraction
of (b_D + sqrt(D)) / (2a) as exact (P, Q) integer pairs); an ideal is built
only when a class is returned.  An ideal is principal when its reduced class
is trivial; a real ideal's generator and the fundamental unit come from one
walk, the product of complete quotients up to the unit ideal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm, prod

from .errors import MismatchError, ResourceLimitError
from .quadratic import QuadElement, Rat, _Value, _check_d, _element, binary_power, is_prime

_MAX_STEPS = 1_000_000


class QuadOrder(_Value):
    """The maximal order of Q(sqrt(d))."""

    __slots__ = ("d", "disc")

    def __init__(self, d: int):
        object.__setattr__(self, "d", _check_d(d))
        object.__setattr__(self, "disc", d if d % 4 == 1 else 4 * d)

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
        if x.d != self.d:
            raise MismatchError(f"element of Q(sqrt({x.d})) used with order of Q(sqrt({self.d}))")
        if self.d % 4 == 1:
            return (x.a - x.b, 2 * x.b)
        return (x.a, x.b)

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
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "scale", scale)

    def _same_order(self, other: "FracIdeal") -> None:
        if self.order != other.order:
            raise MismatchError("ideals live over different orders")

    def norm(self) -> Fraction:
        return self.scale * self.scale * self.a

    def is_integral(self) -> bool:
        return self.scale.denominator == 1

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
        w = self.order.omega()
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
    # alpha = c * (x + y*w) with c its content; the primitive x + y*w lies in
    # (a, b + w) with a = |N(x + y*w)| exactly when b = x/y mod a (y is prime to
    # a, and a = 1 when y = 0), and both ideals have norm a, so they are equal
    x, y = order.to_coords(alpha)
    content = Fraction(gcd(x.numerator, y.numerator), lcm(x.denominator, y.denominator))
    x, y = int(x / content), int(y / content)
    a = abs(x * x + order.omega_trace * x * y + order.omega_norm * y * y)
    return FracIdeal(order, a, x * pow(y, -1, a), content)


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


def _quotient_product(order: QuadOrder, p: int, q: int) -> QuadElement:
    """The product of the complete quotients (p_i + sqrt(D)) / q_i of the states
    after (p, q), up to the first with q_i = 2, which only a principal class
    reaches: (q/2) / product then generates the ideal of (p, q), and from the
    unit ideal's (tr w, 2) the product is the fundamental unit."""
    product = _element(order.d, 1)
    for _ in range(_MAX_STEPS):
        p, q = _cf_step(order, p, q)
        product = product * _theta(order, p, q)
        if q == 2:
            return product
    raise ResourceLimitError("continued-fraction walk failed to reach the unit ideal")


def is_principal(ideal: FracIdeal) -> bool:
    return ideal_class(ideal).is_trivial


def principal_generator(ideal: FracIdeal) -> QuadElement | None:
    """A generator alpha with (alpha) = I, or None when I is not principal."""
    if not is_principal(ideal):
        return None
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
    order = ideal.order
    a, b = _form_of(ideal)
    # the form represents 1 at some (x, y), where (2ax + by)^2 = 4a + D y^2; then
    # x*a + y*(b_I + w) has the norm of the primitive ideal, so it generates it
    m = isqrt(4 * a // -order.disc)
    for y in range(-m, m + 1):
        rhs = 4 * a + order.disc * y * y
        s = isqrt(rhs)
        for num in (s - b * y, -s - b * y):
            if s * s == rhs and num % (2 * a) == 0:
                return ideal.scale * order.from_coords(num // 2 + y * ideal.b, y)  # x*a = num/2
    raise AssertionError("the ideal is principal but no generator was found")


def _form_of(ideal: FracIdeal) -> tuple[int, int]:
    """The form N(a x + (b + w) y) / a of the ideal's primitive part, as the pair (a, 2b + tr w):
    (a, b) stands for the primitive form a x^2 + b xy + (b^2 - D)/4a y^2 of discriminant D."""
    return ideal.a, 2 * ideal.b + ideal.order.omega_trace


def _ideal_of(order: QuadOrder, form: tuple[int, int], scale: Rat = 1) -> FracIdeal:
    """scale times the primitive ideal whose form (see _form_of) is form."""
    a, b = form
    return FracIdeal(order, a, (b - order.omega_trace) // 2, scale)


def _compose(disc: int, f: tuple[int, int], g: tuple[int, int]) -> tuple[tuple[int, int], int]:
    """Dirichlet composition of the primitive forms f and g of discriminant
    disc, unreduced (Cohen, Alg. 5.4.7): the form (a3, b3) and the content e.
    a3 = a1 a2 / e^2 with e = gcd(a1, a2, (b1 + b2)/2), and b3 = b1 mod 2a1/e,
    b3 = b2 mod 2a2/e, b3^2 = disc mod 4a3.  The product of the primitive
    ideals of f and g is e times the ideal of (a3, b3)."""
    (a1, b1), (a2, b2) = f, g
    s = (b1 + b2) // 2
    d, y1, _ = _xgcd(a2, a1)
    e, x2, y2 = _xgcd(s, d)
    v1, v2 = a1 // e, a2 // e
    r = (y1 * y2 * (s - b2) - x2 * ((b2 * b2 - disc) // (4 * a2))) % v1
    return (v1 * v2, b2 + 2 * v2 * r), e


def _reduce_form(a: int, b: int, disc: int) -> tuple[int, int]:
    """Gauss reduction of a positive definite form (disc < 0)."""
    while True:
        b += 2 * a * ((a - b) // (2 * a))  # -a < b <= a
        c = (b * b - disc) // (4 * a)
        if a <= c:
            return a, -b if a == c and b < 0 else b
        a, b = c, -b


def _reduced(order: QuadOrder, form: tuple[int, int], seen: dict) -> tuple[int, int]:
    """The one reduced form of the class of form: Gauss-reduced if imaginary.

    Real case: walk the continued-fraction states from (b mod 2a, 2a) until
    one is in seen or the walk closes a new cycle, whose least (q/2, p mod q)
    is the representative; every state walked is then recorded in seen with
    it, since each step keeps the class.
    """
    a, b = form
    if not order.is_real:
        return _reduce_form(a, b, order.disc)
    state = (b % (2 * a), 2 * a)
    path: dict[tuple[int, int], int] = {}
    while state not in seen and state not in path:
        if len(path) > _MAX_STEPS:
            raise ResourceLimitError("reduction orbit failed to close")
        path[state] = len(path)
        state = _cf_step(order, *state)
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
    equivalent ideals.  Products and inverses compose and reduce forms.
    """

    __slots__ = ("rep",)

    def __init__(self, rep: FracIdeal):
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


def prime_ideals_above(order: QuadOrder, p: int) -> list[FracIdeal]:
    """Degree-one prime ideals over p: empty when p is inert."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _ideals_above_prime(order, p)


def _ideals_above_prime(order: QuadOrder, p: int) -> list[FracIdeal]:
    """prime_ideals_above for a p known to be prime."""
    if p > 2 and pow(order.disc, (p - 1) // 2, p) == p - 1:
        return []  # Euler's criterion: disc is a non-residue, so p is inert
    b = next((b for b in range(p) if order.norm_b_plus_omega(b) % p == 0), None)
    if b is None:
        return []
    # the roots of x^2 + tr(w) x + N(w) mod p sum to -tr(w)
    return [FracIdeal(order, p, r) for r in sorted({b, (-order.omega_trace - b) % p})]


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
    above = [_ideals_above_prime(order, p) for p in range(2, minkowski_bound(order) + 1) if is_prime(p)]
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
