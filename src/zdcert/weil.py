"""Frobenius characteristic polynomials of modular abelian-surface reductions.

Builds the degree-4 Weil polynomial at a good prime p from the Hecke
eigenvalue a_p by expanding the norm form of x^2 - a_p x + p, then runs the
checks that pin the geometric endomorphism algebra down to the eigenvalue
field: irreducibility, ordinarity, stability of Q(pi^n) under powers (on a
Lucas sequence in Z[alpha]), and the discriminant-ratio test separating the
two quartic fields.
"""

from __future__ import annotations

from math import gcd

from .errors import DeductionRefused, InvalidEigenvalueError
from .polynomials import IntPoly
from .quadratic import QuadElement, _Value, _over_one_denominator, exact_isqrt, is_prime


class WeilQuartic(_Value):
    """A degree-4 Weil polynomial over F_p: x^4 + c3 x^3 + c2 x^2 + p c3 x + p^2."""

    __slots__ = ("p", "poly")

    def __init__(self, p: int, poly: IntPoly):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if poly.degree != 4 or not poly.is_monic():
            raise ValueError("a Weil quartic must be monic of degree 4")
        if poly[0] != p * p or poly[1] != p * poly[3]:
            raise ValueError(
                "polynomial violates the abelian-surface functional equation "
                f"(c0 = p^2 and c1 = p*c3) for p = {p}"
            )
        super().__init__(p, poly)

    @property
    def c3(self) -> int:
        return self.poly[3]

    @property
    def c2(self) -> int:
        return self.poly[2]

    def factor_data(self) -> tuple[int, int, int]:
        """(t, D, N) of the quadratic factor g = x^2 - alpha x + p, where self = g * conj(g).

        t = alpha + conj(alpha) = -c3 and n = alpha conj(alpha) = c2 - 2p give
        D = t^2 - 4n, so alpha = (t + sqrt(D))/2, and N = n^2 - 4p(t^2 - 2n) + 16p^2
        (_weil_cofactor), the cofactor in disc = p^2 D^2 N.
        """
        t, n = -self.c3, self.c2 - 2 * self.p
        return t, t * t - 4 * n, _weil_cofactor(self.p, t, n)

    def __str__(self) -> str:
        return f"{self.poly} over F_{self.p}"


def _weil_cofactor(p: int, t: int, n: int) -> int:
    # (r^2 - 4p)(r'^2 - 4p) = n^2 - 4p(r^2 + r'^2) + 16p^2 for conjugates r, r' of trace t, norm n
    return n * n - 4 * p * (t * t - 2 * n) + 16 * p * p


def _trace_and_norm(a_p: QuadElement, p: int) -> tuple[int, int]:
    """(t, n) of a real quadratic a_p, checked integral and inside the Weil bound."""
    if not a_p.is_integral():
        raise InvalidEigenvalueError(f"a_{p} = {a_p} is not an algebraic integer")
    # integral, so a = x/z and b = y/z with z = 1, or z = 2 when d = 1 mod 4
    x, y, z = _over_one_denominator(a_p)
    t, n = 2 * x // z, (x * x - a_p.d * y * y) // (z * z)
    # r^2 - 4p <= 0 at both conjugates r iff their sum t^2 - 2n - 8p is <= 0 and their
    # product N is >= 0 (N = 0 on the bound, as for a_p = 2 sqrt(p))
    if t * t - 2 * n > 8 * p or _weil_cofactor(p, t, n) < 0:
        raise InvalidEigenvalueError(f"eigenvalue {a_p} violates the Weil bound |a_p| <= 2*sqrt({p})")
    return t, n


def frobenius_charpoly(a_p: QuadElement, p: int) -> WeilQuartic:
    """Norm form (x^2 - a_p x + p)(x^2 - conj(a_p) x + p) expanded over Z."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a_p.d <= 0:
        raise ValueError("the Hecke eigenvalue field must be real quadratic")
    t, n = _trace_and_norm(a_p, p)
    # the norm form has the Weil shape by construction, so WeilQuartic's checks are skipped
    quartic = object.__new__(WeilQuartic)
    _Value.__init__(quartic, p, IntPoly((p * p, -p * t, n + 2 * p, -t, 1)))
    return quartic


def _is_square_in(u: int, v: int, disc: int) -> bool:
    """Whether u + v*sqrt(disc) is a square in Q(sqrt(disc)), for a nonsquare integer disc.

    (r + s sqrt(disc))^2 = u + v sqrt(disc) forces r^2 - disc s^2 = +-m with
    m^2 = u^2 - disc v^2, so 2r^2 = u +- m; for r != 0, s = v/(2r) then solves
    the system.  r = 0 is possible only for v = 0, with u = disc s^2.
    """
    m = exact_isqrt(u * u - disc * v * v)
    if m is None:
        return False
    if v == 0 and exact_isqrt(u * disc) is not None:
        return True
    return any(w > 0 and exact_isqrt(2 * w) is not None for w in (u + m, u - m))


def _has_degree_4(t: int, disc: int, q: int) -> bool:
    """Whether a root pi of x^2 - alpha x + q, alpha = (t + sqrt(disc))/2, has degree 4 over Q.

    pi generates a field holding alpha = pi + q/pi, so the degree is 4 exactly
    when alpha is irrational (disc not a square) and alpha^2 - 4q is not a
    square in Q(alpha) = Q(sqrt(disc)).  Over Z:
    4(alpha^2 - 4q) = (t^2 + disc - 16q) + 2t sqrt(disc).
    """
    if exact_isqrt(disc) is not None:
        return False
    return not _is_square_in(t * t + disc - 16 * q, 2 * t, disc)


def is_irreducible(quartic: WeilQuartic) -> bool:
    """Irreducibility over Q: whether a root of the quadratic factor x^2 - alpha x + p has degree 4."""
    t, disc, _ = quartic.factor_data()
    return _has_degree_4(t, disc, quartic.p)


def is_ordinary(quartic: WeilQuartic) -> bool:
    """Ordinary reduction: middle coefficient prime to p."""
    return gcd(quartic.c2, quartic.p) == 1


class StabilityReport(_Value):
    """Degrees of the minimal polynomials of pi^n for n = 2..bound."""

    __slots__ = ("bound", "degrees", "failed_at")

    @property
    def stable(self) -> bool:
        return self.failed_at is None

    def __str__(self) -> str:
        if self.stable:
            return f"stable through power {self.bound}"
        return f"unstable at power {self.failed_at}"


# a root of unity in a quartic field has order m with phi(m) <= 4, so m <= 12
# (a simple ordinary surface that is not absolutely simple splits over an
# extension of degree 2, 3, 4 or 6: Howe-Zhu, J. Number Theory 92, 2002)
DEFAULT_STABILITY_BOUND = 12


def endomorphism_stability(quartic: WeilQuartic, bound: int = DEFAULT_STABILITY_BOUND) -> StabilityReport:
    """Certify Q(pi^n) = Q(pi) for n = 2..bound, or report the first drop.

    pi^n is a root of x^2 - alpha_n x + p^n, alpha_n = pi^n + (p/pi)^n, a Lucas
    sequence (Lehmer, Ann. of Math. 31, 1930): pi and p/pi are the roots of
    x^2 - alpha x + p, so alpha_0 = 2, alpha_1 = alpha and alpha_(n+1) =
    alpha alpha_n - p alpha_(n-1).  With alpha = (t + sqrt(D))/2 (factor_data)
    and alpha_n = (u_n + v_n sqrt(D))/2, alpha alpha_n has the halves
    (t u_n + D v_n)/2 and (u_n + t v_n)/2, integers since t = D (mod 2) and
    u_n = t v_n (mod 2), as alpha_n lies in Z[alpha].  Then check 4's test,
    _has_degree_4(u_n, v_n^2 D, p^n), decides [Q(pi^n) : Q] = 4.

    A first drop is always to degree 2: were pi^n rational, it would equal its
    conjugate (p/pi)^n, so pi^2n = p^n; that needs n even, and then pi^(n/2)
    has degree at most 2, an earlier drop.

    A degree drop would mean pi^n/conj(pi^n) is a root of unity in a quartic
    field, of order m with phi(m) <= 4, hence m <= 12: that is why 12 is the
    default bound.
    """
    if bound < 2:
        raise ValueError("stability bound must be at least 2")
    p = quartic.p
    t, disc, _ = quartic.factor_data()
    if not _has_degree_4(t, disc, p):
        raise ValueError("stability requires an irreducible Weil quartic")
    u0, v0, u, v, q = 4, 0, t, 1, p  # alpha_(n-1), alpha_n and p^n at n = 1
    degrees = []
    for n in range(2, bound + 1):
        u0, v0, u, v = u, v, (t * u + disc * v) // 2 - p * u0, (u + t * v) // 2 - p * v0
        q *= p
        degrees.append(4 if _has_degree_4(u, v * v * disc, q) else 2)
        if degrees[-1] != 4:
            return StabilityReport(bound, tuple(degrees), n)
    return StabilityReport(bound, tuple(degrees), None)


def distinct_fields_certificate(q1: WeilQuartic, q2: WeilQuartic) -> str:
    """'distinct' when disc(q1)/disc(q2) is not a rational square, else 'inconclusive'.

    With disc = p^2 D^2 N (see WeilQuartic.factor_data), and D, N nonzero for
    an irreducible quartic, the ratio is a square iff N1 * N2 is.
    One-sided: a square ratio never certifies that the fields agree.
    """
    (t1, disc1, n1), (t2, disc2, n2) = q1.factor_data(), q2.factor_data()
    if not (_has_degree_4(t1, disc1, q1.p) and _has_degree_4(t2, disc2, q2.p)):
        raise ValueError("distinctness test requires irreducible quartics")
    return "distinct" if exact_isqrt(n1 * n2) is None else "inconclusive"


class ReductionCertificate(_Value):
    """Everything the endomorphism deduction needs about one reduction."""

    __slots__ = ("quartic", "irreducible", "ordinary", "stability")


def certify_reduction(a_p: QuadElement, p: int, bound: int = DEFAULT_STABILITY_BOUND) -> ReductionCertificate:
    quartic = frobenius_charpoly(a_p, p)
    irreducible = is_irreducible(quartic)
    stability = endomorphism_stability(quartic, bound) if irreducible else None
    return ReductionCertificate(quartic, irreducible, is_ordinary(quartic), stability)


class EndomorphismConclusion(_Value):
    __slots__ = ("d", "hypotheses", "conclusion")


def deduce_endomorphism_ring(
    known_subring_d: int,
    cert1: ReductionCertificate | None,
    cert2: ReductionCertificate | None,
    distinctness: str,
    *,
    conductor: int,
) -> EndomorphismConclusion:
    """Conclude End = maximal order of Q(sqrt(d)) from the three certificates.

    The endomorphism algebra embeds in both quartic fields; if those are
    distinct its dimension is at most 2, and containing Q(sqrt(d)) pushes it
    to exactly 2.  End contains the ring the Hecke eigenvalues generate,
    Z + conductor * O (NewformDatum.hecke_conductor), which reaches the maximal
    order O only for conductor 1.  Refuses (naming the gap) unless every
    certificate is present and positive and the conductor is 1.
    """
    for label, cert in (("first reduction", cert1), ("second reduction", cert2)):
        if cert is None:
            raise DeductionRefused(f"{label}: certificate missing")
        if not cert.irreducible:
            raise DeductionRefused(f"{label}: Weil quartic is reducible, surface may be non-simple")
        if not cert.ordinary:
            raise DeductionRefused(f"{label}: reduction is not ordinary")
        if cert.stability is None or not cert.stability.stable:
            raise DeductionRefused(
                f"{label}: power stability fails, endomorphisms may grow over the closure"
            )
    if distinctness != "distinct":
        raise DeductionRefused(
            "field distinctness is inconclusive: the dimension bound dim <= 2 is unsupported"
        )
    assert cert1 is not None and cert2 is not None
    d = known_subring_d
    if conductor != 1:
        raise DeductionRefused(
            f"the Hecke eigenvalues generate Z + {conductor}O, not the maximal order O of Q(√{d})"
        )
    ring = f"Z[√{d}]" if d % 4 != 1 else f"Z[(1+√{d})/2]"
    hypotheses = (
        f"End tensor Q embeds in Q[x]/(P) for P = {cert1.quartic} "
        f"(irreducible, ordinary, {cert1.stability})",
        f"End tensor Q embeds in Q[x]/(P) for P = {cert2.quartic} "
        f"(irreducible, ordinary, {cert2.stability})",
        "the two quartic fields are distinct (discriminant ratio is not a rational square), "
        "so a common subalgebra has dimension at most 2",
        f"Q(√{d}) is contained in End tensor Q, so the dimension is at least 2",
    )
    return EndomorphismConclusion(d, hypotheses, f"End = {ring}, the maximal order of Q(√{d})")


class NewformDatum(_Value):
    """Weight-2 newform data: level, quadratic Hecke field, a_p eigenvalues.

    Eigenvalues are trusted published data; validation checks only that each
    prime has good reduction (it does not divide the level; the level itself is
    never factored) and each eigenvalue respects the Weil bound.
    """

    __slots__ = ("level", "hecke_field_d", "expected_dim", "eigenvalues")

    def __init__(self, level: int, hecke_field_d: int, expected_dim: int,
                 eigenvalues: dict[int, QuadElement]):
        if level < 1:
            raise ValueError("level must be a positive integer")
        if expected_dim < 1:
            raise ValueError("expected dimension must be positive")
        if hecke_field_d <= 1:
            raise ValueError("the Hecke field must be real quadratic (d > 1)")
        for p, a_p in eigenvalues.items():
            if not is_prime(p):
                raise ValueError(f"eigenvalue index {p} is not prime")
            if level % p == 0:
                raise ValueError(f"prime {p} divides the level {level}: no good reduction")
            if a_p.d != hecke_field_d:
                raise ValueError(f"eigenvalue a_{p} does not lie in Q(sqrt({hecke_field_d}))")
            _trace_and_norm(a_p, p)
        super().__init__(level, hecke_field_d, expected_dim, eigenvalues)

    def good_primes(self) -> list[int]:
        return sorted(self.eigenvalues)

    @property
    def hecke_conductor(self) -> int:
        """f with Z[a_p : p supplied] = Z + f O for the maximal order O = Z[omega].

        a_p = x + y sqrt(d) has omega-part y, or 2y when d = 1 (mod 4) and
        omega = (1 + sqrt(d))/2; f is the gcd of the omega-parts (Cohen, A Course
        in Computational Algebraic Number Theory, 5.2), 0 when every a_p is rational.
        """
        scale = 2 if self.hecke_field_d % 4 == 1 else 1
        return gcd(*(scale * a_p.b.numerator // a_p.b.denominator for a_p in self.eigenvalues.values()))

