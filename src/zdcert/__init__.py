"""Exact computer algebra certifying a zero-divisor pair in Z[AV].

The library layers: exact quadratic-field and integer-polynomial arithmetic,
maximal quadratic orders with ideals / units / class groups, Frobenius
quartics of modular abelian-surface reductions, Steinitz classification of
projective modules, integer monoid rings, and a certificate pipeline tying
them together.
"""

from .errors import (
    DeductionRefused,
    InputDataError,
    InvalidEigenvalueError,
    MismatchError,
    ResourceLimitError,
)
from .quadratic import QuadElement, is_prime, is_squarefree, sqrt_of
from .polynomials import (
    IntPoly,
    X,
    discriminant,
    factor_quartic,
    is_irreducible_quartic,
    is_rational_square,
    resultant,
)
from .orders import (
    ClassGroup,
    FracIdeal,
    IdealClass,
    QuadOrder,
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
from .weil import (
    NewformDatum,
    ReductionCertificate,
    StabilityReport,
    WeilQuartic,
    certify_reduction,
    deduce_endomorphism_ring,
    distinct_fields_certificate,
    endomorphism_stability,
    frobenius_charpoly,
    is_ordinary,
)
from .steinitz import (
    AVClass,
    ModuleClass,
    class_of_ideal_sum,
    direct_sum,
    free_module,
    tensor_av,
    zero_module,
)
from .monoidring import (
    AVMonoid,
    FreeMonoid,
    MonoidRingElement,
    ProjectiveSpace,
    WitnessReport,
    albanese_image,
    basis_element,
    ring_zero,
    zero_divisor_witness,
)
from .certify import Certificate, Check, VerificationInput, load_input, parse_input, run_certificate

__version__ = "0.1.0"
