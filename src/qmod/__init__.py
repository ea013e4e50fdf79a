"""qmod: exact integer q-series arithmetic for a small catalog of weight-2
CM eta-quotient newforms, their weight-0 companion forms with poles, and a
p-adic verification harness tying the two together."""

from .qseries import (
    QSeries,
    PrecisionError,
    NotInvertibleError,
    zero,
    one,
    add,
    sub,
    neg,
    scale,
    mul,
    div,
    invert,
    power,
    coefficient,
    truncate,
    shift,
    first_difference,
    padic_valuation,
    padic_valuation_range,
)
from .operators import (
    apply_U,
    apply_V,
    theta,
    hecke,
    kronecker,
    twist,
    is_inert,
)
from .eta import (
    EtaQuotient,
    Twist,
    CurveSpec,
    ShiftError,
    LevelMismatchError,
    FORMS,
    CURVES,
    eta_quotient_expand,
    catalog_form,
    cusp_orders,
    catalog_manifest,
)
from .spans import (
    EliminationError,
    UnconstructibleError,
    EchelonBasis,
    echelonize,
    spanning_family,
    build_H,
    build_psi,
)
from .verify import (
    CheckReport,
    FormCache,
    DEFAULT_CACHE,
    prime_eligibility,
    eligible_inert_primes,
    check_valuation,
    check_limit,
    check_congruence,
    check_hecke_decomposition,
    check_theta_psi,
    check_residue,
    check_nondivisibility,
    check_twist_consistency,
    check_support,
)
from .cli import run_grid, main

__version__ = "0.1.0"

__all__ = [
    "QSeries", "PrecisionError", "NotInvertibleError",
    "zero", "one", "add", "sub", "neg", "scale", "mul", "div", "invert",
    "power", "coefficient", "truncate", "shift", "first_difference",
    "padic_valuation", "padic_valuation_range",
    "apply_U", "apply_V", "theta", "hecke", "kronecker", "twist",
    "is_inert",
    "EtaQuotient", "Twist", "CurveSpec", "ShiftError", "LevelMismatchError",
    "FORMS", "CURVES", "eta_quotient_expand", "catalog_form",
    "cusp_orders", "catalog_manifest",
    "EliminationError", "UnconstructibleError", "EchelonBasis",
    "echelonize", "spanning_family", "build_H", "build_psi",
    "CheckReport", "FormCache", "DEFAULT_CACHE", "prime_eligibility",
    "eligible_inert_primes", "check_valuation", "check_limit",
    "check_congruence", "check_hecke_decomposition", "check_theta_psi",
    "check_residue", "check_nondivisibility", "check_twist_consistency",
    "check_support",
    "run_grid", "main",
    "__version__",
]
