"""Eisenstein and shifted-Eisenstein irreducibility with certificates.

The package decides, with verifiable (shift, prime) certificates, whether an
integer polynomial f or any of its shifts f(x+s) satisfies the Eisenstein
criterion; computes the density constants governing how often random
polynomials do; and reproduces exact censuses and Monte Carlo experiments
over height-bounded coefficient boxes.
"""

from .algebra import (
    discriminant,
    mahler_bound,
    max_shift_bound,
    principal_subresultant,
    resultant,
    sylvester_matrix,
)
from .census import (
    CSV_COLUMNS,
    ExperimentReport,
    census_h_subset,
    exact_census,
    h_subset_main_term,
    monte_carlo,
    reports_to_csv,
    wilson_interval,
)
from .density import (
    DensityReport,
    compute_gamma,
    compute_p_n,
    compute_rho,
    compute_tau,
    density_report,
    predicted_eisenstein_count,
    sinh_bound_check,
)
from .eisenstein import (
    CERTIFY_RETRIES,
    ShiftCertificate,
    ShiftedDecision,
    Verdict,
    decide_certified,
    eisenstein_primes,
    is_eisenstein,
    is_eisenstein_with,
    naive_shift_scan,
    periodicity_check,
    shifted_eisenstein,
    verify_certificate,
)
from .errors import BudgetError, DomainError
from .intpoly import (
    IntPoly,
    evaluate,
    format_poly,
    height,
    length,
    parse_poly,
    taylor_shift,
)
from .primes import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    FactorBudget,
    Factorization,
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    mobius,
    omega,
    roots_mod_p,
    sieve_primes,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BudgetError",
    "DomainError",
    "IntPoly",
    "parse_poly",
    "format_poly",
    "evaluate",
    "taylor_shift",
    "height",
    "length",
    "sylvester_matrix",
    "resultant",
    "principal_subresultant",
    "discriminant",
    "mahler_bound",
    "max_shift_bound",
    "FactorBudget",
    "Factorization",
    "DEFAULT_BUDGET",
    "DEFAULT_SEED",
    "sieve_primes",
    "first_primes",
    "is_prime",
    "factorize",
    "roots_mod_p",
    "euler_phi",
    "omega",
    "mobius",
    "Verdict",
    "ShiftCertificate",
    "ShiftedDecision",
    "is_eisenstein",
    "is_eisenstein_with",
    "eisenstein_primes",
    "shifted_eisenstein",
    "CERTIFY_RETRIES",
    "decide_certified",
    "verify_certificate",
    "naive_shift_scan",
    "periodicity_check",
    "DensityReport",
    "compute_p_n",
    "compute_rho",
    "compute_tau",
    "compute_gamma",
    "predicted_eisenstein_count",
    "sinh_bound_check",
    "density_report",
    "ExperimentReport",
    "CSV_COLUMNS",
    "wilson_interval",
    "exact_census",
    "census_h_subset",
    "h_subset_main_term",
    "monte_carlo",
    "reports_to_csv",
]