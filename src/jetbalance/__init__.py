"""Exact symbolic analysis of balance systems on jet coordinates.

The package represents a balance system as an (n,1)-form in the contact
basis, splits it into a Lagrangian part (generated by the quasi-Lagrangian)
and a pure non-Lagrangian complement, classifies zero-order systems of
Godunov type, and checks symmetric hyperbolicity, all in exact rational
arithmetic.  The `jetbalance` command line front end parses a small
declaration language and renders text, LaTeX, and structured JSON reports.
"""

from .balance import (
    BalanceSystem,
    DecompositionReport,
    GodunovReport,
    HelmholtzResult,
    HyperbolicityReport,
    OrderTooHighError,
    balance_form,
    balance_residuals,
    decompose,
    divergence_split,
    evaluate_on_section,
    godunov_check,
    helmholtz_check,
    pairing_polynomial,
    quasi_lagrangian,
    source_form,
    symmetric_hyperbolicity,
)
from .jetforms import BidegreeError, Form, form_latex, form_text, poly_latex
from .symcore import (
    Chart,
    ChartMismatchError,
    EngineError,
    InvalidSystemError,
    NonIntegrableError,
    Poly,
    base_var,
    jet_var,
    poly_text,
)
from .variational import (
    FunctionalForm,
    NotFunctionalError,
    delta_V,
    euler_lagrange,
    functional_from_components,
    higher_balance_residuals,
    interior_euler,
    vertical_decompose,
    vertical_homotopy,
)

__all__ = [
    "BalanceSystem",
    "BidegreeError",
    "Chart",
    "ChartMismatchError",
    "DecompositionReport",
    "EngineError",
    "Form",
    "FunctionalForm",
    "GodunovReport",
    "HelmholtzResult",
    "HyperbolicityReport",
    "InvalidSystemError",
    "NonIntegrableError",
    "NotFunctionalError",
    "OrderTooHighError",
    "Poly",
    "balance_form",
    "balance_residuals",
    "base_var",
    "decompose",
    "delta_V",
    "divergence_split",
    "euler_lagrange",
    "evaluate_on_section",
    "form_latex",
    "form_text",
    "functional_from_components",
    "godunov_check",
    "helmholtz_check",
    "higher_balance_residuals",
    "interior_euler",
    "jet_var",
    "pairing_polynomial",
    "poly_latex",
    "poly_text",
    "quasi_lagrangian",
    "source_form",
    "symmetric_hyperbolicity",
    "vertical_decompose",
    "vertical_homotopy",
]

__version__ = "0.1.0"
