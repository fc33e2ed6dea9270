"""Exact recurrence-matrix calculus over Q(i).

Gaussian-rational arithmetic, exact dense linear algebra, linear
presentations of functions on word pairs (evaluation, unfolding, products,
minimization), folding/digit-sum sequence tooling, and Jacobi continued
fractions from moments, plus a verification CLI (`recqi`).

Importing the package loads no submodule: each exported name below loads
its home module on first use (PEP 562), so a CLI command compiles only the
modules it runs.
"""

import importlib

__version__ = "0.1.0"

# home module -> the names it exports
_EXPORTS = {
    "errors": "DegeneracyError ParseError",
    "gaussian": "GAUSSIAN_UNITS I ONE ZERO GaussianRational"
    " as_gaussian format_gaussian parse_gaussian pow_i",
    "jacobi": "JFraction jfraction_from_moments jfraction_to_series"
    " u_formula v_formula",
    "linalg": "DenseMatrix SpanBasis bareiss_leading_minors det_bareiss"
    " det_field mat_mul rref",
    "recmat": "Presentation WordPair builtin evaluate from_automaton"
    " minimize rec_convolution rec_hadamard rec_product rec_scale rec_sum"
    " rec_transpose same_function unfold unfold_levels zero_presentation",
    "report": "VerificationReport",
    "thuemorse": "ALL_PLUS SeriesTruncation SignSequence beta_coeffs fold"
    " folding_product gamma_coeffs hankel hankel_det_table moment"
    " series_product tau",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)


def __getattr__(name):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
