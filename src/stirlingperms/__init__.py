"""Exact engine for generalized Stirling words.

Enumerates permutations of the multiset ``{1^m_1, ..., n^m_n}`` whose
equal letters enclose only larger ones, computes their full statistic
suite, and machine-verifies the structural identities those statistics
satisfy: the gamma expansion of the trivariate ascent/descent/plateau
polynomial with its counting interpretation, the grammar-derivative
construction of the joint label polynomial, the commuting hopping
involutions with their orbit identity, the barred-alphabet
specialization, and exact real-rootedness of the plateau-refined
descent polynomials.

Hot kernels run in a compiled extension when available, with a
pure-Python fallback selected at import (see ``stirlingperms._backend``).
"""

from ._backend import backend_name
from .gamma import (
    GammaTable,
    classical_series_check,
    gamma_combinatorial,
    gamma_expand,
    partial_gamma,
    s_poly,
    verify_theorem,
)
from .gfs import ValueClass, canonical_rep, classify_value, orbit, phi, phi_set
from .grammar import Grammar, derive, dumont_poly, gk, quintuple_poly
from .jacobi import enumerate_jsp, jsp_level_poly, jsp_stat_poly, m_of_s, verify_conjecture
from .poly import MultiPoly, series_divide
from .roots import UniPoly, is_palindromic, is_real_rooted, s_mi
from .stats import Labeling, StatProfile, labeling, profile
from .words import (
    count_words,
    enumerate_words,
    is_stirling,
    parse_composition,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    "GammaTable",
    "Grammar",
    "Labeling",
    "MultiPoly",
    "StatProfile",
    "UniPoly",
    "ValueClass",
    "canonical_rep",
    "classical_series_check",
    "classify_value",
    "count_words",
    "derive",
    "dumont_poly",
    "enumerate_jsp",
    "enumerate_words",
    "gamma_combinatorial",
    "gamma_expand",
    "gk",
    "is_palindromic",
    "is_real_rooted",
    "is_stirling",
    "jsp_level_poly",
    "jsp_stat_poly",
    "labeling",
    "m_of_s",
    "orbit",
    "parse_composition",
    "parse_word",
    "partial_gamma",
    "phi",
    "phi_set",
    "profile",
    "quintuple_poly",
    "s_mi",
    "s_poly",
    "series_divide",
    "verify_conjecture",
    "verify_theorem",
]
