"""Exact-arithmetic verification engine for deformed W_N current algebras."""

from .context import DEFAULT_GENERIC_POINTS, ScalarCtx
from .exact import Cyc, HbarSeries, QuadExt, RAT, rat
from .fock import HighestWeight, boson_commutator, hw_eigenvalue_w, \
    lambda_correlator
from .series import LaurentWindow, WindowError, rational_reconstruct, \
    series_exp, series_log
from .structfn import check_f_identities, f_series, g_series, gamma_at
from .wcurrents import WInsertion, composite_no_mode, w_correlator, \
    w_mode_matrix_element

__all__ = [
    "DEFAULT_GENERIC_POINTS", "ScalarCtx", "Cyc", "HbarSeries", "QuadExt",
    "RAT", "rat", "HighestWeight", "boson_commutator", "hw_eigenvalue_w",
    "lambda_correlator", "LaurentWindow", "WindowError",
    "rational_reconstruct", "series_exp", "series_log", "check_f_identities",
    "f_series", "g_series", "gamma_at", "WInsertion", "composite_no_mode",
    "w_correlator", "w_mode_matrix_element",
]

__version__ = "0.1.0"
