"""Exact generating-series engine for curve and sheaf counting on
local K3 surfaces: stable-pair series, their Borcherds-type product
and squaring identities, and BPS extraction against 1/Delta."""

from .lattice import (CurveClass, HodgeIsometry, MukaiVector, apply_isometry,
                      enumerate_effective, mukai_pairing)
from .series import (LaurentPoly, MultiSeries, QZSeries, exp, log,
                     pow_binomial, qz_invert, qz_mul)
from .invariants import HilbTable, conjectural_J, hilb_euler, hilb_table
from .modular import DeltaSeries, delta, inv_delta
from .ptseries import (BPSTable, ConsistencyError, PTParams, bps_extract,
                       gv_extract, ky_identity_check, ky_pairs_euler,
                       pt_borcherds, pt_main, pt_xbar)

__all__ = [
    "BPSTable", "ConsistencyError", "CurveClass", "DeltaSeries", "HilbTable",
    "HodgeIsometry", "LaurentPoly", "MukaiVector", "MultiSeries", "PTParams",
    "QZSeries", "apply_isometry", "bps_extract", "conjectural_J", "delta",
    "enumerate_effective", "exp", "gv_extract", "hilb_euler", "hilb_table",
    "inv_delta", "ky_identity_check", "ky_pairs_euler", "log",
    "mukai_pairing", "pow_binomial", "pt_borcherds", "pt_main", "pt_xbar",
    "qz_invert", "qz_mul",
]
