"""Measures on the unit circle through their (c_n, d_n) parametrization.

The package computes the real-coefficient parametrization of a measure from
its Verblunsky coefficients (and back), locates the zeros of the associated
recurrence polynomials on the circle, and produces rigorous enclosures for
their extreme zeros, for the support of the measure, and certificates for
gaps in that support.
"""

from .errors import (BoundaryCaseError, InputError, InvariantError,
                     NotChainSequenceError, PopucError, ScalingError)
from .chainseq import (ScalingSeq, chain_failure_index, ismail_li_constant, make_scaling,
                       maximal_params)
from .transforms import (CdParams, VerblunskySeq, cd_from_verblunsky, mass_at_one,
                         rotated_cd, verblunsky_from_cd)
from .recurrence import ZeroList, zeros_R, zeros_W
from .bounds import (Enclosure, GapCertificate, SupportArc, enclosure_cor45,
                     enclosure_cor47, enclosure_thm44, enclosure_thm46,
                     gap_certificate, support_arc)
from .scaling import (constant_scaling_threshold,
                      constant_scaling_threshold_infinite, default_scaling_for,
                      legendre_dominant)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCaseError", "CdParams", "Enclosure", "GapCertificate", "InputError",
    "InvariantError", "NotChainSequenceError", "PopucError", "ScalingError",
    "ScalingSeq", "SupportArc", "VerblunskySeq", "ZeroList", "cd_from_verblunsky",
    "chain_failure_index", "constant_scaling_threshold",
    "constant_scaling_threshold_infinite", "default_scaling_for", "enclosure_cor45",
    "enclosure_cor47", "enclosure_thm44", "enclosure_thm46", "gap_certificate",
    "ismail_li_constant", "legendre_dominant", "make_scaling", "mass_at_one",
    "maximal_params", "rotated_cd", "support_arc", "verblunsky_from_cd",
    "zeros_R", "zeros_W",
]
