"""Measurement-Based Probabilistic Timing Analysis (MBPTA).

Implements the statistical machinery of paper §2.1 and §6.2.2: EVT
tail fitting for pWCET curves, the Ljung-Box and Kolmogorov-Smirnov
i.i.d. admission tests, the end-to-end analysis pipeline, and the
empirical checkers for the mbpta-p1/p2/p3 placement properties."""

from repro.mbpta.analysis import MBPTAAnalysis, MBPTAReport
from repro.mbpta.evt import (
    ExponentialTailFit,
    GPDTailFit,
    GumbelFit,
    PWCETCurve,
    exponentiality_coefficient,
    fit_exponential_tail,
    fit_gpd_tail,
    fit_gumbel_block_maxima,
)
from repro.mbpta.properties import (
    PlacementPropertyReport,
    check_apop_fixed_randomness,
    check_full_randomness,
    check_placement_properties,
)
from repro.mbpta.stats_tests import (
    TestResult,
    ks_two_sample,
    ljung_box,
)

__all__ = [
    "MBPTAAnalysis",
    "MBPTAReport",
    "ExponentialTailFit",
    "GPDTailFit",
    "GumbelFit",
    "PWCETCurve",
    "exponentiality_coefficient",
    "fit_exponential_tail",
    "fit_gpd_tail",
    "fit_gumbel_block_maxima",
    "TestResult",
    "ljung_box",
    "ks_two_sample",
    "PlacementPropertyReport",
    "check_full_randomness",
    "check_apop_fixed_randomness",
    "check_placement_properties",
]
