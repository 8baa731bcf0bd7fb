"""Exact asymptotic bound analysis for vector addition systems with states.

The toolkit computes, for every variable and transition of a connected
VASS, the exact exponent k of its asymptotic bound N^k in the size N of
the initial configuration, or detects that the system has at-least-
exponential complexity.  Polynomial verdicts come with independently
checkable lower-bound witness paths; exponential verdicts with a cycle
certificate.
"""

from .analyzer import (
    AnalysisResult,
    BoundsReport,
    InternalInvariantError,
    LayerTree,
    analyze,
    build_extended_system,
    check_quasi_ranking,
    next_relevant_layer,
)
from .model import (
    NotConnectedError,
    Path,
    PrePath,
    Transition,
    Valuation,
    Vass,
    VassError,
    VassSyntaxError,
    execute_path,
    min_initial_valuation,
    parse_vass,
    scc_decompose,
    serialize_vass,
    unconnected_pair,
    validate_connected,
)
from .oracle import (
    NONTERMINATING,
    BudgetExceededError,
    longest_trace,
    max_instances,
    max_reachable,
)
from .witness import (
    ExponentialCertificate,
    WitnessPath,
    build_witness,
    check_certificate,
    choose_k,
    covering_cycle,
    exponential_certificate,
    node_cycles,
    verify_witness,
)

__all__ = [
    # analysis
    "AnalysisResult", "BoundsReport", "InternalInvariantError", "LayerTree",
    "analyze", "build_extended_system", "check_quasi_ranking", "next_relevant_layer",
    # model
    "NotConnectedError", "Path", "PrePath", "Transition", "Valuation", "Vass",
    "VassError", "VassSyntaxError", "execute_path", "min_initial_valuation",
    "parse_vass", "scc_decompose", "serialize_vass", "unconnected_pair",
    "validate_connected",
    # brute-force oracle
    "NONTERMINATING", "BudgetExceededError", "longest_trace", "max_instances",
    "max_reachable",
    # witnesses and certificates
    "ExponentialCertificate", "WitnessPath", "build_witness", "check_certificate",
    "choose_k", "covering_cycle", "exponential_certificate", "node_cycles", "verify_witness",
]
__version__ = "0.1.0"
