"""Potential-number analysis for degree sequences of small graphs.

Computes the potential-function profile of a graph, builds the extremal
target sequences and non-stability witnesses, classifies stability with
respect to the potential number, and verifies everything at desk scale
against exact brute-force oracles.

``__all__`` is the package's surface: the records and the entry points
that compute them. Every other public name lives in its module.
"""

from .sequences import DegreeSequence, degree_sufficient, is_graphic, l1_distance, parse_sequence
from .graphs import CapExceededError, SmallGraph, parse_graph_file
from .generators import graph_from_text
from .potential import (
    ExtremalWitness,
    PotentialProfile,
    TargetSequence,
    profile,
    rho,
    target_family,
    target_sequence,
)
from .oracle import (
    PotentialCertificate,
    Realization,
    SigmaExact,
    enumerate_graphic_sequences,
    potentially,
    sigma_exact,
)
from .stability import StabilityVerdict, WeakVerdict, classify_sigma, classify_weak
from .probe import ProbeConfig, ProbeTrace, ProbeVerdict, run_probe

__all__ = [
    # degree sequences and graphs
    "DegreeSequence",
    "parse_sequence",
    "is_graphic",
    "l1_distance",
    "degree_sufficient",
    "SmallGraph",
    "parse_graph_file",
    "graph_from_text",
    "CapExceededError",
    # the profile, the targets and the witness
    "PotentialProfile",
    "TargetSequence",
    "ExtremalWitness",
    "profile",
    "target_sequence",
    "target_family",
    "rho",
    # exact decisions and the potential number
    "Realization",
    "PotentialCertificate",
    "SigmaExact",
    "potentially",
    "enumerate_graphic_sequences",
    "sigma_exact",
    # stability verdicts
    "StabilityVerdict",
    "WeakVerdict",
    "classify_sigma",
    "classify_weak",
    # the near-threshold probe
    "ProbeConfig",
    "ProbeVerdict",
    "ProbeTrace",
    "run_probe",
]
__version__ = "0.1.0"
