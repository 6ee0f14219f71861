"""Stability classification with respect to the potential number.

The decision procedure only reports what the characterization theorems
prove: Type 1 graphs are stable; a Type 2 graph is unstable when no
clique-plus-double-star host of the right shape covers it, stable when a
host exists and some (alpha+1)-set induces exactly one edge, and Unknown
in the remaining cell.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .graphs import (
    SmallGraph,
    complete_graph,
    double_star,
    join,
    one_edge_set_exists,
    spanning_subgraph_of,
)
from .potential import asymptotic_degree_sufficient_rho, profile, rho_pattern_text

STABLE = "Stable"
NOT_STABLE = "NotStable"
UNKNOWN = "Unknown"
WEAKLY_STABLE = "WeaklyStable"
NOT_WEAKLY_STABLE = "NotWeaklyStable"


class CoverUndefinedError(ValueError):
    """The double-star cover question is ill-posed (k - alpha - 2 < 0)."""


class StabilityVerdict(namedtuple("StabilityVerdict", "status theorem cover graph note", defaults=("",))):
    """``status``: Stable | NotStable | Unknown; ``theorem``: MainLow |
    MainHigh | NotStable, or None; ``cover``: the pair (b1, b2) for
    MainHigh, else None; ``graph``: H; ``note``: a str."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "theorem": self.theorem,
            "witnessSequencePattern": (
                rho_pattern_text(self.graph) if self.status == NOT_STABLE else None
            ),
            "coverB1B2": list(self.cover) if self.cover is not None else None,
            "note": self.note,
        }


class WeakVerdict(namedtuple("WeakVerdict", "status basis graph note", defaults=("",))):
    """``status``: WeaklyStable | NotWeaklyStable | Unknown; ``basis``:
    CliqueWeak | RhoDegreeSufficient | ImpliedBySigmaStable, or None;
    ``graph``: H; ``note``: a str."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "basis": self.basis,
            "witnessSequencePattern": (
                rho_pattern_text(self.graph) if self.status == NOT_WEAKLY_STABLE else None
            ),
            "note": self.note,
        }


def double_star_cover(h: SmallGraph) -> tuple[int, int] | None:
    """Least (b1, b2), b1 >= b2, b1+b2 = alpha, with h spanning the host
    clique(k-alpha-2) joined to the (b1, b2) double star; None if no pair
    works. Raises CoverUndefinedError when k - alpha - 2 < 0."""
    prof = profile(h)
    k, alpha = prof.k, prof.alpha
    if k - alpha - 2 < 0:
        raise CoverUndefinedError(
            f"cover host undefined: k - alpha - 2 = {k - alpha - 2}"
        )
    for b1 in range((alpha + 1) // 2, alpha + 1):
        b2 = alpha - b1
        host = join(complete_graph(k - alpha - 2), double_star(b1, b2))
        if spanning_subgraph_of(h, host):
            return (b1, b2)
    return None


@lru_cache(maxsize=1 << 12)
def classify_sigma(h: SmallGraph) -> StabilityVerdict:
    """Stability with respect to the potential number.

    Never extrapolates beyond the characterization theorems; the Unknown
    cells name the hypothesis that failed. Cached, so that ``classify_weak``
    does not repeat the cover search for a graph already classified.
    """
    prof = profile(h)
    if not prof.is_type2:
        return StabilityVerdict(
            status=STABLE, theorem="MainLow", cover=None, graph=h,
            note="Type 1: low-range criterion applies",
        )
    if prof.k - prof.alpha - 2 < 0:
        return StabilityVerdict(
            status=UNKNOWN, theorem=None, cover=None, graph=h,
            note=(
                "Type 2 with k - alpha - 2 < 0: the double-star cover question "
                "is ill-posed, so neither characterization applies"
            ),
        )
    cover = double_star_cover(h)
    if cover is None:
        return StabilityVerdict(
            status=NOT_STABLE, theorem="NotStable", cover=None, graph=h,
            note="Type 2 and no clique-plus-double-star host covers the graph",
        )
    if one_edge_set_exists(h, prof.alpha + 1):
        return StabilityVerdict(
            status=STABLE, theorem="MainHigh", cover=cover, graph=h,
            note="Type 2, covered, and some (alpha+1)-set induces exactly one edge",
        )
    return StabilityVerdict(
        status=UNKNOWN, theorem=None, cover=cover, graph=h,
        note=(
            "Type 2 and covered, but no (alpha+1)-set induces exactly one edge: "
            "the high-range criterion needs that set and the non-stability "
            "criterion needs the cover to fail"
        ),
    )


def classify_weak(h: SmallGraph) -> WeakVerdict:
    """Weak stability: the same closeness requirement restricted to
    degree-sufficient sequences."""
    prof = profile(h)  # also rejects edgeless input
    if h.is_complete() and prof.k >= 3:
        return WeakVerdict(
            status=WEAKLY_STABLE, basis="CliqueWeak", graph=h,
            note="complete graphs are weakly stable",
        )
    sigma_verdict = classify_sigma(h)
    if sigma_verdict.status == NOT_STABLE and asymptotic_degree_sufficient_rho(h):
        return WeakVerdict(
            status=NOT_WEAKLY_STABLE, basis="RhoDegreeSufficient", graph=h,
            note="the non-stability witness sequence is degree-sufficient",
        )
    if sigma_verdict.status == STABLE:
        # the weak notion quantifies over a subset of the strong one's
        # sequences, so stability implies weak stability by definition
        return WeakVerdict(
            status=WEAKLY_STABLE, basis="ImpliedBySigmaStable", graph=h,
            note="implied by stability; derived from the definitions, not a cited criterion",
        )
    return WeakVerdict(
        status=UNKNOWN, basis=None, graph=h,
        note="no weak-stability criterion applies",
    )
