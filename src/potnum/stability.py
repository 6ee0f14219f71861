"""Stability classification with respect to the potential number.

The decision procedure only reports what the characterization theorems
prove: Type 1 graphs are stable; a Type 2 graph is unstable when no
clique-plus-double-star host of the right shape covers it, stable when a
host exists and some (alpha+1)-set induces exactly one edge, and Unknown
in the remaining cell.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .graphs import SmallGraph, _max_independent_sets
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
    works. Raises CoverUndefinedError when k - alpha - 2 < 0.

    The host's only non-edges lie among the alpha leaves, and between each
    center and the other center's leaves. So a bijection carries h into
    the host exactly when it sends the leaves onto a maximum independent
    set I of h, and the centers onto two vertices c1, c2 outside I whose
    neighbours in I lie among their own leaves. Such a split of I exists
    iff c1 and c2 have no common neighbour in I, with b1 >= |N(c1) & I|
    and b2 >= |N(c2) & I|. Taking c1 as the center with more neighbours
    in I, the least b1 >= b2 is max(ceil(alpha/2), |N(c1) & I|,
    |N(c2) & I|): b2 = alpha - b1 is then at least |N(c2) & I|, which is
    at most alpha/2 and at most alpha - |N(c1) & I|.
    """
    prof = profile(h)
    k, alpha = prof.k, prof.alpha
    if k - alpha - 2 < 0:
        raise CoverUndefinedError(
            f"cover host undefined: k - alpha - 2 = {k - alpha - 2}"
        )
    best = None
    for leaves in _max_independent_sets(h):
        outside = [v for v in range(k) if not (leaves >> v) & 1]
        for c1, c2 in combinations(outside, 2):
            n1, n2 = h.adj[c1] & leaves, h.adj[c2] & leaves
            if not n1 & n2:
                b1 = max((alpha + 1) // 2, n1.bit_count(), n2.bit_count())
                if best is None or b1 < best:
                    best = b1
    return None if best is None else (best, alpha - best)


def classify_sigma(h: SmallGraph) -> StabilityVerdict:
    """Stability with respect to the potential number.

    Never extrapolates beyond the characterization theorems; the Unknown
    cells name the hypothesis that failed. Some (alpha+1)-set induces
    exactly one edge uv iff u has exactly one neighbour, v, in the maximum
    independent set that the set's other alpha vertices form.
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
    if any((a & i).bit_count() == 1 for i in _max_independent_sets(h) for a in h.adj):
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
