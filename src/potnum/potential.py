"""Potential-function profile of a small graph and its extremal sequences.

For a graph H of order k with at least one edge, the profile collects the
minimum induced maximum degrees nabla_i, the per-order sum coefficients
sigma_tilde_i = 2(k-i) + nabla_i - 1, their maximum sigma_tilde (the
asymptotic slope of the potential number), the smallest maximizing order
i_star, and the Type 1 / Type 2 split on which the stability theorems
hinge.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType

from .graphs import SmallGraph, _min_induced_max_degree, deleted_family, independence_number
from .sequences import DegreeSequence, is_graphic


class PotentialProfile(
    namedtuple("PotentialProfile", "k alpha nabla_table sigma_tilde_i sigma_tilde i_star type_label b_h")
):
    """The profile of H: order ``k`` and independence number ``alpha``;
    ``nabla_table`` and ``sigma_tilde_i``, read-only mappings from each
    order i in alpha+1..k to nabla_i and to sigma_tilde_i; the ints
    ``sigma_tilde`` and ``i_star``; ``type_label``, "Type1" or "Type2";
    and ``b_h``, 0 for Type1 and 1 for Type2."""

    __slots__ = ()

    @property
    def is_type2(self) -> bool:
        return self.type_label == "Type2"

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "alpha": self.alpha,
            "nabla": {str(i): v for i, v in sorted(self.nabla_table.items())},
            "sigmaTildeI": {str(i): v for i, v in sorted(self.sigma_tilde_i.items())},
            "sigmaTilde": self.sigma_tilde,
            "iStar": self.i_star,
            "type": self.type_label,
            "bH": self.b_h,
        }


class TargetSequence(namedtuple("TargetSequence", "i n seq parity_adjusted")):
    """The extremal sequence ((n-1)^{k-i}, (k-i+nabla_i-1)^{n-k+i}).

    The last term drops by one exactly when n-k+i and nabla_i-1 are both
    odd, which restores graphicality. Never potentially H-graphic. Fields:
    the ints ``i`` and ``n``, the ``DegreeSequence`` ``seq`` and the bool
    ``parity_adjusted``, true when the last term was dropped.
    """

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "i": self.i,
            "n": self.n,
            "sequence": self.seq.to_text(),
            "parityAdjusted": self.parity_adjusted,
        }


class ExtremalWitness(namedtuple("ExtremalWitness", "seq n params")):
    """Witness sequence whose only realization is a clique joined to a
    near-balanced double star; used to refute stability. Fields: the
    ``DegreeSequence`` ``seq``, its length ``n`` and ``params``, a dict
    from the name of each part of the sequence to its int."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "sequence": self.seq.to_text(),
            "params": dict(self.params),
        }


@lru_cache(maxsize=1 << 12)
def profile(h: SmallGraph) -> PotentialProfile:
    """Full potential profile. Requires at least one edge."""
    if h.edge_count() == 0:
        raise ValueError("profile requires a graph with at least one edge")
    k = h.k
    alpha = independence_number(h)
    nabla_table = {i: _min_induced_max_degree(h, i) for i in range(alpha + 1, k + 1)}
    sigma_i = {i: 2 * (k - i) + nabla_table[i] - 1 for i in nabla_table}
    sigma_tilde = max(sigma_i.values())
    i_star = min(i for i, v in sigma_i.items() if v == sigma_tilde)
    gap = 2 * i_star - nabla_table[i_star]
    if gap > 2 * alpha + 1:
        raise AssertionError(
            f"2*i_star - nabla_{{i_star}} = {gap} exceeds 2*alpha+1 = {2 * alpha + 1}"
        )
    type_label = "Type2" if gap == 2 * alpha + 1 else "Type1"
    if type_label == "Type2" and nabla_table[alpha + 1] != 1:
        raise AssertionError("Type2 graph must have nabla_{alpha+1} = 1")
    return PotentialProfile(
        k=k,
        alpha=alpha,
        nabla_table=MappingProxyType(nabla_table),
        sigma_tilde_i=MappingProxyType(sigma_i),
        sigma_tilde=sigma_tilde,
        i_star=i_star,
        type_label=type_label,
        b_h=1 if type_label == "Type2" else 0,
    )


def target_sequence(h: SmallGraph, i: int, n: int) -> TargetSequence:
    """Build the order-i extremal target sequence of length n."""
    prof = profile(h)
    k = prof.k
    if not prof.alpha + 1 <= i <= k:
        raise ValueError(f"index {i} outside valid range {prof.alpha + 1}..{k}")
    nab = prof.nabla_table[i]
    tail_value = _tail_value(prof, i)
    tail_count = n - k + i
    if tail_count < 1:
        raise ValueError(f"length {n} too small for index {i} (empty tail)")
    if n - 1 < tail_value:
        raise ValueError(f"length {n} too small: tail value {tail_value} exceeds n-1")
    terms = [n - 1] * (k - i) + [tail_value] * tail_count
    adjusted = tail_count % 2 == 1 and (nab - 1) % 2 == 1
    if adjusted:
        terms[-1] -= 1
    seq = DegreeSequence(terms)
    if not is_graphic(seq):
        raise AssertionError(f"constructed target sequence {seq.to_text()} not graphic")
    return TargetSequence(i=i, n=n, seq=seq, parity_adjusted=adjusted)


def target_family(h: SmallGraph, n: int) -> tuple[TargetSequence, ...]:
    """All target sequences attaining sigma_tilde, ascending in i."""
    prof = profile(h)
    return tuple(
        target_sequence(h, i, n)
        for i in sorted(prof.sigma_tilde_i)
        if prof.sigma_tilde_i[i] == prof.sigma_tilde
    )


def rho(h: SmallGraph, n: int) -> ExtremalWitness:
    """Witness sequence ((n-1)^{k-a-2}, ceil(m/2), floor(m/2), (k-a-1)^{n-k+a})
    with m = n+k-a-2; its unique realization is the clique of order k-a-2
    joined to a near-balanced double star. Only meaningful for Type 2 graphs.
    """
    prof = profile(h)
    if not prof.is_type2:
        raise ValueError("witness sequence is defined only for Type 2 graphs")
    k, alpha = prof.k, prof.alpha
    if k - alpha - 2 < 0:
        raise ValueError(f"k - alpha - 2 = {k - alpha - 2} is negative")
    if n < k + 2:
        raise ValueError(f"length {n} too small; need n >= {k + 2}")
    mid = n + k - alpha - 2
    terms = (
        [n - 1] * (k - alpha - 2)
        + [math.ceil(mid / 2), mid // 2]
        + [k - alpha - 1] * (n - k + alpha)
    )
    seq = DegreeSequence(terms)
    if not is_graphic(seq):
        raise AssertionError(f"witness sequence {seq.to_text()} not graphic")
    return ExtremalWitness(
        seq=seq,
        n=n,
        params={
            "cliqueHeads": k - alpha - 2,
            "centerHigh": math.ceil(mid / 2),
            "centerLow": mid // 2,
            "tailValue": k - alpha - 1,
            "tailCount": n - k + alpha,
            "starHigh": math.ceil((n - k + alpha) / 2),
            "starLow": (n - k + alpha) // 2,
        },
    )


def rho_pattern_text(h: SmallGraph) -> str:
    """Symbolic description of the witness sequence as a function of n."""
    prof = profile(h)
    k, a = prof.k, prof.alpha
    return (
        f"(n-1)^{k - a - 2}, ceil((n+{k - a - 2})/2), floor((n+{k - a - 2})/2), "
        f"{k - a - 1}^(n-{k - a})"
    )


def target_pattern_text(h: SmallGraph, i: int) -> str:
    """Symbolic description of the order-i target sequence as a function
    of n."""
    prof = profile(h)
    return f"(n-1)^{prof.k - i},{_tail_value(prof, i)}^(n-{prof.k - i})"


def _tail_value(prof: PotentialProfile, i: int) -> int:
    """The repeated term k - i + nabla_i - 1 of the order-i target."""
    return prof.k - i + prof.nabla_table[i] - 1


def asymptotic_degree_sufficient_rho(h: SmallGraph) -> bool:
    """Whether the witness sequence dominates H's degrees for large n.

    The leading k - alpha positions grow with n, so only the tail matters:
    every degree of H from position k - alpha + 1 on must be at most
    k - alpha - 1.
    """
    prof = profile(h)
    if not prof.is_type2:
        raise ValueError("degree-sufficiency of the witness requires a Type 2 graph")
    k, alpha = prof.k, prof.alpha
    degs = sorted(h.degrees(), reverse=True)
    return all(degs[j] <= k - alpha - 1 for j in range(k - alpha, k))


def best_deleted_subgraph(h: SmallGraph, t: int) -> tuple[SmallGraph, int]:
    """Vertex-deleted induced subgraph minimizing sigma_tilde.

    For t < k - alpha every (k-t)-subset still spans an edge, so the
    profile is defined. The minimum usually satisfies
    sigma_tilde(F) <= sigma_tilde(H) - 2t, but not always: for the
    6-cycle with t = 2 every deletion class (P4, P3+K1, 2K2) has
    coefficient above 0, so callers needing the bound must check it.
    """
    prof = profile(h)
    if not 0 <= t < prof.k - prof.alpha:
        raise ValueError(f"deletion count {t} out of range 0..{prof.k - prof.alpha - 1}")
    best: SmallGraph | None = None
    best_value = None
    for sub, _ in deleted_family(h, t):
        value = profile(sub).sigma_tilde
        if best_value is None or value < best_value:
            best, best_value = sub, value
    assert best is not None and best_value is not None
    return best, best_value
