"""Executable form of the iterative near-threshold analysis.

The algorithm lays off small terms, then repeatedly strips the dominating
vertex of a canonical realization (deleting its non-neighbors first) and
re-floors the minimum term, building a clique joined onto the shrinking
remainder. Halting analysis either certifies a contained subgraph, points
at an extremal target sequence nearby, or declares the input potentially
graphic via one of the guard bounds.

The default cutoff f(k) = C(k, floor(k/2)) * 8k^2 exceeds any desk-scale
length n, so n - f < 0: step 1 halts only at the iteration limit or on an
empty sequence. ``f_override`` lowers it, and every trace records which
cutoff was used. Every comparison is exact: with delta = dp/dq, each
bound is multiplied through by dq and compared in integers. The trace
still records delta, epsilon and each pass's sum floor as Fractions.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from fractions import Fraction
from types import MappingProxyType

from .graphs import CapExceededError, SmallGraph, _bits, _induced_degrees, _max_independent_sets, complete_split
from .oracle import (
    DEFAULT_CAP_N,
    canonical_realization,
    potentially,
)
from .potential import PotentialProfile, profile, target_sequence
from .sequences import DegreeSequence, degree_sufficient, is_graphic, l1_distance, layoff_batch_below

FOUND_H = "found_h"
FOUND_SPLIT = "found_split"
CLOSE_TO_TARGET = "close_to_target"
DECLARED_POTENTIAL = "declared_potential"
INCONCLUSIVE = "inconclusive"

REASON_INIT_GUARD = "init_guard"
REASON_STEP4_GUARD = "step4_guard"
REASON_EARLY_EXIT = "yin_li_early_exit"


def default_f(k: int) -> int:
    """Default step-1 cutoff: C(k, floor(k/2)) * 8k^2."""
    return math.comb(k, k // 2) * 8 * k * k


def delta_bound(epsilon: Fraction, k: int) -> Fraction:
    """Strict upper bound on delta used by the convergence argument."""
    return epsilon / (16 * k**3 + 48 * k**2 + (32 + epsilon) * k)


class ProbeConfig(
    namedtuple(
        "ProbeConfig",
        "epsilon delta f_override oracle_fallback cap_n",
        defaults=(Fraction(1, 4), None, None, True, DEFAULT_CAP_N),
    )
):
    """``epsilon`` (a Fraction); ``delta`` (a Fraction, or None for half
    the bound for (epsilon, k)); ``f_override`` (an int step-1 cutoff, or
    None for ``default_f``); ``oracle_fallback`` (bool: verify claims with
    the oracle); ``cap_n`` (the length cap of the oracle and of step 2)."""

    __slots__ = ()

    def resolve(self, k: int) -> tuple[Fraction, int, list[str]]:
        """Concrete (delta, f) for a graph of order k, plus warnings.
        Each comparison is cross-multiplied: denominators are positive.
        With epsilon = ep/eq, ``delta_bound(epsilon, k)`` is ep/bq for bq =
        eq(16k^3 + 48k^2 + 32k) + ep k, so the default delta, half of it, is
        one Fraction built from two ints."""
        eps = Fraction(self.epsilon)
        ep, eq = eps.numerator, eps.denominator
        if not 0 < 2 * ep < eq:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {eps}")
        warnings: list[str] = []
        if self.delta is None:
            delta = Fraction(ep, 2 * (eq * (16 * k**3 + 48 * k**2 + 32 * k) + ep * k))
        else:
            delta = Fraction(self.delta)
            dp, dq = delta.numerator, delta.denominator
            if dp <= 0:
                raise ValueError(f"delta must be positive, got {delta}")
            bound = delta_bound(eps, k)
            if dp * bound.denominator >= bound.numerator * dq:
                warnings.append(
                    f"delta {delta} is not below the convergence bound {bound}"
                )
            if k * dp >= dq:
                warnings.append(
                    f"delta {delta} >= 1/k makes the step-4 guard bound degenerate"
                )
        f = self.f_override if self.f_override is not None else default_f(k)
        if f < 1:
            raise ValueError(f"step-1 cutoff must be positive, got {f}")
        return delta, f, warnings


class ProbeVerdict(
    namedtuple(
        "ProbeVerdict",
        "kind subgraph embedding target distance reason verified",
        defaults=(None, None, None, None, None, None),
    )
):
    """The verdict ``kind`` (one of the module's verdict names) and, where
    they apply, the ``subgraph`` found (a ``SmallGraph``), the oracle's
    ``embedding`` of it (a dict), the nearby ``target`` (a
    ``TargetSequence``) at l1 ``distance`` (an int), the ``reason`` (a
    str) and whether the oracle ``verified`` the claim (a bool)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": self.kind}
        if self.subgraph is not None:
            out["subgraphOrder"] = self.subgraph.k
            out["subgraphEdges"] = [[u + 1, v + 1] for u, v in self.subgraph.edges()]
        if self.embedding is not None:
            out["embedding"] = {str(u + 1): v + 1 for u, v in sorted(self.embedding.items())}
        if self.target is not None:
            out["target"] = self.target.to_json_dict()
        if self.distance is not None:
            out["distance"] = self.distance
        if self.reason is not None:
            out["reason"] = self.reason
        if self.verified is not None:
            out["verified"] = self.verified
        return out


class IterationRecord(
    namedtuple(
        "IterationRecord",
        "t n_t sequence sum_bound sum_bound_ok removed_nonneighbors step3_laid_off"
        " step4_laid_off step4_threshold halting_reason",
        defaults=(None, None, None, None, None),
    )
):
    """One pass of the loop: the pass number ``t``, the length ``n_t`` of
    its ``sequence`` (a ``DegreeSequence``), the Fraction ``sum_bound`` and
    whether the sum meets it (``sum_bound_ok``). The four step fields are
    ints, None on a pass that halts at step 1; ``halting_reason`` is a
    str, None on a pass that goes on."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "t": self.t,
            "nT": self.n_t,
            "sequence": self.sequence.to_text(),
            "sumBound": str(self.sum_bound),
            "sumBoundOk": self.sum_bound_ok,
            "removedNonneighbors": self.removed_nonneighbors,
            "step3LaidOff": self.step3_laid_off,
            "step4LaidOff": self.step4_laid_off,
            "step4Threshold": self.step4_threshold,
            "haltingReason": self.halting_reason,
        }


class ProbeTrace(
    namedtuple(
        "ProbeTrace",
        "n sigma epsilon delta f warnings precondition_ok init_threshold init_laid_off"
        " init_laid_off_sum early_exit iterations ell final verdict",
        defaults=(None, None, None, False, (), None, None, None),
    )
):
    """The audit trace of one run, built once its verdict is known: the
    length ``n`` and sum ``sigma`` of the input, the Fractions ``epsilon``
    and ``delta`` and the cutoff ``f`` it ran with, its ``warnings`` (a
    tuple of str) and whether the sum met the precondition
    (``precondition_ok``). Then what the iteration reached, None where it
    stopped before: the initial lay-off's ``init_threshold``,
    ``init_laid_off`` and ``init_laid_off_sum`` (ints); ``early_exit``, true
    when the Yin–Li test fired on the input; ``iterations``, a tuple of
    ``IterationRecord``s, one per pass; and, on a run that leaves the loop,
    its pass count ``ell`` and the halt analysis's ``final`` mapping, read-only
    at every level. Last, the ``verdict`` (a ``ProbeVerdict``)."""

    __slots__ = ()

    def removals_accounting(self) -> dict[str, int]:
        """Bookkeeping of every removed term across the run."""
        init = self.init_laid_off or 0
        step2 = sum(r.removed_nonneighbors or 0 for r in self.iterations)
        step3 = sum(r.step3_laid_off or 0 for r in self.iterations)
        step4 = sum(r.step4_laid_off or 0 for r in self.iterations)
        return {
            "init": init,
            "step2": step2,
            "step3": step3,
            "step4": step4,
            "total": init + step2 + step3 + step4,
        }

    def to_json_lines(self) -> list[str]:
        head = {
            "record": "config",
            "n": self.n,
            "sigma": self.sigma,
            "epsilon": str(self.epsilon),
            "delta": str(self.delta),
            "f": self.f,
            "warnings": list(self.warnings),
            "preconditionOk": self.precondition_ok,
            "earlyExit": self.early_exit,
            "initThreshold": self.init_threshold,
            "initLaidOff": self.init_laid_off,
            "initLaidOffSum": self.init_laid_off_sum,
        }
        lines = [json.dumps(head)]
        for rec in self.iterations:
            lines.append(json.dumps({"record": "iteration", **rec.to_json_dict()}))
        tail: dict = {"record": "final", "ell": self.ell}
        if self.final is not None:
            tail.update(
                (key, dict(value) if isinstance(value, MappingProxyType) else value)
                for key, value in self.final.items()
            )
        if self.verdict is not None:
            tail["verdict"] = self.verdict.to_json_dict()
        lines.append(json.dumps(tail))
        return lines


def _oracle_check(
    seq: DegreeSequence, target: SmallGraph, cfg: ProbeConfig
) -> tuple[bool | None, dict[int, int] | None]:
    """Verify a claimed containment with the exact oracle: (None, None)
    when the fallback is off or the claim lies past one of the oracle's
    caps."""
    if not cfg.oracle_fallback:
        return None, None
    try:
        cert = potentially(seq, target, cap_n=cfg.cap_n)
    except CapExceededError:
        return None, None
    return cert.answer, cert.embedding


def run_probe(
    seq: DegreeSequence, h: SmallGraph, cfg: ProbeConfig = ProbeConfig()
) -> tuple[ProbeVerdict, ProbeTrace]:
    """Run the iteration on a near-threshold sequence; returns the verdict
    and a full per-iteration audit trace, built once the verdict is known.

    Caller-facing guarantees: found_h, found_split, and declared_potential
    verdicts within the oracle's caps are oracle-verified unless
    ``oracle_fallback`` is off (a refuted claim degrades to inconclusive
    with the failed guard named), a claim past any of those caps is
    reported unverified, and close_to_target names the member of the
    target family it is near (a nearby target of an order outside the
    family is inconclusive). Step 2 raises CapExceededError past cap_n,
    and no other error is raised on a graphic input: the halt analysis
    reads a remainder shorter than the graph it compares it with as not
    degree-sufficient for it.
    """
    if not is_graphic(seq):
        raise ValueError(f"sequence {seq.to_text()} is not graphic")
    prof = profile(h)
    delta, f, warnings = cfg.resolve(prof.k)
    n, sigma = seq.n, seq.sum()
    # sigma >= (sigma_tilde - delta) n, times the denominator of delta
    dp, dq = delta.numerator, delta.denominator
    floor = (prof.sigma_tilde * dq - dp) * n
    precondition_ok = sigma * dq >= floor
    if not precondition_ok:
        warnings = warnings + [f"sum {sigma} below (sigma_tilde - delta) * n = {Fraction(floor, dq)}"]
    verdict, reached = _iterate(seq, h, prof, delta, f, cfg.cap_n)
    if not isinstance(verdict, ProbeVerdict):
        # a claim below the cap is never emitted unconfirmed: the guard and
        # halt arguments assume large lengths, so a refuted one degrades to
        # inconclusive with both facts recorded
        kind, graph, reason = verdict
        ok, emb = _oracle_check(seq, graph, cfg)
        if ok is False:
            if kind == DECLARED_POTENTIAL:
                reason = f"{reason} fired, but the oracle refutes potentiality at this length"
            else:
                reason = f"{reason}, but the oracle refutes the containment at this length"
            verdict = ProbeVerdict(kind=INCONCLUSIVE, reason=reason)
        else:
            # a declaration shows H only with the oracle's embedding of it
            if kind == DECLARED_POTENTIAL and emb is None:
                graph = None
            verdict = ProbeVerdict(
                kind=kind, subgraph=graph, embedding=emb, reason=reason, verified=ok
            )
    return verdict, ProbeTrace(
        n, sigma, Fraction(cfg.epsilon), delta, f, tuple(warnings), precondition_ok, verdict=verdict, **reached
    )


def _iterate(
    seq: DegreeSequence, h: SmallGraph, prof: PotentialProfile, delta: Fraction, f: int, cap_n: int
) -> tuple[ProbeVerdict | tuple[str, SmallGraph, str], dict]:
    """The iteration proper. Returns its outcome and the ``ProbeTrace``
    fields it reached, by name. The outcome is a verdict that needs no
    oracle, or a claim ``(kind, graph, reason)`` that ``run_probe``
    verifies: a declaration of potentiality (graph ``h``) or a found
    subgraph."""
    k, alpha, b_h = prof.k, prof.alpha, prof.b_h
    i_star, nab = prof.i_star, prof.nabla_table[prof.i_star]
    n = seq.n
    dp, dq = delta.numerator, delta.denominator  # delta = dp/dq, dq > 0

    # early exit on the input sequence, before any terms are laid off
    if n >= 2 * k and seq.term(2 * k) >= k - 1:
        return (DECLARED_POTENTIAL, h, REASON_EARLY_EXIT), {"early_exit": True}

    # initialization: raise the minimum term to ceil(sigma / 2n)
    init_threshold = -(-seq.sum() // (2 * n)) if n else 0
    cur, init_laid_off, init_laid_off_sum = layoff_batch_below(seq, init_threshold)
    reached = dict(init_threshold=init_threshold, init_laid_off=init_laid_off, init_laid_off_sum=init_laid_off_sum)
    # init_laid_off > 2 delta n / (1 + delta), times dq (1 + delta)
    if init_laid_off * (dq + dp) > 2 * dp * n:
        return (DECLARED_POTENTIAL, h, REASON_INIT_GUARD), reached

    passes = []
    t = 0
    while True:
        # the sum floor (2(k - i*) + nabla - 1 - (t + 1) delta - 2t) n_t, times dq
        num = ((2 * (k - i_star) + nab - 1 - 2 * t) * dq - (t + 1) * dp) * cur.n
        head = (t, cur.n, cur, Fraction(num, dq), cur.sum() * dq >= num)
        # step 1: halt on small maximum degree or iteration limit
        at_limit = t == k - alpha - b_h
        if at_limit or cur.n == 0 or cur.terms[0] < cur.n - f:
            reason = "iteration_limit" if at_limit else "max_degree_small"
            passes.append(IterationRecord(*head, halting_reason=reason))
            break
        # step 2: drop the non-neighbors of the top vertex of a canonical
        # realization
        if cur.n > cap_n:
            raise CapExceededError(f"step 2 realization of length {cur.n} exceeds cap {cap_n}")
        adj = canonical_realization(cur).graph.adj
        # step 3: lay off the top vertex, which dominates what step 2 kept;
        # what is left is the graph induced on its neighbors
        nbrs = adj[0]
        check = DegreeSequence([(adj[v] & nbrs).bit_count() for v in range(cur.n) if nbrs >> v & 1])
        # step 4: lay off minima until the floor holds; the threshold's
        # ceil((nabla - 1 - (t + 1) delta) / 2) is a floor division by 2 dq
        threshold = k - i_star - (((t + 1) * dp - (nab - 1) * dq) // (2 * dq)) - (t + 1)
        nxt, j4, _ = layoff_batch_below(check, max(threshold, 0))
        # j4 >= (t + 3) delta n_t / (1 - k delta), times dq (1 - k delta). The
        # guard bound is meaningful only while 1 - k*delta stays positive;
        # a degenerate delta (warned about in resolve) falls through instead
        # of declaring unsoundly
        guard = dq > k * dp and j4 * (dq - k * dp) >= (t + 3) * dp * cur.n
        passes.append(IterationRecord(
            *head, removed_nonneighbors=cur.n - 1 - check.n, step3_laid_off=1,
            step4_laid_off=j4, step4_threshold=threshold,
            halting_reason=REASON_STEP4_GUARD if guard else None,
        ))
        if guard:
            reached["iterations"] = tuple(passes)
            return (DECLARED_POTENTIAL, h, REASON_STEP4_GUARD), reached
        cur = nxt
        t += 1

    ell = t
    n_ell = cur.n
    floor_needed = k - ell - alpha - b_h
    final = {
        "eta": DegreeSequence(
            [n_ell + ell - 1] * ell + [d + ell for d in cur.terms]
        ).to_text(),
        "sEll": MappingProxyType({"clique": max(floor_needed, 0), "independent": alpha + b_h}),
    }
    # the trace reads ``final`` through a read-only view; the branches below add to it
    reached.update(iterations=tuple(passes), ell=ell, final=MappingProxyType(final))

    if at_limit:
        if n_ell < alpha + b_h:
            return ProbeVerdict(
                kind=INCONCLUSIVE,
                reason=(
                    f"iteration limit reached with only {n_ell} terms left; "
                    f"need {alpha + b_h} for the join-back"
                ),
            ), reached
        kind, graph = _join_back(h, prof)
        outcome = "covers the graph" if kind == FOUND_H else "yields the split graph"
        return (kind, graph, f"iteration limit: clique join-back {outcome}"), reached

    # halted with ell < k - alpha - b_h, so floor_needed >= 1, and small
    # maximum degree
    min_term = cur.terms[-1] if cur.n else 0
    if min_term < floor_needed:
        return ProbeVerdict(
            kind=INCONCLUSIVE,
            reason=(
                f"minimum term {min_term} below the floor {floor_needed} "
                f"required by the halt analysis"
            ),
        ), reached

    # p = the number of terms at least k - ell - 1. The remainder is
    # degree-sufficient for the split graph K_r v Kbar_s, r = floor_needed
    # and s = alpha + b_h, exactly when p >= r: its degrees are
    # (r + s - 1)^r, r^s with r + s - 1 = k - ell - 1, every term is at
    # least r, and a term of r + s - 1 in a graphic remainder forces r + s
    # terms.
    p = sum(d >= k - ell - 1 for d in cur.terms)
    if p >= floor_needed:
        # bounded-max-degree hypotheses hold: d1 < n_ell - f by the halt,
        # minimum term at least the split's minimum degree checked above
        final["branch"] = "bounded_max_degree"
        return (
            *_join_back(h, prof),
            "degree-sufficient for the split remainder under a small maximum degree",
        ), reached
    final["p"] = p
    idx = k - ell - p
    f_vertices, f_degrees = _pick_min_maxdeg_subgraph(h, prof, idx)
    final["fSubgraphVertices"] = f_vertices
    # the degrees of K_p v F, which a shorter remainder cannot dominate
    host = [p + idx - 1] * p + [d + p for d in f_degrees]
    if len(host) <= cur.n and degree_sufficient(cur, DegreeSequence(host)):
        final["branch"] = "clique_plus_subgraph"
        return (FOUND_H, h, "degree-sufficient for a clique joined onto an induced subgraph"), reached
    final["branch"] = "near_target"
    try:
        tgt = target_sequence(h, idx, seq.n)
    except ValueError as exc:
        return ProbeVerdict(kind=INCONCLUSIVE, reason=f"target sequence unavailable: {exc}"), reached
    if prof.sigma_tilde_i.get(idx) != prof.sigma_tilde:
        return ProbeVerdict(
            kind=INCONCLUSIVE,
            reason=(
                f"target of order {idx} lies outside the target family: its "
                f"coefficient {prof.sigma_tilde_i.get(idx)} is not sigma_tilde = "
                f"{prof.sigma_tilde}"
            ),
        ), reached
    return ProbeVerdict(
        kind=CLOSE_TO_TARGET, target=tgt, distance=l1_distance(seq, tgt.seq)
    ), reached


def _join_back(h: SmallGraph, prof: PotentialProfile) -> tuple[str, SmallGraph]:
    """What joining the stripped clique back onto the remainder contains:
    H itself when b_h = 0 (Type 1), otherwise the split graph of a clique
    of order k - alpha - 1 and alpha + 1 independent vertices (Type 2)."""
    if prof.b_h == 0:
        return FOUND_H, h
    return FOUND_SPLIT, complete_split(prof.k - prof.alpha - 1, prof.alpha + 1)


def _pick_min_maxdeg_subgraph(h: SmallGraph, prof: PotentialProfile, j: int) -> tuple[tuple[int, ...], list[int]]:
    """The vertices of an order-j induced subgraph of h attaining the
    minimum maximum degree nabla_j of its profile ``prof``, and their
    degrees in that subgraph.

    Prefers a subset containing a maximum independent set of h, then the
    lexicographically first attaining subset.
    """
    target = prof.nabla_table[j]
    max_sets = _max_independent_sets(h)
    chosen = None
    for mask, degrees in _induced_degrees(h, j):
        if max(degrees) != target:
            continue
        if any(not s & ~mask for s in max_sets):
            chosen = mask, degrees
            break
        if chosen is None:
            chosen = mask, degrees
    assert chosen is not None
    mask, degrees = chosen
    return tuple(_bits(mask)), degrees
