"""Iteration algorithm: worked traces and guard exits."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import corpus
from potnum.generators import graph_from_text
from potnum.graphs import CapExceededError, SmallGraph, complete_graph, complete_split, cycle_graph, friendship_graph
from potnum.oracle import enumerate_graphic_sequences, sigma_exact
from potnum.potential import profile, target_family
from potnum.probe import (
    CLOSE_TO_TARGET,
    DECLARED_POTENTIAL,
    FOUND_H,
    FOUND_SPLIT,
    INCONCLUSIVE,
    ProbeConfig,
    default_f,
    delta_bound,
    run_probe,
)
from potnum.sequences import DegreeSequence, degree_sufficient, parse_sequence


def seq(text):
    return parse_sequence(text)


# --- configuration -----------------------------------------------------------


def test_default_f_value():
    import math

    for k in (3, 4, 6):
        assert default_f(k) == math.comb(k, k // 2) * 8 * k * k


def test_config_validation():
    with pytest.raises(ValueError):
        ProbeConfig(epsilon=Fraction(1, 2)).resolve(3)
    with pytest.raises(ValueError):
        ProbeConfig(delta=Fraction(-1, 10)).resolve(3)
    delta, f, warnings = ProbeConfig().resolve(3)
    assert 0 < delta < delta_bound(Fraction(1, 4), 3)
    assert f == default_f(3)
    assert warnings == []
    # an oversized delta is accepted with a warning, never an error
    _, _, warnings = ProbeConfig(delta=Fraction(1, 3)).resolve(3)
    assert warnings


def test_probe_rejects_non_graphic():
    with pytest.raises(ValueError):
        run_probe(seq("3,3,1,1"), complete_graph(3))


# --- worked runs ---------------------------------------------------------------


def test_star_vs_triangle_reaches_split():
    # the star keeps its dominating head, so the loop strips it and hits
    # the iteration limit after one pass; the split conclusion for a
    # Type 2 graph is the path on three vertices inside the star
    verdict, trace = run_probe(seq("7,1^7"), complete_graph(3), ProbeConfig(f_override=4))
    assert verdict.kind == "found_split"
    assert verdict.verified is True
    assert trace.ell == 1
    assert trace.init_laid_off == 0
    assert [r.n_t for r in trace.iterations] == [8, 7]


def test_two_headed_target_vs_k4_reaches_split():
    # (9,9,2^8) never satisfies the small-maximum-degree halt (that would
    # need 9 < 10 - f), so both heads are stripped and the iteration limit
    # produces the split conclusion, which the oracle confirms
    verdict, trace = run_probe(seq("9,9,2^8"), complete_graph(4), ProbeConfig(f_override=3))
    assert verdict.kind == "found_split"
    assert verdict.verified is True
    assert trace.ell == 2


def test_single_headed_target_close_to_itself():
    # one head strips away, the remainder has small maximum degree and is
    # not degree-sufficient, so the run lands on the target it started as
    verdict, trace = run_probe(seq("9,3^9"), complete_split(2, 3), ProbeConfig(f_override=3))
    assert verdict.kind == "close_to_target"
    assert verdict.target.seq == seq("9,3^9")
    assert verdict.distance == 0
    assert trace.ell == 1


def test_padded_clique_early_exit():
    verdict, trace = run_probe(seq("5^6,0,0"), complete_graph(3), ProbeConfig())
    assert verdict.kind == "declared_potential"
    assert verdict.reason == "yin_li_early_exit"
    assert verdict.verified is True
    assert trace.early_exit


def test_init_guard_with_default_delta():
    # default delta is tiny, so laying off even one sub-threshold term
    # trips the guard; the declaration must be oracle-confirmed
    verdict, trace = run_probe(seq("6,5,4,3,3,2,2,1"), complete_graph(4), ProbeConfig())
    assert verdict.kind == "declared_potential"
    assert verdict.reason == "init_guard"
    assert verdict.verified is True
    assert trace.init_laid_off == 1


# --- trace bookkeeping -----------------------------------------------------------


def test_trace_removal_accounting():
    for text, h, f in (
        ("7,1^7", complete_graph(3), 4),
        ("9,3^9", complete_split(2, 3), 3),
        ("9,9,2^8", complete_graph(4), 3),
    ):
        s = seq(text)
        verdict, trace = run_probe(s, h, ProbeConfig(f_override=f))
        if trace.ell is None:
            continue
        acc = trace.removals_accounting()
        final_n = trace.iterations[-1].n_t
        assert acc["total"] == s.n - final_n


def test_trace_json_lines_parse():
    _, trace = run_probe(seq("9,3^9"), complete_split(2, 3), ProbeConfig(f_override=3))
    lines = trace.to_json_lines()
    records = [json.loads(line) for line in lines]
    assert records[0]["record"] == "config"
    assert records[-1]["record"] == "final"
    assert any(r["record"] == "iteration" for r in records)


def test_sum_bound_recorded_each_iteration():
    _, trace = run_probe(seq("9,9,2^8"), complete_graph(4), ProbeConfig(f_override=3))
    assert len(trace.iterations) == 3
    for rec in trace.iterations:
        assert rec.sum_bound_ok in (True, False)
        assert rec.sequence.sum() >= rec.sum_bound or not rec.sum_bound_ok


def test_iteration_count_never_exceeds_limit():
    # ell stays within k - alpha - b for every run that reaches the halt
    from potnum.potential import profile

    cases = [
        ("7,1^7", complete_graph(3)),
        ("9,9,2^8", complete_graph(4)),
        ("9,3^9", complete_split(2, 3)),
        ("8,8,2^7", cycle_graph(6)),
    ]
    for text, h in cases:
        p = profile(h)
        for f in (3, 5):
            _, trace = run_probe(seq(text), h, ProbeConfig(f_override=f))
            if trace.ell is not None:
                assert trace.ell <= p.k - p.alpha - p.b_h


def test_close_to_target_lands_in_family():
    verdict, _ = run_probe(seq("9,3^9"), complete_split(2, 3), ProbeConfig(f_override=3))
    fam = {t.seq for t in target_family(complete_split(2, 3), 10)}
    assert verdict.target.seq in fam


def test_near_target_outside_family_is_inconclusive():
    # the nearby target has order 5, whose coefficient 3 falls short of
    # sigma_tilde = 4, so naming it as close_to_target would leave the family
    for text, h in (("6,3^8", cycle_graph(6)), ("3^8", friendship_graph(2))):
        verdict, trace = run_probe(seq(text), h, ProbeConfig(f_override=3))
        assert trace.final["branch"] == "near_target"
        assert verdict.kind == "inconclusive" and verdict.target is None
        assert "order 5" in verdict.reason and "sigma_tilde = 4" in verdict.reason


# --- the integer comparisons, against the Fraction expressions --------------

_EPSILONS = st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 10), Fraction(49, 100)])


def _edges(draw, n):
    """A drawn edge set on n vertices, each pair kept with a fair coin."""
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return [pair for pair, coin in zip(pairs, coins) if coin]


@st.composite
def _graphs(draw):
    k = draw(st.integers(2, 8))
    return SmallGraph(k, _edges(draw, k) or [(0, 1)])


@st.composite
def _graphic(draw):
    n = draw(st.integers(0, 10))
    degrees = [0] * n
    for u, v in _edges(draw, n):
        degrees[u] += 1
        degrees[v] += 1
    return DegreeSequence(degrees)


@st.composite
def _configs(draw, k):
    f = draw(st.integers(1, 10))
    kind = draw(st.sampled_from(["default", "user", "degenerate"]))
    if kind == "default":
        return ProbeConfig(epsilon=draw(_EPSILONS), f_override=f, oracle_fallback=False)
    if kind == "user":
        # k delta < 1; small terms make the step-4 guard's bound an integer often
        p = draw(st.integers(1, 4))
        q = k * p + draw(st.integers(1, 100))
    else:
        # a degenerate delta has k delta >= 1, where the step-4 guard stays off
        q = draw(st.integers(1, 500))
        p = draw(st.integers(-(-q // k), -(-q // k) + 3 * q))
    return ProbeConfig(delta=Fraction(p, q), f_override=f, oracle_fallback=False)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(h=_graphs(), s=_graphic(), data=st.data())
def test_integer_comparisons_match_the_fraction_expressions(h, s, data):
    prof = profile(h)
    k, i_star = prof.k, prof.i_star
    nab = prof.nabla_table[i_star]
    cfg = data.draw(_configs(k))
    verdict, trace = run_probe(s, h, cfg)
    delta, n = trace.delta, s.n
    # the precondition, and the floor its warning prints
    floor = (prof.sigma_tilde - delta) * n
    assert trace.precondition_ok == (s.sum() >= floor)
    assert (f"sum {s.sum()} below (sigma_tilde - delta) * n = {floor}" in trace.warnings) == (not trace.precondition_ok)
    # the init guard
    if trace.init_laid_off is not None:
        fired = trace.init_laid_off > 2 * delta * n / (1 + delta)
        assert fired == (verdict.reason == "init_guard" and not trace.iterations)
    for rec in trace.iterations:
        t = rec.t
        # the pass floor and its flag
        bound = (2 * (k - i_star) + nab - 1 - (t + 1) * delta - 2 * t) * rec.n_t
        assert isinstance(rec.sum_bound, Fraction) and rec.sum_bound == bound
        assert str(rec.sum_bound) == str(bound)
        assert rec.sum_bound_ok == (rec.sequence.sum() >= bound)
        if rec.step4_threshold is None:
            continue
        # the step-4 threshold and guard
        assert rec.step4_threshold == k - i_star + math.ceil((nab - 1 - (t + 1) * delta) / 2) - (t + 1)
        guard = 1 - k * delta > 0 and rec.step4_laid_off >= Fraction(t + 3) * delta * rec.n_t / (1 - k * delta)
        assert guard == (rec.halting_reason == "step4_guard")
        if k * delta >= 1:
            assert rec.halting_reason is None


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(corpus())), s=_graphic(), oracle=st.booleans(), data=st.data())
def test_probe_answers_every_graphic_input(name, s, oracle, data):
    # a verdict, or the one documented refusal, on the whole input domain
    f = data.draw(st.integers(1, max(s.n, 1)))
    try:
        verdict, trace = run_probe(s, corpus()[name], ProbeConfig(f_override=f, oracle_fallback=oracle))
    except CapExceededError:
        return
    assert verdict.kind in (FOUND_H, FOUND_SPLIT, CLOSE_TO_TARGET, DECLARED_POTENTIAL, INCONCLUSIVE)
    assert trace.to_json_lines()


# Every input over the corpus, graphic sequences of length at most 7 and
# f = 1..7, whose remainder is shorter than the split graph or K_p v F the
# halt analysis compares it with. Such a remainder is not degree-sufficient
# for it, so each run goes on to the target family, outside which it lies.
_SHORT_REMAINDERS = [
    ("C 5", "2^4", 1), ("C 6", "2^4", 1), ("C 6", "4,3^4", 1), ("C 6", "4,3,3,2,2", 1),
    ("C 6", "3^4,2", 1), ("C 6", "4,2^4", 1), ("C 6", "4,2^4", 2), ("C 6", "3,3,2^3", 1),
    ("C 6", "2^5", 1), ("C 6", "2^5", 2), ("Kbip 2 3", "2^4", 1), ("split 2 3", "2^4", 1),
    ("friendship 2", "2^4", 1),
]


@pytest.mark.parametrize("graph, sequence, f", _SHORT_REMAINDERS)
def test_a_short_remainder_is_not_degree_sufficient(graph, sequence, f):
    for oracle in (True, False):
        verdict, trace = run_probe(seq(sequence), graph_from_text(graph), ProbeConfig(f_override=f, oracle_fallback=oracle))
        assert verdict.kind == INCONCLUSIVE and "outside the target family" in verdict.reason
        assert trace.final["branch"] == "near_target"


def test_split_sufficiency_is_a_count_of_large_terms():
    # the halt analysis's lemma: on a graphic remainder whose terms are all
    # at least r >= 1, degree-sufficiency for the split graph K_r v Kbar_s,
    # (r + s - 1)^r, r^s, holds exactly when r terms are at least r + s - 1
    outcomes = set()
    for n in range(1, 10):
        for remainder in enumerate_graphic_sequences(n):
            for r in range(1, remainder.terms[-1] + 1):
                for s in range(1, n + 2):
                    split = DegreeSequence([r + s - 1] * r + [r] * s)
                    by_count = sum(d >= r + s - 1 for d in remainder.terms) >= r
                    assert by_count == (r + s <= n and degree_sufficient(remainder, split)), (remainder, r, s)
                    outcomes.add(by_count)
    assert outcomes == {True, False}


# --- every verdict path, pinned ----------------------------------------------------

# One run per path of run_probe that the benchmark's probe pool reaches,
# plus the floor branch on the empty sequence, each with the oracle and
# without it. The expected verdicts and JSON-lines traces were written by
# the code before run_probe was restructured, so they pin its output.
PINNED_PATHS = json.loads((Path(__file__).parent / "probe_paths.json").read_text())


@pytest.mark.parametrize("case", PINNED_PATHS, ids=[c["path"] for c in PINNED_PATHS])
@pytest.mark.parametrize("oracle", [True, False], ids=["oracle", "no_oracle"])
def test_verdict_paths_are_pinned(case, oracle):
    cfg = ProbeConfig(f_override=case["f"], oracle_fallback=oracle)
    verdict, trace = run_probe(seq(case["sequence"]), graph_from_text(case["graph"]), cfg)
    expected = case["oracle" if oracle else "noOracle"]
    assert verdict.to_json_dict() == expected["verdict"]
    assert trace.to_json_lines() == [json.dumps(record) for record in expected["trace"]]


# Every graphic sequence of length 8 at the sums sigma(H, 8) - 4, - 2 and
# sigma(H, 8), for each corpus graph, with f = 3 and 5 and the oracle on and
# off: 8,188 runs. The digest was written by the code before the probe's
# comparisons became integer cross-multiplications, so it pins every
# verdict and trace line they print.
def test_probe_outputs_near_sigma_at_n8_are_pinned():
    digest = hashlib.sha256()
    runs = 0
    for h in corpus().values():
        sigma = sigma_exact(h, 8).value
        for total in (sigma - 4, sigma - 2, sigma):
            for s in enumerate_graphic_sequences(8, total):
                for f in (3, 5):
                    for oracle in (True, False):
                        verdict, trace = run_probe(s, h, ProbeConfig(f_override=f, oracle_fallback=oracle))
                        digest.update(json.dumps(verdict.to_json_dict()).encode() + b"\n")
                        for line in trace.to_json_lines():
                            digest.update(line.encode() + b"\n")
                        runs += 1
    assert runs == 8188
    assert digest.hexdigest() == "b7b73e77aee32e33bd8e343df9b1c7ea142d8be5a750e802653b10ef934fa5c2"
