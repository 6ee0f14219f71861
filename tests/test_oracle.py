"""Exact oracle: realizations, decisions, and potential numbers.

The K4 potential numbers at n = 6, 7 are pinned to values verified by an
independent enumeration of every labeled graph (see
test_sigma_k4_n6_matches_full_graph_enumeration): the octahedron-style
regular obstructions beat the clique formula at these lengths.
"""

import gc
import hashlib
import importlib.util
import random
import sys
import threading
from itertools import combinations, combinations_with_replacement, permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import corpus, corpus_patterns, yin_li
from potnum import oracle
from potnum.graphs import (
    SmallGraph,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    deleted_family,
    double_star,
    find_embedding,
    is_isomorphic,
    join,
    path_graph,
)
from potnum.oracle import (
    CapExceededError,
    canonical_realization,
    enumerate_graphic_sequences,
    potentially,
    sigma_exact,
    _decide,
    _split_holds,
)
from potnum.sequences import DegreeSequence, _graphic_desc, is_graphic, layoff, parse_sequence


def seq(text):
    return parse_sequence(text)


# --- canonical realizations -----------------------------------------------


def test_canonical_realization_star():
    r = canonical_realization(seq("7,1^7"))
    assert r.graph.degrees()[0] == 7
    assert is_isomorphic(r.graph, join(complete_graph(1), SmallGraph(7)))


def test_canonical_realization_triangle():
    r = canonical_realization(seq("2,2,2"))
    assert is_isomorphic(r.graph, complete_graph(3))


def test_canonical_realization_double_star():
    r = canonical_realization(seq("4,4,1^6"))
    assert is_isomorphic(r.graph, double_star(3, 3))
    # top vertex adjacent to the next four positions
    assert all(r.graph.has_edge(0, v) for v in (1, 2, 3, 4))


def test_canonical_realization_degrees_positional():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randrange(1, 11)
        while True:
            s = DegreeSequence(rng.randrange(0, n) for _ in range(n))
            if is_graphic(s):
                break
        r = canonical_realization(s)
        assert r.graph.degrees() == s.terms


def test_canonical_realization_rejects_non_graphic():
    with pytest.raises(ValueError):
        canonical_realization(seq("3,3,1,1"))


def test_solve_residual_leaves_no_cyclic_garbage():
    # the recursive solver and the recursive generators are module
    # functions, so no search makes work for the cycle collector, even
    # when a witness or an abandoned scan stops it early
    feasible, infeasible = ([3, 3, 2, 2, 2, 2], [0] * 6), ([1, 1], [0b10, 0b01])
    assert oracle._solve_residual(*feasible) is not None
    assert oracle._solve_residual(*infeasible) is None
    k3 = complete_graph(3)
    witnessed, refuted = (4, 3, 3, 2, 2, 2), (7, 1, 1, 1, 1, 1, 1, 1)
    assert oracle._full_search(witnessed, k3)
    assert not oracle._full_search(refuted, k3)
    scan = lambda: enumerate_graphic_sequences(7, 10, host=(3, 0))
    assert len(list(scan())) == 6
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            oracle._solve_residual(list(feasible[0]), feasible[1])
            oracle._solve_residual(list(infeasible[0]), infeasible[1])
            oracle._full_search(witnessed, k3)
            oracle._full_search(refuted, k3)
            list(scan())
            next(scan())
        assert gc.collect() == 0
    finally:
        gc.enable()


def _full_search_digest(lengths):
    """Every (sequence, pattern) pair of the given lengths that the decision
    sends to the full placement search: past the degree pre-check, no
    dominating head, and no copy in the canonical realization. Returns the
    counts of witnesses and refutations, a digest of each witness's
    embedding (key order included) and edge list and of each refuted
    sequence, and the refutations' summed counters."""
    digest = hashlib.sha256()
    witnessed = refuted = 0
    work = [0, 0, 0]
    patterns = [p for p in corpus_patterns() if p.edge_count()]
    for n in lengths:
        for s in enumerate_graphic_sequences(n):
            terms = s.terms
            graph = None
            for p in patterns:
                if p.k > n or terms[0] == n - 1:
                    continue
                hdegs = sorted(p.degrees(), reverse=True)
                if any(terms[i] < hdegs[i] for i in range(p.k)):
                    continue
                graph = graph or canonical_realization(s).graph
                if find_embedding(p, graph) is not None:
                    continue
                found = oracle._full_search(terms, p)
                if found:
                    emb, real = found()
                    digest.update(repr((terms, list(emb.items()), real.graph.edges())).encode())
                    witnessed += 1
                else:
                    digest.update(repr((terms, found.rule)).encode())
                    refuted += 1
                    work = [w + c for w, c in zip(work, found[1:])]
    return witnessed, refuted, digest.hexdigest(), tuple(work)


def test_full_search_pinned_on_every_pair_that_reaches_it():
    # every pair with n <= 9. The witness digest was written before the
    # search began to skip the copies that a swap of two equal-term slots
    # turns into an earlier one, and holds unchanged since. The counters are
    # those of the skipping search: (4324, 21216, 19224) before it.
    witnessed, refuted, digest, work = _full_search_digest(range(1, 10))
    assert (witnessed, refuted) == (1698, 451)
    assert digest == "e5d861a87fe68295420e087a99ca1f6ba15d716c77e88e3dbcb64f9d44fa08b0"
    assert work == (4324, 2218, 1753)


def test_full_search_pinned_at_n10():
    # as above at n = 10, the length of the benchmark's widest pairs; the
    # counters were (6113, 28628, 27254) before the swap skip
    witnessed, refuted, digest, work = _full_search_digest([10])
    assert (witnessed, refuted) == (2071, 322)
    assert digest == "86de6168cc09cbdc5f0ea7934d3fe21fee6d7f0fb26e1b2c4d9f9d50a1ebc509"
    assert work == (6113, 2402, 2096)


def test_distinct_copies_swap_masks_by_brute_force():
    # on every corpus pattern and one-vertex-deleted class: the copies are
    # one per edge set in first-permutation order, each carries its slot
    # degrees, and bit a of its swap mask is set exactly when swapping
    # slots a and a+1 gives a copy earlier in the list
    for h in corpus_patterns():
        k = h.k
        first = {}
        for perm in permutations(range(k)):
            first.setdefault(frozenset(tuple(sorted((perm[u], perm[v]))) for u, v in h.edges()), perm)
        copies = oracle._distinct_copies(h)
        assert [(tuple(sorted(e)), p) for e, p in first.items()] == [(e, p) for e, p, _, _ in copies]
        order = {frozenset(e): i for i, (e, _, _, _) in enumerate(copies)}
        for i, (edges, vmap, degrees, swaps) in enumerate(copies):
            assert sorted(tuple(sorted((vmap[u], vmap[v]))) for u, v in h.edges()) == list(edges)
            assert degrees == tuple(sum(x in e for e in edges) for x in range(k))
            for a in range(k - 1):
                relabel = {a: a + 1, a + 1: a}
                image = frozenset(tuple(sorted(relabel.get(x, x) for x in e)) for e in edges)
                assert bool(swaps >> a & 1) == (order[image] < i), (h.edges(), i, a)


# --- potentially ------------------------------------------------------------


def test_potentially_examples():
    k3 = complete_graph(3)
    assert not potentially(seq("7,1^7"), k3).answer
    assert not potentially(seq("4,4,1^6"), k3).answer
    cert = potentially(seq("2,2,2"), k3)
    assert cert.answer
    assert sorted(cert.embedding.values()) == [0, 1, 2]


def test_potentially_certificate_is_checkable():
    rng = random.Random(2024)
    hs = [complete_graph(3), cycle_graph(5), path_graph(4), complete_split(2, 2)]
    for _ in range(60):
        n = rng.randrange(5, 10)
        while True:
            s = DegreeSequence(rng.randrange(0, n) for _ in range(n))
            if is_graphic(s):
                break
        h = rng.choice(hs)
        cert = potentially(s, h)
        if cert.answer:
            g = cert.realization.graph
            assert g.degrees() == s.terms
            for u, v in h.edges():
                assert g.has_edge(cert.embedding[u], cert.embedding[v])
        else:
            assert cert.exhausted is not None


def test_exhausted_names_its_rule_and_is_the_same_on_a_repeat_call():
    cases = [
        ("7,6,3,3,2,2,2,1", cycle_graph(6), "dominating_head", (8, 16, 2)),
        ("4,4,1^6", complete_graph(3), "degree", (0, 0, 0)),
    ]
    for text, h, rule, (subsets, patterns, residual_calls) in cases:
        want = {"rule": rule, "subsets": subsets, "patterns": patterns, "residual_calls": residual_calls}
        assert potentially(seq(text), h).exhausted == want, text
        assert potentially(seq(text), h).exhausted == want, text


def test_potentially_rejects_non_graphic_and_caps():
    with pytest.raises(ValueError):
        potentially(seq("3,3,1,1"), complete_graph(3))
    with pytest.raises(CapExceededError):
        potentially(DegreeSequence([1] * 12), complete_graph(3), cap_n=10)
    with pytest.raises(CapExceededError):
        potentially(seq("2,2,2"), complete_graph(9))


def test_potentially_monotone_under_layoff():
    rng = random.Random(555)
    hs = [complete_graph(3), path_graph(4), cycle_graph(5)]
    for _ in range(150):
        n = rng.randrange(4, 10)
        while True:
            s = DegreeSequence(rng.randrange(0, n) for _ in range(n))
            if is_graphic(s):
                break
        j = rng.randrange(1, n + 1)
        reduced = layoff(s, j)
        h = rng.choice(hs)
        if potentially(reduced, h).answer:
            assert potentially(s, h).answer


# --- sufficient clique test ----------------------------------------------------


def test_yin_li_examples():
    assert yin_li(seq("3,2,2,2,1").terms, 3)
    assert not yin_li(seq("7,1^7").terms, 3)
    for k in range(2, 6):
        assert yin_li(DegreeSequence([k - 1] * (2 * k)).terms, k)


def test_yin_li_implies_potentially():
    # validated against the decision recursion, which does not use Yin–Li
    for k in (3, 4):
        h = complete_graph(k)
        for n in range(k, 9):
            for s in enumerate_graphic_sequences(n):
                if yin_li(s.terms, k):
                    assert _decide(s.terms, h), (s, k)


# --- split placement --------------------------------------------------------------


def test_potentially_split_examples():
    assert potentially(seq("7,1^7"), complete_split(1, 2)).answer
    assert not potentially(seq("4,4,1^6"), complete_split(2, 1)).answer


def test_split_holds_proves_graphic_on_any_tuple():
    # the enumerator's leaves meet _split_holds before their Erdős–Gallai
    # test, so it sees tuples that are not graphic; its True stands for a
    # realization it has built, so none of those may pass for any host
    hosts = [(r, m - r) for m in range(7) for r in range(m + 1)]
    for n in range(9):
        for t in combinations_with_replacement(range(n - 1, -1, -1), n):
            if not _graphic_desc(t):
                assert not any(_split_holds(t, r, s) for r, s in hosts), t


@st.composite
def _host_and_sequence(draw):
    """A split host (r, s) with r + s <= 5 and the sorted degrees of a
    random graph on n <= 9 vertices that holds it on random vertices."""
    r = draw(st.integers(0, 5))
    s = draw(st.integers(0, 5 - r))
    n = draw(st.integers(r + s + 2, 9))
    pairs = list(combinations(range(n), 2))
    picked = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    place = draw(st.permutations(range(n)))
    edges = {p for p, b in zip(pairs, picked) if b}
    edges |= {tuple(sorted((place[u], place[v]))) for u, v in complete_split(r, s).edges()}
    return r, s, sorted(SmallGraph(n, edges).degrees(), reverse=True)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_host_and_sequence(), st.data())
def test_unit_transfer_below_the_host_keeps_it(drawn, data):
    # the lemma behind the σ scan's greedy-completion break, checked by the
    # decision alone: moving one unit from a term to one at least 2 smaller,
    # both at positions >= r + s, leaves a potentially complete_split(r, s)-
    # graphic sequence potentially host-graphic (a 2-switch moves an edge uw
    # with u outside the host to vw)
    r, s, y = drawn
    host = complete_split(r, s)
    assert _decide(tuple(y), host)
    moves = [(a, b) for a in range(r + s, len(y)) for b in range(r + s, len(y)) if y[a] >= y[b] + 2]
    assume(moves)
    a, b = data.draw(st.sampled_from(moves))
    y[a] -= 1
    y[b] += 1
    assert _decide(tuple(sorted(y, reverse=True)), host), (r, s, y)


def test_split_holds_matches_the_decision_both_ways():
    # sigma_exact skips every sequence _split_holds accepts, so it must
    # never accept a sequence the decision refutes; that it misses none
    # is what makes the skip pay
    hosts = [(r, m - r, complete_split(r, m - r)) for m in range(7) for r in range(m + 1)]
    for n in range(9):
        for s in enumerate_graphic_sequences(n):
            for r, t, host in hosts:
                assert _split_holds(s.terms, r, t) == bool(_decide(s.terms, host)), (s, r, t)


# --- enumeration -------------------------------------------------------------------


def test_enumerate_counts_match_realizable_sequences():
    # distinct degree sequences of graphs on n labeled vertices (OEIS A004251)
    for n, expected in (
        (1, 1), (2, 2), (3, 4), (4, 11), (5, 31), (6, 102), (7, 342),
        (8, 1213), (9, 4361), (10, 16016), (11, 59348), (12, 222117),
    ):
        assert sum(1 for _ in enumerate_graphic_sequences(n)) == expected


def _graphic_by_reference(n, total):
    """Every nonincreasing graphic sequence of length n and sum total,
    lexicographically decreasing, from all nonincreasing tuples."""
    return [
        DegreeSequence(t)
        for t in combinations_with_replacement(range(n - 1, -1, -1), n)
        if sum(t) == total and is_graphic(DegreeSequence(t))
    ]


def test_enumerate_matches_reference_with_and_without_clique_skip():
    # with a host, the enumerator leaves out exactly the sequences the
    # decision finds potentially host-graphic, whether by the Yin–Li
    # prefix skip or by the leaf's split test; with r + s = 6 (C6's host is
    # (3, 3)) at n = 6 only the split test, in the frame that builds the
    # leaf, settles a leaf that meets the Yin–Li condition
    # ``min_term`` keeps exactly the sequences whose last term is at least
    # it, with or without a host
    hosts = [(r, m - r, complete_split(r, m - r)) for m in range(7) for r in range(m + 1)]
    for n in range(9):
        for total in range(0, n * (n - 1) + 1, 2):
            want = _graphic_by_reference(n, total)
            assert list(enumerate_graphic_sequences(n, total)) == want, (n, total)
            for r, t, host in hosts:
                kept = [s for s in want if not _decide(s.terms, host)]
                assert list(enumerate_graphic_sequences(n, total, host=(r, t))) == kept, (n, total, r, t)
                if r + t in (3, 6):
                    for least in range(n + 1):
                        high = [s for s in kept if min(s, default=least) >= least]
                        got = list(enumerate_graphic_sequences(n, total, host=(r, t), min_term=least))
                        assert got == high, (n, total, r, t, least)
            for least in range(n + 1):
                high = [s for s in want if min(s, default=least) >= least]
                assert list(enumerate_graphic_sequences(n, total, min_term=least)) == high, (n, total, least)


def test_enumerate_unique_completions_match_reference(monkeypatch):
    # a frame whose value leaves one completion builds that leaf itself in
    # place of a chain of one-value frames; the enumerator still keeps
    # exactly the reference's sequences, with and without ``min_term``, for
    # hosts of order k = n - 1 (a skipped frame would have placed term k
    # under the clique prune), k = n (no frame places term k), k = n + 1
    # (no sequence holds the host, and the leaf has no term k), and k = 0
    # and n - 3 (frames past the host build leaves that are not their
    # greedy completion, so their split test may not be skipped), and the
    # runs build leaves of every unique shape with two terms or more still
    # to place: under <= 1, over <= 1 and two adjacent values, each with
    # and without a positive smallest-term bound
    shapes = set()
    graphic = oracle._graphic_desc

    def seen(t):
        caller = sys._getframe(1)
        if caller.f_code.co_name == "_extend_prefix":
            f = caller.f_locals
            if t is f["leaf"] and f["tail"] > 1:
                shape = "under" if f["under"] < 2 else "over" if f["over"] < 2 else "adjacent"
                shapes.add((shape, f["least"] > 0))
        return graphic(t)

    monkeypatch.setattr(oracle, "_graphic_desc", seen)
    for n in range(10):
        want = sorted(
            (t for t in combinations_with_replacement(range(n - 1, -1, -1), n) if _graphic_desc(t)),
            key=lambda t: (sum(t), t),
            reverse=True,
        )
        hosts = [(r, k - r) for k in sorted({0, n - 3, n - 1, n, n + 1}) if k >= 0 for r in range(k + 1)]
        kept = {host: [t for t in want if not _decide(t, complete_split(*host))] for host in hosts}
        for host in [None, *hosts]:
            ref = kept.get(host, want)
            for least in (None, *range(1, n + 1)):
                got = [s.terms for s in enumerate_graphic_sequences(n, host=host, min_term=least)]
                assert got == [t for t in ref if least is None or min(t) >= least], (n, host, least)
    assert shapes == {(shape, bound) for shape in ("under", "over", "adjacent") for bound in (False, True)}


def test_enumerate_fixed_sum_order_is_lex_decreasing():
    got = [s.terms for s in enumerate_graphic_sequences(6, 10)]
    assert got == sorted(got, reverse=True)
    assert all(sum(t) == 10 for t in got)


def test_enumerate_edge_cases():
    # the shortest lengths: below 2 the enumerator tests the one candidate,
    # all zeros, itself, at 2 the loop over the first term forces the second
    terms = lambda *args, **kw: [s.terms for s in enumerate_graphic_sequences(*args, **kw)]
    assert terms(0) == terms(0, 0) == [()]
    assert terms(1) == terms(1, 0) == [(0,)]
    assert terms(2) == [(1, 1), (0, 0)]
    assert terms(2, 2) == [(1, 1)]
    assert terms(1, host=(1, 0)) == terms(2, host=(0, 2)) == []
    assert terms(1, host=(2, 0)) == [(0,)]
    assert terms(2, host=(1, 1)) == [(0, 0)]
    # odd totals, negative totals and totals above n(n-1) have no sequence
    for n in range(6):
        for total in (-2, -1, n * (n - 1) + 1, n * (n - 1) + 2):
            assert terms(n, total) == [], (n, total)
        for total in range(1, n * (n - 1), 2):
            assert terms(n, total) == terms(n, total, host=(2, 1)) == [], (n, total)
    # without a total, sums descend, each level in lexicographically
    # decreasing order, with or without a host
    for n in range(8):
        for host in (None, (2, 1), (3, 3)):
            got = terms(n, host=host)
            assert got == sorted(got, key=lambda t: (sum(t), t), reverse=True), (n, host)
            assert got == [t for total in range(n * (n - 1), -1, -2) for t in terms(n, total, host=host)]
    with pytest.raises(ValueError):
        list(enumerate_graphic_sequences(-1))
    with pytest.raises(ValueError):
        list(enumerate_graphic_sequences(-3, 0, host=(2, 1)))
    # a host that is not a pair of nonnegative ints is refused, not read
    # as some other host: (1,) would drop every prefix by the k = 1 prune
    for host in ((-1, 2), (2, -1), (1,), (1, 1, 1), (2.0, 1), [2, 1], 3):
        with pytest.raises(ValueError):
            list(enumerate_graphic_sequences(5, host=host))
    for min_term in (-1, 2.0, "3"):
        with pytest.raises(ValueError):
            list(enumerate_graphic_sequences(5, min_term=min_term))
    # the empty sequence has no term below any bound; at length 1 the
    # enumerator drops the candidate 0 below a positive bound, and at
    # length 2 the bound cuts the first term's range so that the forced
    # second term meets it
    assert terms(0, min_term=0) == terms(0, min_term=3) == [()]
    assert terms(1, min_term=0) == [(0,)]
    assert terms(1, min_term=1) == []
    assert terms(2, min_term=0) == [(1, 1), (0, 0)]
    assert terms(2, min_term=1) == terms(2, 2, min_term=1) == [(1, 1)]
    assert terms(2, min_term=2) == terms(2, 0, min_term=1) == []
    assert terms(3, min_term=1) == [(2, 2, 2), (2, 1, 1)]
    assert terms(3, min_term=1, host=(1, 1)) == []


def test_enumerate_builds_a_level_one_first_term_at_a_time(monkeypatch):
    # a consumer that takes only the first sequence of a level pays for
    # the first subtree that keeps one, not for the whole level: here C6's
    # host at n = 10, sum 36, whose first kept sequence is 9,9,3,3,2^6
    calls = [0]
    split = oracle._split_holds

    def counted(t, r, s):
        calls[0] += 1
        return split(t, r, s)

    monkeypatch.setattr(oracle, "_split_holds", counted)
    scan = lambda: enumerate_graphic_sequences(10, 36, host=(3, 3), min_term=2)
    assert next(scan()).to_text() == "9,9,3,3,2^6"
    first = calls[0]
    calls[0] = 0
    assert len(list(scan())) == 108
    assert first < calls[0]


def test_enumerators_advanced_alternately_agree_with_each_alone():
    # each generator keeps its own subtree list across yields, and its
    # frames pass their prefixes down as tuples, so scans advanced in turn,
    # as threads sharing the module advance them, do not disturb each other
    args = [((7,), {}), ((7,), {"host": (3, 3), "min_term": 1}), ((8, 24), {"host": (2, 1)}), ((8, 24), {})]
    alone = [list(enumerate_graphic_sequences(*a, **kw)) for a, kw in args]
    scans = [enumerate_graphic_sequences(*a, **kw) for a, kw in args]
    together = [[] for _ in args]
    live = True
    while live:
        live = False
        for scan, got in zip(scans, together):
            item = next(scan, None)
            if item is not None:
                got.append(item)
                live = True
    assert together == alone


# --- exact potential numbers ---------------------------------------------------------


def test_sigma_k3_small_lengths():
    k3 = complete_graph(3)
    # at n = 5 the 2-regular sequence is realized only by the triangle-free
    # 5-cycle, so the value sits one step above 2n; from n = 6 on the 2n
    # formula is exact
    out5 = sigma_exact(k3, 5)
    assert out5.value == 12
    assert {s.to_text() for s in out5.extremal_sequences} == {"2^5"}
    for n in (6, 7, 8):
        assert sigma_exact(k3, n).value == 2 * n


def test_sigma_k3_n8_maximizers():
    out = sigma_exact(complete_graph(3), 8)
    texts = {s.to_text() for s in out.extremal_sequences}
    assert {"7,1^7", "4,4,1^6"} <= texts
    assert all(s.sum() == out.value - 2 for s in out.extremal_sequences)


def test_sigma_k4_n6_matches_full_graph_enumeration():
    # independent ground truth: scan all 2^15 labeled graphs on 6 vertices
    pairs = list(combinations(range(6), 2))
    quads = list(combinations(range(6), 4))
    with_k4, everything = set(), set()
    for mask in range(1 << len(pairs)):
        adj = [0] * 6
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        s = tuple(sorted((a.bit_count() for a in adj), reverse=True))
        everything.add(s)
        for q in quads:
            if all((adj[a] >> b) & 1 for a, b in combinations(q, 2)):
                with_k4.add(s)
                break
    refuted = everything - with_k4
    truth = max(sum(s) for s in refuted) + 2
    out = sigma_exact(complete_graph(4), 6)
    assert out.value == truth == 26
    assert {s.terms for s in out.extremal_sequences} == {
        s for s in refuted if sum(s) == truth - 2
    }


def test_sigma_k4_small_lengths_true_values():
    # regular complement obstructions push the value above the clique
    # formula until n = 9; the formula then takes over
    k4 = complete_graph(4)
    assert sigma_exact(k4, 6).value == 26
    assert sigma_exact(k4, 7).value == 30
    assert sigma_exact(k4, 8).value == 30
    assert sigma_exact(k4, 9).value == 4 * 9 - 4
    assert sigma_exact(k4, 10).value == 4 * 10 - 4


def _sigma_by_deciding_every_sequence(h, n, level):
    """sigma(h, n) and its maximizers from the top sum down, deciding
    every sequence that ``level(n, total)`` gives."""
    for total in range(n * (n - 1), -1, -2):
        falses = tuple(s for s in level(n, total) if not _decide(s.terms, h))
        if falses:
            return total + 2, falses
    return None


def test_sigma_matches_scan_of_every_sequence_n8():
    # the reference decides every graphic sequence, with no Yin–Li pruning
    n = 8
    for name, h in corpus().items():
        want = _sigma_by_deciding_every_sequence(h, n, _graphic_by_reference)
        got = sigma_exact(h, n)
        assert (got.value, got.extremal_sequences) == want, name


@pytest.mark.parametrize("n", [9, 10])
def test_sigma_matches_unpruned_scan(n):
    # the enumerator with no host and no smallest-term bound keeps every
    # graphic sequence, so this scan has none of sigma_exact's prunes: not
    # the split host, the Yin–Li skip, the greedy break, the smallest-term
    # bound, nor the stop in the first subtree that refutes below n
    for name, h in corpus().items():
        want = _sigma_by_deciding_every_sequence(h, n, enumerate_graphic_sequences)
        got = sigma_exact(h, n)
        assert (got.value, got.extremal_sequences) == want, (name, n)


def test_sigma_n10_values_and_maximizers():
    # pinned from the scan that ran the split test after enumeration
    want = {
        "K3": (20, ["9,1^9", "8,2,1^8", "7,3,1^8", "6,4,1^8", "5,5,1^8"]),
        "K4": (36, ["9,9,2^8", "9,8,3,2^7", "9,7,4,2^7", "9,6,5,2^7",
                    "8,8,4,2^7", "8,7,5,2^7", "8,6,6,2^7", "7,7,6,2^7"]),
        "C5": (36, ["9,9,2^8"]),
        "C6": (38, ["9,9,3,3,2^6"]),
        "P4": (20, ["9,1^9"]),
        "K23": (32, ["9,3^6,1^3", "9,3^3,2^6"]),
        "split23": (38, ["9,3^9"]),
        "friendship2": (36, ["9,9,2^8"]),
    }
    for name, h in corpus().items():
        got = sigma_exact(h, 10)
        assert (got.value, [s.to_text() for s in got.extremal_sequences]) == want[name], name


def test_sigma_chain_holds_every_shorter_length():
    # sigma_exact reaches n through every length from k, and keeps them
    for name, h in corpus().items():
        got = sigma_exact(h, 10)
        assert len(got.chain) == 10 - h.k + 1 and got.chain[-1] == got.value, name
        for m in range(h.k, 10):
            assert got.chain[m - h.k] == sigma_exact(h, m).value, (name, m)
        assert list(got.to_json_dict()) == ["n", "value", "maximizers"]


def test_sigma_n11_values():
    k3 = sigma_exact(complete_graph(3), 11, cap_n=11)
    assert (k3.value, len(k3.extremal_sequences)) == (22, 5)
    k23 = sigma_exact(complete_bipartite(2, 3), 11, cap_n=11)
    assert (k23.value, len(k23.extremal_sequences)) == (34, 3)


def test_sigma_n12_values():
    c6 = sigma_exact(cycle_graph(6), 12, cap_n=12)
    assert (c6.value, [s.to_text() for s in c6.extremal_sequences]) == (46, ["11,11,3,3,2^8"])
    k3 = sigma_exact(complete_graph(3), 12, cap_n=12)
    assert (k3.value, len(k3.extremal_sequences)) == (24, 6)
    k23 = sigma_exact(complete_bipartite(2, 3), 12, cap_n=12)
    assert (k23.value, len(k23.extremal_sequences)) == (38, 1)


def test_sigma_identity_n8_to_n11():
    # one hash over every value and every maximizer, in order, for the
    # corpus at n = 8..11, pinned from the scan before the enumerator
    # forced its last term in the parent's loop
    digest = hashlib.sha256()
    for n in range(8, 12):
        for name, h in corpus().items():
            r = sigma_exact(h, n, cap_n=11)
            digest.update(repr((name, n, r.value, [t.terms for t in r.extremal_sequences])).encode())
    assert digest.hexdigest() == "e97b3847d9e076dd2dde1b179af651bc5dd38cc5fda1408c95f9611dfbe629db"


def test_sigma_scan_leaf_count(monkeypatch):
    # the Yin–Li subtree skip, the Erdős–Gallai prefix bound, the
    # greedy-completion break, the smallest-term skip and the stop after
    # the first-term subtree that holds a length's first refutation below
    # n change no answer, since the leaf tests drop what they skip, so
    # only the work shows them: a lost prune raises the number of split
    # tests. Each count is (leaf tests, greedy-completion tests): a frame
    # tests the greedy completion of each value before it places it, and
    # a leaf's own test is made by the frame that builds the leaf (the
    # caller's ``leaf``, in a frame or in the enumerator, which tests the
    # one candidate of length 0 or 1), unless that leaf is the greedy
    # completion the frame has tested already. The counts include the
    # scans at the lengths k..9 whose sigma gives the smallest-term bound
    # at the next length
    counts = {}
    split = oracle._split_holds

    def counted(t, r, s):
        counts[name][t is not sys._getframe(1).f_locals.get("leaf")] += 1
        return split(t, r, s)

    monkeypatch.setattr(oracle, "_split_holds", counted)
    for name, h in corpus().items():
        counts[name] = [0, 0]
        sigma_exact(h, 10)
    assert {name: tuple(c) for name, c in counts.items()} == {
        "K3": (19, 0), "K4": (27, 8), "C5": (154, 9), "C6": (265, 9),
        "P4": (38, 0), "K23": (350, 94), "split23": (234, 34), "friendship2": (154, 9),
    }


def test_sigma_scan_frame_count(monkeypatch):
    # a frame whose value leaves the later terms one completion builds
    # that leaf itself, so the corpus pass at n = 10 opens 1,628 frames of
    # ``_extend_prefix`` where a chain of one-value frames down to each
    # such leaf made 5,799; it decides the same 586 sequences
    calls = {"_extend_prefix": 0, "_decide": 0}

    def counting(fn):
        def counted(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return counted

    for fn_name in calls:
        monkeypatch.setattr(oracle, fn_name, counting(getattr(oracle, fn_name)))
    for h in corpus().values():
        sigma_exact(h, 10)
    assert calls == {"_extend_prefix": 1628, "_decide": 586}


def test_sigma_n13_values():
    # ROADMAP item 1's n = 13 row: σ, and the maximizer count where it is
    # above one, for the corpus
    want = {
        "K3": (26, 6), "K4": (48, 14), "C5": (48, 1), "C6": (50, 1),
        "P4": (26, 1), "K23": (40, 2), "split23": (50, 1), "friendship2": (48, 1),
    }
    for name, h in corpus().items():
        got = sigma_exact(h, 13, cap_n=13)
        assert (got.value, len(got.extremal_sequences)) == want[name], name


def test_sigma_table_digests_n14_to_n16_and_n20(capsys):
    # README's digests of ``scripts/sigma_table.py 14 15 16 20``: one sha256
    # per length over every corpus graph's name, σ and maximizer texts
    path = Path(__file__).resolve().parent.parent / "scripts" / "sigma_table.py"
    spec = importlib.util.spec_from_file_location("sigma_table", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    table.main([14, 15, 16, 20])
    digests = [line.split("sha256=")[1] for line in capsys.readouterr().out.splitlines() if "digest" in line]
    assert digests == [
        "e6e1700cfec83ffd59eef2c001a79fd5f6661df112c1d6acfe780b92bf8e70c5",
        "39b08ee26d3c9d16789c098de48d8f102adef10255932f127fcfccb5f13eebf0",
        "58ecb9d191f8400960e4337edf1d0394a290855dd9e0579f163e4a7aa91ed163",
        "cf6c5c5fa72ac154faccab1c65eb67dec2a59f2db30fcdbc453837e73416b0c3",
    ]


def test_sigma_table_digests_n22_and_n24(capsys):
    # README's digests of ``scripts/sigma_table.py 22 24``, as above
    path = Path(__file__).resolve().parent.parent / "scripts" / "sigma_table.py"
    spec = importlib.util.spec_from_file_location("sigma_table", path)
    table = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(table)
    table.main([22, 24])
    digests = [line.split("sha256=")[1] for line in capsys.readouterr().out.splitlines() if "digest" in line]
    assert digests == [
        "c6bfd4f8eb538ecb5228b33e63de09a3c5da0d02451ebb9f576e039cc728440e",
        "19c50eb6141d1a4ef9ec2778d313c1adb597bec5f3be69fa744ab4634f7172bf",
    ]


def test_sigma_closed_forms_from_the_literature():
    # σ against closed forms from outside this program, each from the
    # first n at which the scan meets it, through n = 12 and at n = 20
    # (through 10 for C7, C8)
    forms = [
        # the Erdős–Jacobson–Lehel clique form, sigma(K_{r+1}, n) =
        # (r-1)(2n-r) + 2 for n large enough, proved for K3 by Gould,
        # Jacobson and Lehel and for larger cliques by Li, Song and Luo.
        # Below the first n a regular sequence beats it: 4^7,0 refutes K4
        # at n = 8 and 6^9,0 refutes K5 at n = 10, since the complement of
        # a 2-regular graph on 7 or 9 vertices has no independent 4 or 5 set
        (complete_graph(3), lambda n: 2 * n, 6, 12),
        (complete_graph(4), lambda n: 4 * n - 4, 9, 12),
        (complete_graph(5), lambda n: 6 * n - 10, 11, 12),
        # the cycle forms: sigma(C4, n) = 2 floor((3n-1)/2) (Gould,
        # Jacobson and Lehel), and, for m >= 2, sigma(C_{2m+1}, n) =
        # m(2n-m-1) + 2 and sigma(C_{2m+2}, n) = m(2n-m-1) + 4 (Gould,
        # Jacobson and Lehel's conjecture, proved for C5 and C6 by Lai
        # Chunhui, with other cases by others)
        (cycle_graph(4), lambda n: 2 * ((3 * n - 1) // 2), 4, 12),
        (cycle_graph(5), lambda n: 4 * n - 4, 5, 12),
        (cycle_graph(6), lambda n: 4 * n - 2, 7, 12),
        (cycle_graph(7), lambda n: 6 * n - 10, 8, 10),
        (cycle_graph(8), lambda n: 6 * n - 8, 10, 10),
        # stars: a sequence is potentially K_{1,s}-graphic iff d1 >= s, and
        # 2^n (the cycle C_n) is the largest sum with d1 <= 2
        (complete_bipartite(1, 3), lambda n: 2 * n + 2, 4, 12),
    ]
    for h, form, first, last in forms:
        lengths = list(range(first, last + 1)) + ([20] if last == 12 else [])
        for n in lengths:
            assert sigma_exact(h, n, cap_n=20).value == form(n), (h.edges(), n)


def test_sigma_from_threads():
    # README's concurrency claim: threads sharing the module agree with a
    # serial run, with the interpreter switching threads every microsecond
    graphs = list(corpus().values())
    want = [sigma_exact(h, 8) for h in graphs]
    results, errors = {}, []

    def run(i):
        try:
            results[i] = [sigma_exact(h, 8) for h in graphs]
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [results[i] for i in range(4)] == [want] * 4


def test_oracle_keeps_no_module_state():
    # decisions are not memoized: no container at module level grows
    # with the sequences decided
    sigma_exact(cycle_graph(5), 8)
    for _ in range(2):
        potentially(seq("7,6,3,3,2,2,2,1"), cycle_graph(6))
    state = {
        name: type(value).__name__
        for name, value in vars(oracle).items()
        if not name.startswith("__") and isinstance(value, (dict, list, set))
    }
    assert state == {}


def test_sigma_requires_enough_vertices_and_caps():
    with pytest.raises(ValueError):
        sigma_exact(complete_graph(4), 3)
    with pytest.raises(CapExceededError):
        sigma_exact(complete_graph(3), 11)


# --- exhaustive cross-validation against all labeled graphs ----------------------


def _potentially_by_all_graphs(s, h):
    """Fully independent decision: scan every labeled graph on n vertices,
    keep those realizing the sequence, and test containment by brute
    permutation search."""
    n = s.n
    pairs = list(combinations(range(n), 2))
    target = s.terms
    from itertools import permutations as perms

    hedges = h.edges()
    for mask in range(1 << len(pairs)):
        adj = [0] * n
        for i, (u, v) in enumerate(pairs):
            if (mask >> i) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        if tuple(sorted((a.bit_count() for a in adj), reverse=True)) != target:
            continue
        for pi in perms(range(n), h.k):
            if all((adj[pi[u]] >> pi[v]) & 1 for u, v in hedges):
                return True
    return False


def test_potentially_matches_all_graph_enumeration_n5():
    hs = [complete_graph(3), path_graph(4), complete_split(1, 2), cycle_graph(4),
          complete_split(2, 2), SmallGraph(3, [(0, 1)])]
    for s in enumerate_graphic_sequences(5):
        for h in hs:
            assert potentially(s, h).answer == _potentially_by_all_graphs(s, h), (s, h)


def test_potentially_matches_all_graph_enumeration_n6_sampled():
    rng = random.Random(616)
    hs = [complete_graph(4), cycle_graph(5), complete_split(2, 2), path_graph(5),
          cycle_graph(6), SmallGraph(4, [(0, 1), (2, 3)])]
    pool = list(enumerate_graphic_sequences(6))
    for s in rng.sample(pool, 30):
        for h in hs:
            assert potentially(s, h).answer == _potentially_by_all_graphs(s, h), (s, h)


# --- independent cross-check against the graph atlas -----------------------------


def test_potentially_matches_graph_atlas_up_to_n7():
    # networkx's atlas lists every graph on at most 7 vertices up to
    # isomorphism, so a sequence is potentially H-graphic iff VF2 finds H
    # as a subgraph (not necessarily induced) of an atlas graph realizing it
    from networkx import Graph, graph_atlas_g
    from networkx.algorithms.isomorphism import GraphMatcher

    by_sequence = {}
    for g in graph_atlas_g():
        if g.number_of_nodes():
            terms = tuple(sorted((d for _, d in g.degree()), reverse=True))
            by_sequence.setdefault(terms, []).append(g)
    assert set(by_sequence) == {s.terms for n in range(1, 8) for s in enumerate_graphic_sequences(n)}
    assert len(by_sequence) == 493
    patterns = corpus_patterns()
    pairs = 0
    for p in patterns:
        pattern = Graph(p.edges())
        pattern.add_nodes_from(range(p.k))
        for terms, hosts in by_sequence.items():
            if p.k > len(terms):
                continue
            pairs += 1
            want = any(GraphMatcher(g, pattern).subgraph_is_monomorphic() for g in hosts)
            assert potentially(DegreeSequence(terms), p).answer == want, (terms, p)
    assert (len(patterns), pairs) == (17, 8183)


def test_d1_classes_cover_every_deletion_once_per_class():
    # the dominating-head strip tries one one-vertex-deleted subgraph per
    # isomorphism class; networkx's VF2, behind a degree-sequence filter,
    # must find no two representatives isomorphic and every deletion
    # isomorphic to one of them, hence to exactly one. Each representative
    # is the induced subgraph on the vertices its deletion keeps.
    # deleted_family with two deletions is held to the same on the graphs
    # with at most 6 vertices, and deleting every vertex leaves only the
    # empty graph.
    from networkx import Graph, graph_atlas_g, is_isomorphic as nx_isomorphic

    def to_nx(g):
        out = Graph(g.edges())
        out.add_nodes_from(range(g.k))
        return out

    def iso(a, b):
        return sorted(d for _, d in a.degree()) == sorted(d for _, d in b.degree()) and nx_isomorphic(a, b)

    def check(h, t, classes):
        deletions = {
            d: h.induced([u for u in range(h.k) if u not in d]) for d in combinations(range(h.k), t)
        }
        for sub, d in classes:
            assert sub == deletions[d], (h, d)
        reps = [to_nx(sub) for sub, _ in classes]
        assert not any(iso(a, b) for a, b in combinations(reps, 2)), (h, t)
        rep_deletions = {d for _, d in classes}
        for d, sub in deletions.items():
            if d not in rep_deletions:
                assert any(iso(to_nx(sub), r) for r in reps), (h, d)

    checked = 0
    for g in graph_atlas_g()[1:]:
        k = g.number_of_nodes()
        h = SmallGraph(k, g.edges())
        check(h, 1, [(sub, (v,)) for sub, v in oracle._d1_classes(h)])
        if 2 <= k <= 6:
            check(h, 2, list(deleted_family(h, 2)))
            checked += 1
        assert list(deleted_family(h, k)) == [(SmallGraph(0), tuple(range(k)))]
    assert checked == 207


# --- target sequences are never potentially graphic ------------------------------


def test_targets_refuted_small():
    from potnum.potential import target_sequence

    for h in (complete_graph(3), complete_graph(4), cycle_graph(5)):
        from potnum.potential import profile

        p = profile(h)
        for i in range(p.alpha + 1, p.k + 1):
            for n in range(p.k + 2, 9):
                ts = target_sequence(h, i, n)
                assert not potentially(ts.seq, h).answer, (h, i, n)
