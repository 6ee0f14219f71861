"""Degree-sequence arithmetic: examples and randomized invariants."""

import random
from functools import lru_cache
from itertools import chain, combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from potnum.sequences import (
    DegreeSequence,
    _graphic_desc,
    degree_sufficient,
    is_graphic,
    l1_distance,
    layoff,
    layoff_batch_below,
    parse_sequence,
)


def seq(text):
    return parse_sequence(text)


# --- construction and text format -----------------------------------------


def test_canonical_form_sorts_and_keeps_zeros():
    s = DegreeSequence([1, 3, 0, 2])
    assert s.terms == (3, 2, 1, 0)
    assert s.n == 4


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        DegreeSequence([2, -1])


def test_parse_run_length_and_plain():
    assert seq("7,1^7").terms == (7,) + (1,) * 7
    assert seq(" 4, 4 , 1^6 ").terms == (4, 4) + (1,) * 6
    assert seq("").terms == ()
    assert seq("0^3").terms == (0, 0, 0)


# the last one passes the cap of 10**6 terms only across two items
@pytest.mark.parametrize("bad", ["1,,2", "x", "2^-1", "-3", "1^", "1^1000000,1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_sequence(bad)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 20), max_size=40).map(DegreeSequence))
def test_text_round_trip_exact(s):
    assert parse_sequence(s.to_text()) == s


def test_text_uses_caret_for_long_runs_only():
    assert seq("7,1^7").to_text() == "7,1^7"
    assert DegreeSequence([4, 4, 1, 1, 1, 1, 1, 1]).to_text() == "4,4,1^6"


# --- sum --------------------------------------------------------------------


def test_sum_examples():
    assert seq("7,1^7").sum() == 14
    assert seq("").sum() == 0
    assert seq("4,4,1^6").sum() == 14


# --- graphicality ------------------------------------------------------------


def test_is_graphic_examples():
    assert is_graphic(seq("3,3,3,3"))
    assert not is_graphic(seq("3,3,1,1"))
    assert is_graphic(seq("7,1^7"))


def test_is_graphic_edge_cases():
    assert is_graphic(seq(""))
    assert is_graphic(seq("0^5"))
    assert not is_graphic(seq("1"))  # odd sum
    assert not is_graphic(seq("5,1,1,1,1"))  # d1 > n-1


@lru_cache(maxsize=None)
def _realizable(terms):
    """Independent realization-existence search (no Erdős–Gallai anywhere):
    branch over every possible neighbor set of the top vertex."""
    terms = tuple(sorted(terms, reverse=True))
    if not terms or terms[0] == 0:
        return True
    d, rest = terms[0], list(terms[1:])
    positive = [i for i, v in enumerate(rest) if v > 0]
    if d > len(positive):
        return False
    seen = set()
    for pick in combinations(positive, d):
        nxt = rest[:]
        for i in pick:
            nxt[i] -= 1
        key = tuple(sorted(nxt, reverse=True))
        if key in seen:
            continue
        seen.add(key)
        if _realizable(key):
            return True
    return False


def test_is_graphic_agrees_with_search_oracle_up_to_n6():
    for n in range(0, 7):
        for terms in _all_nonincreasing(n, n - 1 if n else 0):
            s = DegreeSequence(terms)
            assert is_graphic(s) == _realizable(terms), terms


def _all_nonincreasing(n, bound):
    if n == 0:
        yield ()
        return
    for first in range(bound, -1, -1):
        for rest in _all_nonincreasing(n - 1, first):
            yield (first,) + rest


def _textbook_erdos_gallai(terms):
    """Even sum and, at every p = 1..n, the inequality
    d_1 + ... + d_p <= p(p-1) + sum_{i>p} min(d_i, p)."""
    return sum(terms) % 2 == 0 and all(
        sum(terms[:p]) <= p * (p - 1) + sum(min(d, p) for d in terms[p:])
        for p in range(1, len(terms) + 1)
    )


def test_graphic_desc_matches_textbook_erdos_gallai_up_to_n10():
    # the uncached routine tests only where the sequence steps down and
    # stops at the corrected Durfee number; every nonincreasing tuple with
    # terms at most n - 1, odd sums included, and heads of n and n + 1
    checked = 0
    for n in range(11):
        below = range(n - 1, -1, -1)
        heads = ((head, *rest) for head in (n, n + 1) for rest in combinations_with_replacement(below, n - 1))
        for terms in chain(combinations_with_replacement(below, n), heads if n else ()):
            assert _graphic_desc.__wrapped__(terms) == _textbook_erdos_gallai(terms), terms
            checked += 1
    assert checked == 257871


# --- layoff -------------------------------------------------------------------


def test_layoff_examples():
    assert layoff(seq("2,2,2,2"), 4).terms == (2, 1, 1)
    assert layoff(seq("3,3,3,3"), 1).terms == (2, 2, 2)
    assert layoff(seq("7,1^7"), 1).terms == (0,) * 7


def test_layoff_index_out_of_range():
    with pytest.raises(ValueError):
        layoff(seq("2,2"), 3)
    with pytest.raises(ValueError):
        layoff(seq("2,2"), 0)


def test_layoff_non_graphic_consistent_raises():
    # laying off the 3 would need three other positive terms
    with pytest.raises(ValueError):
        layoff(DegreeSequence([3, 0, 0]), 1)


def _random_graphic(rng, n):
    while True:
        s = DegreeSequence(rng.randrange(0, n) for _ in range(n))
        if is_graphic(s):
            return s


def test_layoff_sum_identity_and_preserves_graphic():
    rng = random.Random(20240)
    for _ in range(300):
        n = rng.randrange(2, 10)
        s = _random_graphic(rng, n)
        i = rng.randrange(1, n + 1)
        out = layoff(s, i)
        assert out.n == n - 1
        assert out.sum() == s.sum() - 2 * s.term(i)
        assert is_graphic(out)


def test_layoff_preserves_graphic_exhaustive_small():
    # every index of every graphic sequence up to length 6
    from potnum.oracle import enumerate_graphic_sequences

    for n in range(2, 7):
        for s in enumerate_graphic_sequences(n):
            for i in range(1, n + 1):
                out = layoff(s, i)
                assert is_graphic(out)
                assert out.sum() == s.sum() - 2 * s.term(i)


# --- batched layoff -------------------------------------------------------------


def test_layoff_batch_below_examples():
    s = seq("7,1^7")
    out, j, total = layoff_batch_below(s, 1)
    assert (out, j, total) == (s, 0, 0)

    s = seq("3,3,2,1,1")
    out, j, total = layoff_batch_below(s, 2)
    assert j == 2 and total <= 2
    assert out.terms and out.terms[-1] >= 2
    assert out.sum() == s.sum() - 2 * total

    s = seq("2,2,2,2")
    out, j, total = layoff_batch_below(s, 3)
    assert out.n == 0 and j == 4
    assert out.sum() == s.sum() - 2 * total


def test_layoff_batch_bookkeeping_random():
    rng = random.Random(99)
    for _ in range(200):
        n = rng.randrange(1, 10)
        s = _random_graphic(rng, n)
        thr = rng.randrange(0, n + 1)
        out, j, total = layoff_batch_below(s, thr)
        assert total <= j * max(thr - 1, 0)
        assert out.sum() == s.sum() - 2 * total
        assert out.n == s.n - j
        assert out.n == 0 or out.terms[-1] >= thr
        assert is_graphic(out)


def test_layoff_batch_negative_threshold_rejected():
    with pytest.raises(ValueError):
        layoff_batch_below(seq("1,1"), -1)


def _layoff_batch_by_layoff(s, threshold):
    """The lay-off batch as repeated ``layoff`` of the last term."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    count = total = 0
    while s.n and s.terms[-1] < threshold:
        total += s.terms[-1]
        s = layoff(s, s.n)
        count += 1
    return s, count, total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def test_layoff_batch_below_matches_repeated_layoff():
    from potnum.oracle import enumerate_graphic_sequences

    graphic = [s for n in range(9) for s in enumerate_graphic_sequences(n)]
    for s in graphic:
        for threshold in range(s.n + 1):
            assert layoff_batch_below(s, threshold) == _layoff_batch_by_layoff(s, threshold), (s, threshold)
    # the errors, on sequences graphic or not: a negative threshold, and a
    # minimum term too large to lay off from the length it has left
    for n in range(6):
        for terms in combinations_with_replacement(range(n + 2), n):
            s = DegreeSequence(terms)
            for threshold in range(-1, n + 3):
                assert _outcome(layoff_batch_below, s, threshold) == _outcome(
                    _layoff_batch_by_layoff, s, threshold
                ), (s, threshold)
    assert _outcome(layoff_batch_below, seq("3,3,3"), 4) == "term 3 too large to lay off from length 3"


# --- distances -------------------------------------------------------------------


def test_l1_examples():
    assert l1_distance(seq("4,4,1^6"), seq("7,1^7")) == 6
    assert l1_distance(seq("3,2,1"), seq("3,2,1")) == 0
    assert l1_distance(seq("2,2"), seq("2")) == 2


def test_l1_is_a_metric():
    rng = random.Random(5)
    pool = [
        DegreeSequence(rng.randrange(0, 8) for _ in range(rng.randrange(0, 9)))
        for _ in range(60)
    ]
    for a in pool[:20]:
        for b in pool[:20]:
            d = l1_distance(a, b)
            assert d == l1_distance(b, a)
            assert (d == 0) == (_padded(a, b) == _padded(b, a))
    for _ in range(300):
        a, b, c = rng.sample(pool, 3)
        assert l1_distance(a, c) <= l1_distance(a, b) + l1_distance(b, c)


def _padded(a, b):
    n = max(a.n, b.n)
    return a.terms + (0,) * (n - a.n)


# --- degree sufficiency ---------------------------------------------------------


def test_degree_sufficient_examples():
    k4 = seq("3,3,3,3")
    k3 = seq("2,2,2")
    assert degree_sufficient(seq("3,3,3,3"), k4)
    assert not degree_sufficient(seq("4,4,1^6"), k3)
    assert degree_sufficient(seq("3,2,2,2,1"), k3)


def test_degree_sufficient_rejects_longer_pattern():
    with pytest.raises(ValueError):
        degree_sufficient(seq("2,2"), seq("1,1,1"))
