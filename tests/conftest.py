"""Shared fixtures and independent oracles for the test suite."""

from functools import lru_cache
from itertools import combinations

from potnum.graphs import (
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    friendship_graph,
    path_graph,
)
from potnum.oracle import _d1_classes


def corpus():
    """The eight-graph verification corpus used across the suite."""
    return {
        "K3": complete_graph(3),
        "K4": complete_graph(4),
        "C5": cycle_graph(5),
        "C6": cycle_graph(6),
        "P4": path_graph(4),
        "K23": complete_bipartite(2, 3),
        "split23": complete_split(2, 3),
        "friendship2": friendship_graph(2),
    }


def corpus_patterns():
    """The corpus graphs and their one-vertex-deleted classes, 17 in all."""
    graphs = corpus().values()
    return list(dict.fromkeys([*graphs, *(sub for h in graphs for sub, _ in _d1_classes(h))]))


def yin_li(terms, k):
    """The Yin–Li sufficient condition for a potentially K_k-graphic
    nonincreasing sequence, both clauses, written apart from the
    enumerator's prefix prune: d_k >= k-1, together with either
    d_i >= 2(k-1)-i for every i <= k-2, or d_2k >= k-2. False only
    means undecided."""
    n = len(terms)
    if k < 1 or n < k or terms[k - 1] < k - 1:
        return False
    if all(terms[i - 1] >= 2 * (k - 1) - i for i in range(1, k - 1)):
        return True
    return n >= 2 * k and terms[2 * k - 1] >= k - 2


@lru_cache(maxsize=None)
def realizable_by_search(terms):
    """Realization existence by pure search, independent of any
    graphicality formula: branch over every neighbor set of the top term."""
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
        if realizable_by_search(key):
            return True
    return False
