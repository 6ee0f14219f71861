"""Checkers that hold potnum's answers against computations made apart from it.

Nothing here imports potnum. Graphs are edge lists on vertices 0..k-1,
realizations are tuples of adjacency bitmasks, and subgraph containment
is decided by networkx's matcher. Every ``check_*`` function returns a
list of problems; an empty list means the answer was verified.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
from networkx.algorithms.isomorphism import GraphMatcher

Edges = Tuple[Tuple[int, int], ...]


def _clique(k: int) -> Edges:
    return tuple(combinations(range(k), 2))


# The eight-graph test corpus, written out as edge lists.
CORPUS: Dict[str, Tuple[int, Edges]] = {
    "K3": (3, _clique(3)),
    "K4": (4, _clique(4)),
    "C5": (5, tuple((i, (i + 1) % 5) for i in range(5))),
    "C6": (6, tuple((i, (i + 1) % 6) for i in range(6))),
    "P4": (4, ((0, 1), (1, 2), (2, 3))),
    "K23": (5, tuple((i, 2 + j) for i in range(2) for j in range(3))),
    "split23": (5, ((0, 1),) + tuple((i, 2 + j) for i in range(2) for j in range(3))),
    "friendship2": (5, ((0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4))),
}

# Reference potential numbers sigma(H, n) of the corpus. The sigma_corpus
# workload checks the n = 10 column against the program on every run
# (lower bound by realization search, upper bound by certified samples);
# the other columns only place the check_near and probe_near inputs.
SIGMA: Dict[str, Dict[int, int]] = {
    "K3": {8: 16, 9: 18, 10: 20},
    "K4": {8: 30, 9: 32, 10: 36},
    "C5": {8: 28, 9: 32, 10: 36},
    "C6": {8: 30, 9: 34, 10: 38},
    "P4": {8: 16, 9: 18, 10: 20},
    "K23": {8: 28, 9: 30, 10: 32},
    "split23": {8: 30, 9: 34, 10: 38},
    "friendship2": {8: 28, 9: 32, 10: 36},
}


def nx_graph(k: int, edges: Sequence[Sequence[int]]) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(k))
    g.add_edges_from(tuple(e) for e in edges)
    return g


def degrees(k: int, edges: Sequence[Sequence[int]]) -> List[int]:
    out = [0] * k
    for u, v in edges:
        out[u] += 1
        out[v] += 1
    return out


# ---------------------------------------------------------------------------
# Sequences


def graphic(terms: Sequence[int]) -> bool:
    return nx.is_graphical(list(terms), method="eg")


def graphic_sequences(n: int, total: int) -> Iterator[Tuple[int, ...]]:
    """Nonincreasing graphic sequences of length n and the given sum."""

    def parts(remaining: int, slots: int, bound: int) -> Iterator[Tuple[int, ...]]:
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        if remaining > slots * bound:
            return
        for first in range(min(bound, remaining), -1, -1):
            for rest in parts(remaining - first, slots - 1, first):
                yield (first,) + rest

    if total % 2:
        return
    for p in parts(total, n, n - 1):
        if graphic(p):
            yield p


def l1(a: Sequence[int], b: Sequence[int]) -> int:
    a, b = sorted(a, reverse=True), sorted(b, reverse=True)
    if len(a) < len(b):
        a, b = b, a
    b = b + [0] * (len(a) - len(b))
    return sum(abs(x - y) for x, y in zip(a, b))


def parse_text(text: str) -> Tuple[int, ...]:
    """Run-length text such as ``7,1^7`` to a nonincreasing tuple."""
    out: List[int] = []
    for piece in text.split(","):
        value, _, count = piece.partition("^")
        out += [int(value)] * (int(count) if count else 1)
    return tuple(sorted(out, reverse=True))


def to_text(terms: Sequence[int]) -> str:
    parts: List[str] = []
    i = 0
    while i < len(terms):
        j = i
        while j < len(terms) and terms[j] == terms[i]:
            j += 1
        parts += [f"{terms[i]}^{j - i}"] if j - i >= 3 else [str(terms[i])] * (j - i)
        i = j
    return ",".join(parts)


def dominated(terms: Sequence[int], k: int, edges: Edges) -> bool:
    """Degree domination: the top k terms cover H's sorted degrees. Its
    failure refutes containment in every realization."""
    hdeg = sorted(degrees(k, edges), reverse=True)
    return len(terms) >= k and all(terms[i] >= hdeg[i] for i in range(k))


# ---------------------------------------------------------------------------
# Realizations and containment


def havel_hakimi(terms: Sequence[int]) -> Tuple[int, ...]:
    """Realization as adjacency masks: the pivot of largest remaining demand
    (lowest index on ties) joins the next-largest demands."""
    n = len(terms)
    rem = list(terms)
    adj = [0] * n
    while True:
        u = min(range(n), key=lambda v: (-rem[v], v))
        if rem[u] == 0:
            return tuple(adj)
        targets = sorted((v for v in range(n) if v != u and rem[v] > 0),
                         key=lambda v: (-rem[v], v))[: rem[u]]
        if len(targets) < rem[u]:
            raise ValueError(f"{to_text(terms)} is not graphic")
        for v in targets:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rem[v] -= 1
        rem[u] = 0


def mask_edges(adj: Sequence[int]) -> List[Tuple[int, int]]:
    return [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj)) if adj[u] >> v & 1]


def contains(adj: Sequence[int], h: nx.Graph) -> bool:
    """Some injective map carries every edge of h to an edge of the host."""
    host = nx_graph(len(adj), mask_edges(adj))
    return GraphMatcher(host, h).subgraph_is_monomorphic()


def two_switches(adj: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """Every realization one 2-switch away: edges ab, cd become ac, bd."""
    edges = mask_edges(adj)
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1:]:
            if len({a, b, c, d}) < 4:
                continue
            for x, y in ((c, d), (d, c)):
                if adj[a] >> x & 1 or adj[b] >> y & 1:
                    continue
                new = list(adj)
                new[a] ^= (1 << b) | (1 << x)
                new[b] ^= (1 << a) | (1 << y)
                new[x] ^= (1 << y) | (1 << a)
                new[y] ^= (1 << x) | (1 << b)
                yield tuple(new)


def realization_search(terms: Sequence[int], k: int, edges: Edges) -> Tuple[bool, int]:
    """Whether some realization of ``terms`` contains H, by breadth-first
    search over 2-switches from a Havel–Hakimi realization. All labeled
    realizations of a sequence are connected by 2-switches (Hakimi 1962),
    so a False answer covers every one. Returns (found, realizations seen)."""
    h = nx_graph(k, edges)
    start = havel_hakimi(terms)
    seen = {start}
    queue = deque([start])
    while queue:
        adj = queue.popleft()
        if contains(adj, h):
            return True, len(seen)
        for nxt in two_switches(adj):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return False, len(seen)


RULES = ("degree", "yin_li", "dominating_head", "hh_fast", "full_search")


def yin_li(terms: Sequence[int], k: int) -> bool:
    """Yin–Li: d_k >= k-1 and either d_i >= 2(k-1)-i for i <= k-2 or
    d_2k >= k-2 force a k-clique, hence every graph of order k."""
    n = len(terms)
    if n < k or terms[k - 1] < k - 1:
        return False
    return all(terms[i - 1] >= 2 * (k - 1) - i for i in range(1, k - 1)) or (
        n >= 2 * k and terms[2 * k - 1] >= k - 2)


def decision_rule(terms: Sequence[int], k: int, edges: Edges) -> str:
    """The first rule of the oracle's cascade that settles the pair: degree
    pre-check, Yin–Li, dominating head, Havel–Hakimi realization plus
    embedding, else the full placement search."""
    if not dominated(terms, k, edges):
        return "degree"
    if yin_li(terms, k):
        return "yin_li"
    if terms[0] == len(terms) - 1:
        return "dominating_head"
    if contains(havel_hakimi(terms), nx_graph(k, edges)):
        return "hh_fast"
    return "full_search"


def complete_placement(terms: Sequence[int], k: int, edges: Edges,
                       embedding: Dict[int, int]) -> bool:
    """Whether a realization of ``terms`` carries H on ``embedding``: the
    image edges are fixed and the remaining demands are realized by
    backtracking around them."""
    n = len(terms)
    demand = list(terms)
    fixed = [0] * n
    for u, v in edges:
        a, b = embedding[u], embedding[v]
        fixed[a] |= 1 << b
        fixed[b] |= 1 << a
        demand[a] -= 1
        demand[b] -= 1
    if min(demand) < 0:
        return False
    failed = set()

    def solve(dem: Tuple[int, ...], used: Tuple[int, ...]) -> bool:
        if not any(dem):
            return True
        if (dem, used) in failed or not graphic(sorted(dem, reverse=True)):
            return False
        u = max(range(n), key=lambda v: (dem[v], -v))
        free = [v for v in range(n) if v != u and dem[v] > 0 and not used[u] >> v & 1]
        for pick in combinations(free, dem[u]):
            nd, nu = list(dem), list(used)
            nd[u] = 0
            for v in pick:
                nd[v] -= 1
                nu[u] |= 1 << v
                nu[v] |= 1 << u
            if solve(tuple(nd), tuple(nu)):
                return True
        failed.add((dem, used))
        return False

    return solve(tuple(demand), tuple(fixed))


# ---------------------------------------------------------------------------
# Profile quantities, from the definitions


def independence(k: int, edges: Edges) -> int:
    adj = [0] * k
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return max(len(s) for r in range(k + 1) for s in combinations(range(k), r)
               if all(not adj[a] >> b & 1 for a, b in combinations(s, 2)))


def nabla(k: int, edges: Edges, i: int) -> int:
    """Minimum over order-i induced subgraphs of their maximum degree."""
    return min(max(degrees(k, [(a, b) for a, b in edges if a in s and b in s])[v] for v in s)
               for s in map(set, combinations(range(k), i)))


@lru_cache(maxsize=None)
def sigma_tilde(k: int, edges: Edges) -> Dict[int, int]:
    """The per-order coefficients 2(k-i) + nabla_i - 1 for alpha < i <= k."""
    alpha = independence(k, edges)
    return {i: 2 * (k - i) + nabla(k, edges, i) - 1 for i in range(alpha + 1, k + 1)}


def target(k: int, edges: Edges, i: int, n: int) -> Tuple[int, ...]:
    """((n-1)^(k-i), (k-i+nabla_i-1)^(n-k+i)); the last term drops by one
    when the tail length and nabla_i - 1 are both odd."""
    nab = nabla(k, edges, i)
    tail = [k - i + nab - 1] * (n - k + i)
    if len(tail) % 2 and (nab - 1) % 2:
        tail[-1] -= 1
    return tuple(sorted([n - 1] * (k - i) + tail, reverse=True))


@lru_cache(maxsize=None)
def target_family(k: int, edges: Edges, n: int) -> List[Tuple[int, ...]]:
    """The target of every order i attaining the largest coefficient."""
    coef = sigma_tilde(k, edges)
    return [target(k, edges, i, n) for i in sorted(coef) if coef[i] == max(coef.values())]


def rho(k: int, edges: Edges, n: int) -> Tuple[int, ...]:
    """((n-1)^(k-a-2), ceil(m/2), floor(m/2), (k-a-1)^(n-k+a)), m = n+k-a-2."""
    a = independence(k, edges)
    m = n + k - a - 2
    return tuple(sorted([n - 1] * (k - a - 2) + [(m + 1) // 2, m // 2] + [k - a - 1] * (n - k + a),
                        reverse=True))


# ---------------------------------------------------------------------------
# Answer checks


def check_certificate(terms: Sequence[int], k: int, edges: Edges,
                      embedding: Dict[int, int], realization: Sequence[Sequence[int]]) -> List[str]:
    """A potentially-true certificate: the realization's degrees match the
    sequence position by position and the embedding is injective and
    carries every edge of H."""
    n = len(terms)
    problems = []
    if any(not (0 <= u < n and 0 <= v < n and u != v) for u, v in realization):
        return ["realization edge out of range or a loop"]
    pairs = {frozenset(e) for e in realization}
    if len(pairs) != len(realization):
        problems.append("realization repeats an edge")
    if degrees(n, realization) != list(terms):
        problems.append("realization degrees differ from the sequence")
    if sorted(embedding) != list(range(k)):
        problems.append("embedding does not map every vertex of H")
    elif len(set(embedding.values())) != k or any(not 0 <= v < n for v in embedding.values()):
        problems.append("embedding is not injective into the realization")
    else:
        missing = [e for e in edges if frozenset((embedding[e[0]], embedding[e[1]])) not in pairs]
        if missing:
            problems.append(f"embedding misses edges {missing}")
    return problems


def check_false(terms: Tuple[int, ...], name: str, proven_false: Optional[set] = None) -> List[str]:
    """A potentially-false answer: refuted by degree domination, by a stored
    realization-search verdict, or by running the search now."""
    k, edges = CORPUS[name]
    if not dominated(terms, k, edges):
        return []
    if proven_false is not None and (name, to_text(terms)) in proven_false:
        return []
    found, seen = realization_search(terms, k, edges)
    return [f"{to_text(terms)} vs {name}: a realization contains H ({seen} searched)"] if found else []


def check_sigma(name: str, n: int, value: int, maximizers: List[Tuple[int, ...]],
                proven_false: Optional[set] = None) -> List[str]:
    """sigma(H, n) against the reference table and its lower bound: every
    maximizer has length n and sum value - 2, is graphic, and no
    realization of it contains H. sigma(K3, n) = 2n for n >= 6."""
    problems = []
    if value != SIGMA[name][n]:
        problems.append(f"sigma({name}, {n}) = {value}, reference {SIGMA[name][n]}")
    if name == "K3" and n >= 6 and value != 2 * n:
        problems.append(f"sigma(K3, {n}) = {value}, not 2n")
    if not maximizers:
        problems.append(f"sigma({name}, {n}) has no maximizer")
    for seq in maximizers:
        if len(seq) != n or sum(seq) != value - 2 or not graphic(seq):
            problems.append(f"maximizer {to_text(seq)} is not a graphic length-{n} sequence of sum {value - 2}")
        else:
            problems += check_false(tuple(seq), name, proven_false)
    return problems


def check_probe(terms: Tuple[int, ...], name: str, verdict: Dict, lines: Optional[List[Dict]],
                realization: Optional[List[List[int]]]) -> List[str]:
    """One run_probe result: the removal accounting and the sum floor of its
    trace (when given), the verdict's certificate, checked against the
    realization when given and by completing the placement otherwise, and
    a close_to_target's family membership."""
    k, edges = CORPUS[name]
    n = len(terms)
    problems = [] if lines is None else check_probe_trace(terms, k, edges, lines)
    kind = verdict["verdict"]
    if kind in ("found_h", "found_split", "declared_potential"):
        if verdict.get("verified") is not True:
            problems.append(f"{kind} is not verified")
        elif "embedding" not in verdict:
            problems.append(f"{kind} carries no embedding")
        else:
            if kind == "declared_potential":
                sub_k, sub_edges = k, edges
            else:
                sub_k = verdict["subgraphOrder"]
                sub_edges = tuple((u - 1, v - 1) for u, v in verdict["subgraphEdges"])
            emb = {int(u) - 1: v - 1 for u, v in verdict["embedding"].items()}
            if realization is not None:
                problems += check_certificate(terms, sub_k, sub_edges, emb, realization)
            elif sorted(emb) != list(range(sub_k)) or len(set(emb.values())) != sub_k \
                    or not all(0 <= v < n for v in emb.values()) \
                    or not complete_placement(terms, sub_k, sub_edges, emb):
                problems.append(f"{kind} embedding is carried by no realization")
    elif kind == "close_to_target":
        near = parse_text(verdict["target"]["sequence"])
        if near not in target_family(k, edges, n):
            problems.append(f"target {to_text(near)} is not in the family of {name}")
        if verdict.get("distance") != l1(terms, near):
            problems.append("close_to_target distance is not the l1 distance")
    elif kind != "inconclusive":
        problems.append(f"unknown verdict {kind}")
    return problems


def check_probe_trace(terms: Tuple[int, ...], k: int, edges: Edges, lines: List[Dict]) -> List[str]:
    """The removal accounting adds up from one iteration to the next, and
    the sum floor holds at every iteration when the precondition held."""
    n = len(terms)
    head, iters = lines[0], [r for r in lines if r["record"] == "iteration"]
    problems = []
    coef = max(sigma_tilde(k, edges).values())
    precondition = sum(terms) >= (coef - Fraction(head["delta"])) * n
    if precondition != head["preconditionOk"]:
        problems.append("precondition flag disagrees with sum >= (sigma_tilde - delta) n")
    expected_n = n - (head["initLaidOff"] or 0)
    for rec in iters:
        seq = parse_text(rec["sequence"]) if rec["sequence"] else ()
        if rec["nT"] != expected_n or len(seq) != expected_n:
            problems.append(f"removal accounting off at t={rec['t']}")
        floor_ok = sum(seq) >= Fraction(rec["sumBound"])
        if floor_ok != rec["sumBoundOk"] or (precondition and not floor_ok):
            problems.append(f"sum floor fails at t={rec['t']} although the precondition held")
        expected_n -= sum(rec[key] or 0 for key in ("removedNonneighbors", "step3LaidOff", "step4LaidOff"))
    return problems
