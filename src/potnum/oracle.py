"""Ground-truth brute force at desk scale.

Exact potentially-H-graphic decisions, canonical realizations, and exact
potential numbers. A potential number scans the sequences of each sum
level with a depth-first recursion, one value of the first term at a
time: it collects that subtree's kept leaves in a list and yields them
before it builds the next subtree. It prunes prefixes by an Erdős–Gallai
bound and skips every subtree whose first k terms already satisfy the
Yin–Li clique condition. A frame takes its prefix as a tuple and passes
each child a longer tuple, so frames share no mutable state. A frame
has two terms or more still to place. Where the sum and the bounds leave
the terms after a value one completion, as they always do for the last
term, the frame builds that leaf itself instead of a chain of frames
with one value each: those frames only prune, and the leaf's own tests,
including the clique clause a skipped frame would have applied, drop
whatever they would. Each leaf of the scan is first tested for the split
host ``complete_split(k - alpha, alpha)``, which contains H, by one
residual-graphicity test, sound by construction: it places the host's
edges itself and asks only that the rest be graphic, so a leaf that
passes is graphic and has a realization containing H. Only a leaf that
fails it gets the Erdős–Gallai test. A graphic leaf then meets the
placement test, which places H itself and is sound in the same way,
unless H is its split host, where the split test is exact. Only a leaf
that fails both is decided, so few sequences that cannot refute are, and
its decision leaves out the placement rule, which the leaf has failed
already.

A frame that places a term at position k or later ends its loop at the
first value whose greedy completion holds the host. Every sequence the
break skips holds the host too, by a 2-switch lemma that
``_extend_prefix`` states and proves. Where the split test is exact, the
enumerator's output is the same with or without the break.

A potential number is found by induction on the length: at each sum,
sigma(H, m-1) bounds from below the smallest term of a sequence of
length m that can refute, so the enumerator is asked only for those, and
a level that holds none is not scanned. ``sigma_exact`` proves the bound
by a lay-off.

Yin–Li, the split test and the smallest-term bound only prune that
scan: a true answer carries a realization, and none of them builds one.
The placement test does build one, so it is also a rule of the decision.
One recursion decides a sequence. It tries these rules in order:

* the degree pre-check: the sorted degrees of H must fit under the head
  of the sequence;
* dominating heads (d1 = n-1) are stripped recursively, trading H for its
  one-vertex-deleted family, which keeps near-extremal sequences cheap;
* the Havel–Hakimi fast path: H embeds in the canonical realization;
* placement, ``_placement_holds`` on H's plan: H on the largest terms,
  the lay-off and a graphic residual. It comes after the fast path, so
  it changes none of that path's certificates, and it settles most true
  sequences the fast path misses before the exponential search below;
* otherwise the full placement search: the automorphism-distinct copies
  of H are placed on every degree-distinct k-subset of positions, and the
  leftover demands are realized by backtracking edge assignment avoiding
  the placed copy, pruned by Erdős–Gallai feasibility at each level. A
  copy that a swap of two adjacent slots on equal terms turns into an
  earlier copy is skipped: the two pose isomorphic residual problems. One
  enumerator, ``_prefix_choices``, gives both the position subsets (a
  prefix of each run of equal degree) and each pivot's partner sets (a
  prefix of each class of interchangeable partners).

The enumerator's leaves and the tuples that the recursion passes down
are canonical already (nonincreasing and nonnegative), so each is
wrapped in a ``DegreeSequence`` once, by ``sequences._canonical``,
without the constructor's sort. The canonical realization starts from
that order and, once every remaining demand is 0 or 1, pairs the
vertices of demand 1 in index order, as its remaining pivots would.

A true answer comes back as a witness builder, a callable that produces
the embedding and the realization only when a certificate is wanted, so
the σ scan builds none. A
false answer comes back as a falsy ``Refutation`` that names the rule
that refuted the sequence and the work that rule cost.

The length cap (n <= 10 by default) is an explicit argument; the graph
order cap, k <= 8, is fixed. Exceeding either raises, never truncates.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence
from functools import lru_cache, partial
from itertools import groupby, islice, permutations

from .graphs import (
    CapExceededError,
    SmallGraph,
    _from_masks,
    _max_independent_sets,
    deleted_family,
    find_embedding,
    independence_number,
)
from .sequences import DegreeSequence, _canonical, _graphic_desc, is_graphic

DEFAULT_CAP_N = 10
DEFAULT_CAP_K = 8


class Realization(namedtuple("_Realization", "graph sequence")):
    """Labeled realization: ``graph`` (a ``SmallGraph``) whose vertex i
    carries term i of ``sequence`` (a ``DegreeSequence``)."""

    __slots__ = ()

    def __new__(cls, graph: SmallGraph, sequence: DegreeSequence) -> Realization:
        if graph.degrees() != sequence.terms:
            raise ValueError("vertex degrees do not match the sequence positionally")
        return super().__new__(cls, graph, sequence)


class PotentialCertificate(
    namedtuple("PotentialCertificate", "answer embedding realization exhausted", defaults=(None, None, None))
):
    """The answer of ``potentially`` (bool). A true answer carries the
    ``embedding`` (dict from the vertices of H to positions) and the
    witnessing ``realization`` (a ``Realization``); a false one carries
    ``exhausted``, the refutation as a dict (``Refutation._asdict``)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        out: dict = {"potentially": self.answer}
        if self.embedding is not None:
            out["embedding"] = {str(u + 1): v + 1 for u, v in sorted(self.embedding.items())}
        if self.realization is not None:
            out["realizationEdges"] = [
                [u + 1, v + 1] for u, v in self.realization.graph.edges()
            ]
        if self.exhausted is not None:
            out["exhausted"] = dict(self.exhausted)
        return out


class SigmaExact(namedtuple("SigmaExact", "n value extremal_sequences chain")):
    """The potential number ``value`` = sigma(H, ``n``), every maximizer in
    ``extremal_sequences`` (a tuple of ``DegreeSequence``), and ``chain``,
    the tuple of sigma(H, m) for m = k..n, whose last entry is ``value``."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "value": self.value,
            "maximizers": [s.to_text() for s in self.extremal_sequences],
        }


# ---------------------------------------------------------------------------
# Realization construction


def canonical_realization(seq: DegreeSequence) -> Realization:
    """Havel–Hakimi construction: each pivot of maximum remaining demand
    connects to the next-highest demands; ties break toward lower index.

    The vertices are kept in (-demand, index) order: the pivot is the
    first vertex and its targets the next d of them. A canonical sequence
    is in that order already, so the first step sorts nothing; each later
    step is one stable sort by remaining demand, highest first. Vertex 0
    ends up adjacent to vertices 1..d1, so the maximum-degree vertex is
    adjacent to the d1 highest-degree others. Once every remaining demand
    is 0 or 1, the pivots left would each take the next vertex of demand
    1 in index order, so those vertices are paired off in that order
    without sorting; an odd count of them runs out of targets.

    The adjacency masks are built in the loop and not checked edge by
    edge: a pivot's targets are other vertices of positive demand, and its
    own demand is then zero, so no loop or repeated edge can arise.
    ``Realization`` still checks the degrees.
    """
    if not is_graphic(seq):
        raise ValueError(f"sequence {seq.to_text()} is not graphic")
    n = seq.n
    rem = list(seq.terms)
    adj = [0] * n
    order = range(n)
    while n and rem[order[0]] > 1:  # each step zeroes the pivot's demand
        u = order[0]
        du = rem[u]
        if du >= n or rem[order[du]] == 0:
            raise AssertionError("Havel–Hakimi ran out of targets on graphic input")
        for v in order[1:du + 1]:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            rem[v] -= 1
        rem[u] = 0
        order = sorted(range(n), key=rem.__getitem__, reverse=True)
    ones = [v for v in range(n) if rem[v]]
    if len(ones) % 2:
        raise AssertionError("Havel–Hakimi ran out of targets on graphic input")
    for u, v in zip(ones[::2], ones[1::2]):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Realization(graph=_from_masks(n, adj), sequence=seq)


# ---------------------------------------------------------------------------
# H preprocessing


@lru_cache(maxsize=1 << 12)
def _d1_classes(h: SmallGraph) -> tuple[tuple[SmallGraph, int], ...]:
    """One-vertex-deleted subgraphs up to isomorphism: (subgraph, deleted
    vertex), as ``deleted_family`` gives them."""
    return tuple((sub, v) for sub, (v,) in deleted_family(h, 1))


@lru_cache(maxsize=1 << 12)
def _distinct_copies(
    h: SmallGraph,
) -> tuple[tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...], int], ...]:
    """Distinct labeled copies of h on slots 0..k-1, one per edge set, in
    the order of the first permutation of h's vertices that gives each.

    Each entry is (sorted edge tuple, vertex map h-vertex -> slot, slot
    degrees, swap mask). Bit a of the swap mask is set when swapping slots
    a and a+1 turns the copy into one earlier in the list. The count is
    k!/|Aut(h)|; enumeration collapses automorphic duplicates.
    """
    k = h.k
    hedges = h.edges()
    # one bit per slot pair, so that an edge set is an int
    bit = [[1 << (a * k + b if a < b else b * k + a) for b in range(k)] for a in range(k)]
    swapped = [[*range(a), a + 1, a, *range(a + 2, k)] for a in range(k - 1)]
    index: dict[int, int] = {}
    out = []
    for perm in permutations(range(k)):
        key = 0
        for u, v in hedges:
            key |= bit[perm[u]][perm[v]]
        if key in index:
            continue
        edges = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in hedges))
        degrees = [0] * k
        for a, b in edges:
            degrees[a] += 1
            degrees[b] += 1
        swaps = 0
        for a, relabel in enumerate(swapped):
            image = 0
            for x, y in edges:
                image |= bit[relabel[x]][relabel[y]]
            if image in index:
                swaps |= 1 << a
        index[key] = len(out)
        out.append((edges, perm, tuple(degrees), swaps))
    return tuple(out)


@lru_cache(maxsize=1 << 12)
def _sorted_degrees(h: SmallGraph) -> tuple[int, ...]:
    return tuple(sorted(h.degrees(), reverse=True))


# ---------------------------------------------------------------------------
# Residual realizability: demands + forbidden pairs


def _prefix_choices(
    groups: list[list[int]], idx: int, need: int, left: int, acc: list[int]
) -> Iterator[list[int]]:
    """Every set of ``need`` members that takes a prefix of each group from
    ``idx`` on, larger counts first; ``left`` counts the members of those
    groups. Gives both the position subsets of the full search and the
    partner sets of the residual solver."""
    if need == 0:
        yield acc
        return
    if left < need:
        return
    group = groups[idx]
    left -= len(group)
    for take in range(min(len(group), need), -1, -1):
        yield from _prefix_choices(groups, idx + 1, need - take, left, acc + group[:take])


def _solve_residual(demands: list[int], forb: Sequence[int]) -> list[tuple[int, int]] | None:
    """Edge set realizing ``demands`` while avoiding forbidden pairs, or
    None, with ``demands`` as they were, if there is none.

    Pivot on the vertex of maximum remaining demand; candidate partners
    collapse into interchangeability classes (equal demand, equal
    forbidden-partner set among active vertices), and ``_prefix_choices``
    branches on class counts only. Erdős–Gallai feasibility prunes each
    node.
    """
    n = len(demands)
    du = max(demands, default=0)
    if du == 0:
        return []
    u = demands.index(du)
    active_mask = 0
    for v in range(n):
        if demands[v] > 0:
            active_mask |= 1 << v
    cands = [
        v for v in range(n)
        if v != u and demands[v] > 0 and not (forb[u] >> v) & 1
    ]
    if len(cands) < du:
        return None
    classes: dict[tuple[int, int], list[int]] = {}
    for v in cands:
        classes.setdefault((demands[v], forb[v] & active_mask), []).append(v)
    groups = [m for _, m in sorted(classes.items(), key=lambda kv: -kv[0][0])]
    demands[u] = 0
    for chosen in _prefix_choices(groups, 0, du, len(cands), []):
        for v in chosen:
            demands[v] -= 1
        if _graphic_desc(tuple(sorted(demands, reverse=True))):
            edges = _solve_residual(demands, forb)
            if edges is not None:
                edges.extend((u, v) for v in chosen)
                return edges
        for v in chosen:
            demands[v] += 1
    demands[u] = du
    return None


# ---------------------------------------------------------------------------
# Full placement search


class Refutation(namedtuple("Refutation", "rule subsets patterns residual_calls", defaults=(0, 0, 0))):
    """A false decision: the ``rule`` that refuted the sequence (str) and
    the work it cost, summed over the sub-decisions of a dominating-head
    strip: the position ``subsets`` the full search tried, the
    ``patterns`` (copies on a subset) it did not skip by a swap of
    equal-term slots, and its ``residual_calls`` (ints)."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return False


# A true decision: a callable returning (embedding, realization).
_Witness = Callable[[], tuple[dict[int, int], Realization]]
_Decision = _Witness | Refutation

_DEGREE_REFUTATION = Refutation("degree")


def _full_search(terms: tuple[int, ...], h: SmallGraph) -> _Decision:
    """Place every copy of h on every position subset that takes a
    prefix of each run of equal degree, as ``_prefix_choices`` gives them,
    and solve the residual demands around it.

    On a subset, a copy whose swap mask (``_distinct_copies``) shares a
    bit a with the subset's positions a and a+1 carrying equal terms is
    skipped. Swapping those slots turns it into an earlier copy whose
    residual problem is the same up to exchanging the two positions, so
    the skipped copy succeeds exactly when that one does. The first copy
    that succeeds is never skipped, since its earlier image would succeed
    before it, so the witness is the one the unskipped search finds.

    Returns a witness builder or a ``full_search`` refutation with its
    counts of subsets, unskipped patterns and residual calls. Complete on
    its own: any realization containing a copy of h induces a successful
    placement.
    """
    n = len(terms)
    k = h.k
    hdegs = _sorted_degrees(h)
    copies = _distinct_copies(h)

    # the positions, in runs of equal degree
    groups = [list(run) for _, run in groupby(range(n), terms.__getitem__)]
    subset_count = pattern_count = residual_calls = 0
    for positions in _prefix_choices(groups, 0, k, n, []):
        subset_count += 1
        if any(terms[p] < hdegs[idx] for idx, p in enumerate(positions)):
            continue
        # bit a: positions a and a+1 carry equal terms
        same = 0
        for a in range(k - 1):
            if terms[positions[a]] == terms[positions[a + 1]]:
                same |= 1 << a
        for slot_edges, vmap, slot_degrees, swaps in copies:
            if swaps & same:
                continue
            pattern_count += 1
            demands = list(terms)
            ok = True
            for p, dg in zip(positions, slot_degrees):
                demands[p] -= dg
                if demands[p] < 0:
                    ok = False
            if not ok:
                continue
            forb = [0] * n
            placed = []
            for a, b in slot_edges:
                pa, pb = positions[a], positions[b]
                forb[pa] |= 1 << pb
                forb[pb] |= 1 << pa
                placed.append((pa, pb))
            residual_calls += 1
            rest = _solve_residual(demands, forb)
            if rest is not None:
                embedding = {u: positions[vmap[u]] for u in range(k)}
                edges = placed + rest
                return lambda: (
                    embedding,
                    Realization(graph=SmallGraph(n, edges), sequence=_canonical(terms)),
                )
    return Refutation("full_search", subset_count, pattern_count, residual_calls)


# ---------------------------------------------------------------------------
# The decision procedure


def _decide(terms: tuple[int, ...], h: SmallGraph, place: bool = True) -> _Decision:
    """Is ``terms`` potentially h-graphic? A witness builder if so, else
    the refutation. The rules of the module docstring, in order; with
    ``place`` False, here and in the sub-decisions, without the placement
    rule, as the σ scan decides (see ``sigma_exact``)."""
    n = len(terms)
    k = h.k
    if n < k:
        return _DEGREE_REFUTATION
    hdegs = _sorted_degrees(h)
    if not hdegs or not hdegs[0]:  # h is edgeless
        return lambda: ({u: u for u in range(k)}, canonical_realization(_canonical(terms)))
    if any(map(int.__lt__, terms, hdegs)):
        return _DEGREE_REFUTATION
    if terms[0] == n - 1:
        lay = tuple(t - 1 for t in terms[1:])
        refuted = []
        for sub, deleted in _d1_classes(h):
            found = _decide(lay, sub, place)
            if not found:
                refuted.append(found)
                continue

            def lift():
                sub_emb, sub_real = found()
                edges = [(0, j + 1) for j in range(n - 1)]
                edges += [(u + 1, v + 1) for u, v in sub_real.graph.edges()]
                real = Realization(graph=SmallGraph(n, edges), sequence=_canonical(terms))
                return {u: 0 if u == deleted else sub_emb[u - (u > deleted)] + 1 for u in range(k)}, real

            return lift
        return Refutation("dominating_head", *map(sum, zip(*(r[1:] for r in refuted))))
    real = canonical_realization(_canonical(terms))
    emb = find_embedding(h, real.graph)
    if emb is not None:
        return lambda: (emb, real)
    return (place and _placement_holds(terms, _placement_plan(h))) or _full_search(terms, h)


def potentially(
    seq: DegreeSequence,
    h: SmallGraph,
    cap_n: int = DEFAULT_CAP_N,
) -> PotentialCertificate:
    """Exact decision: does some realization of ``seq`` contain ``h``?

    One call of the decision recursion, whose rules are, in order: the
    degree pre-check, the dominating-head strip, the Havel–Hakimi fast
    path, placement (H on the largest terms, a lay-off and a graphic
    residual) and the full placement search. When true, the witness
    builder of the rule that accepted gives an embedding plus a
    witnessing realization, so a true answer may come from placement.
    When false,
    ``exhausted`` holds the refutation: the ``rule`` that refuted the
    sequence (``degree``, ``dominating_head`` or ``full_search``) and the
    ``subsets``, ``patterns`` and ``residual_calls`` it searched, where
    ``patterns`` leaves out the copies skipped by a swap of equal-term
    slots. A repeat call reports the same.
    """
    if not is_graphic(seq):
        raise ValueError(f"sequence {seq.to_text()} is not graphic")
    if seq.n > cap_n:
        raise CapExceededError(f"length {seq.n} exceeds cap {cap_n}")
    if h.k > DEFAULT_CAP_K:
        raise CapExceededError(f"graph order {h.k} exceeds cap {DEFAULT_CAP_K}")
    found = _decide(seq.terms, h)
    if not found:
        return PotentialCertificate(answer=False, exhausted=found._asdict())
    embedding, real = found()
    adj = real.graph.adj
    for u, v in h.edges():
        if not (adj[embedding[u]] >> embedding[v]) & 1:
            raise AssertionError("certificate embedding does not carry an edge")
    return PotentialCertificate(answer=True, embedding=embedding, realization=real)


# ---------------------------------------------------------------------------
# Graphic sequence enumeration and exact potential numbers


def enumerate_graphic_sequences(
    n: int,
    total: int | None = None,
    *,
    host: tuple[int, int] | None = None,
    min_term: int | None = None,
) -> Iterator[DegreeSequence]:
    """All nonincreasing graphic sequences of length n (terms <= n-1), or
    only those whose terms are all at least ``min_term``, a nonnegative
    int (the smallest-term bound, proved in ``sigma_exact``).

    With ``total`` fixed, only sequences of that sum are produced, in
    lexicographically decreasing order. Without it, sums descend from
    n(n-1) to 0. Each level is built one value of the first term at a
    time, from n-1 down to ceil(total/n), below which the other terms
    could not make up the sum: ``_extend_prefix`` builds the kept
    sequences of that subtree into one list, they are yielded, and the
    list is cleared before the next subtree is built. So the memory held
    is that of the largest subtree's kept sequences, and a consumer that
    stops early pays only for the subtrees up to the one it stopped in.
    Lengths 0 and 1 have one candidate, all zeros, settled here.

    With a split host ``(r, s)``, the sequences that are potentially
    ``complete_split(r, s)``-graphic are left out, in the same order
    otherwise: every graph the host contains is potentially contained in
    them, so none can refute. Subtrees are skipped as soon as the first
    r+s terms settle the Yin–Li condition for the clique K_{r+s}, which
    contains the host, and a loop over a term at position r+s or later
    ends at the first value whose greedy completion passes
    ``_split_holds``: by the 2-switch lemma in ``_extend_prefix``, every
    sequence it skips is potentially host-graphic too. A value whose
    later terms have one completion gets that leaf built at once, with
    the clique clause of the frame it skips: the output is the same, by
    the proof in ``_extend_prefix``. Each leaf meets ``_split_holds``,
    unless it is a greedy completion found failing already, then its
    Erdős–Gallai test. ``host`` must be a
    pair of nonnegative ints; anything else raises ``ValueError``, as
    does a ``min_term`` that is not a nonnegative int.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if host is not None and not (
        isinstance(host, tuple) and len(host) == 2 and all(isinstance(x, int) and x >= 0 for x in host)
    ):
        raise ValueError("host must be a pair of nonnegative ints")
    if min_term is not None and not (isinstance(min_term, int) and min_term >= 0):
        raise ValueError("min_term must be a nonnegative int")
    if total is not None:
        totals = [total] if total % 2 == 0 and 0 <= total <= n * (n - 1) else []
    else:
        totals = list(range(n * (n - 1), -1, -2))
    k = sum(host) if host else 0
    least = min_term or 0
    if n < 2:
        # the one candidate is all zeros, at sum 0, the only level; at
        # length 1 its term lies below a positive ``least``
        leaf = (0,) * n
        if totals and not (n and least) and not (host and _split_holds(leaf, *host)):
            yield _canonical(leaf)
        return
    subtree: list[tuple[int, ...]] = []
    for s in totals:
        for d in range(n - 1, -(-s // n) - 1, -1):
            _extend_prefix((), n, s, host, k, 0, d, d, least, subtree)
            yield from map(_canonical, subtree)
            subtree.clear()


def _extend_prefix(
    prefix: tuple[int, ...],
    n: int,
    total: int,
    host: tuple[int, int] | None,
    k: int,
    placed: int,
    bound: int,
    low: int,
    least: int,
    out: list[tuple[int, ...]],
) -> None:
    """Depth-first over nonincreasing prefixes d1..dq, largest term first:
    appends to ``out``, as tuples in lexicographically decreasing order,
    the graphic sequences of sum ``total`` below the tuple ``prefix`` of
    length q and sum ``placed``, whose next term is at most ``bound`` and
    at least ``low`` and whose terms from q on are all at least ``least``,
    less those that hold the split ``host`` of order ``k`` (0 without a
    host). Each frame is one plain call that reads its prefix and passes
    each child a new tuple, so frames share no mutable state. The
    enumerator calls the top frame once per first-term value, with
    ``bound`` and ``low`` both that value; a frame below it gets ``low`` 0.

    The loop over term q runs from min(bound, r, r - (slots-1) least)
    down to max(low, ceil(r/slots)), r being the sum still to place and
    slots the terms still to place: the terms after it are at most it and
    at least ``least``. No value below ``least`` lies in that range:
    d >= r/slots gives r - (slots-1) least <= slots d - (slots-1) least,
    which is below d when d < least.

    A prefix is dropped when its sum exceeds q(q-1) + min(r, (n-q) min(q, dq)):
    no completion then meets the Erdős–Gallai inequality at q. A prefix that meets the first clause of
    the Yin–Li condition for K_k, which contains the host, is dropped too,
    since the clause then holds for every completion: d_k >= k-1 and
    d_i >= 2(k-1)-i for every i <= k-2 read only the first k terms. The
    frame that places term k finds the earlier terms fixed, so it lowers
    the range of that term below the values that would meet the clause.
    The second clause, d_k >= k-1 and d_2k >= k-2, gets no prune of its
    own: the leaf's split test settles what it would skip.

    A frame with q >= k, whose slots all lie past the host's positions,
    tests before it places value d the greedy completion g(d): the
    prefix, d repeated r // d times, the remainder, then zeros. When
    ``_split_holds(g(d))`` holds the frame returns: every completion
    with a value of at most d here, whatever its smallest term, has a tail
    that g(d)'s tail majorizes, so each is potentially host-graphic by
    this lemma. If a sequence has a realization with the host on positions
    0..k-1, moving one unit from a term a to a term b with a >= b + 2,
    both at positions k or later, keeps one. Vertex u (of degree a) has a
    neighbour w outside N[v] (v of degree b), since u has at least b + 1
    neighbours other than v; the 2-switch that replaces uw by vw keeps
    every other degree, and uw is no host edge because u lies outside the
    host's positions. A majorized tail is reached from the greedy one by
    such unit moves. The values before the first passing one fail, so a
    child's first value, whose greedy completion is its parent's for the
    value the parent placed, skips the test when the parent, at q - 1 >=
    k, made it. That completion is the one for the top before the clique
    prune and the bound ``least`` lower it; once either has, no value
    skips the test.

    After value d, write rest for the sum still to place and tail for the
    number of terms still to place, each in [least, d], and let over =
    rest - tail least and under = tail d - rest; the range of d makes both
    nonnegative. The completion is unique exactly when tail = 1, under <=
    1, over <= 1 or d - least <= 1: its terms then take two adjacent
    values, so it is v + 1 repeated j times and then v, (v, j) =
    divmod(rest, tail). The frame builds that leaf and tests it itself,
    in place of the chain of one-value frames that would lead to it, so
    every frame has two slots or more to fill. Those frames could only
    drop the leaf, and its tests drop it whenever they would, so the
    output is unchanged:

    * a skipped Erdős–Gallai prefix bound fails only if no completion is
      graphic, and then the leaf's exact Erdős–Gallai test fails;
    * the clique prune of a skipped frame that would place term k (q + 1
      < k < n) is applied to the leaf: it is dropped when d_k >= k-1 and
      d_i >= 2(k-1)-i for every i <= k-2;
    * a skipped greedy break found the host in a completion whose tail,
      from that frame's position on, majorizes the leaf's, so by the
      lemma the leaf has a realization that holds the host, and the split
      test, exact on graphic sequences, drops it.

    So the leaf meets ``_split_holds``, whose True drops it and proves it
    graphic, and then the exact Erdős–Gallai test. The split test is
    skipped when the frame has q >= k and the leaf is g(d), which it (or
    its parent) has found failing: so it is when under <= 1, tail = 1 or
    least = 0, and in no other case. A leaf gets no test of the second
    Yin–Li clause: one that meets it is potentially K_k-graphic, so the
    exact split test accepts it.
    """
    q = len(prefix)
    r = total - placed
    slots = n - q
    q1 = q + 1
    top = bound if bound < r else r
    # a parent at q - 1 >= k has tested, and found failing, the greedy
    # completion of the value it placed: this frame's for the top before
    # the clique prune and the bound on the terms after this one lower it
    tested = top if q > k else -1
    if q1 == k and top > k - 2 and all(prefix[i] >= 2 * k - 3 - i for i in range(k - 2)):
        top = k - 2
    cut = r - (slots - 1) * least  # leave ``least`` for each later term
    if cut < top:
        top = cut
    base = q1 * (q1 - 1)
    tail = slots - 1
    greedy = host and q >= k
    clique = q1 < k < n  # a frame below this one would place term k
    lo = -(-r // slots)
    for d in range(top, (lo if lo > low else low) - 1, -1):
        s = placed + d
        rest = total - s
        cap = tail * (q1 if q1 < d else d)
        if s > base + (rest if rest < cap else cap):
            continue
        if greedy and d != tested:
            m = r // d if d else slots
            if _split_holds(prefix + (d,) * m + (r - m * d,) * (m < slots) + (0,) * (slots - m - 1), *host):
                return
        under = tail * d - rest
        over = rest - tail * least
        if tail > 1 and under > 1 and over > 1 and d - least > 1:
            _extend_prefix(prefix + (d,), n, total, host, k, s, d, 0, least, out)
            continue
        v, j = divmod(rest, tail)
        leaf = prefix + (d,) + (v + 1,) * j + (v,) * (tail - j)
        if clique and leaf[k - 1] >= k - 1 and all(leaf[i] >= 2 * k - 3 - i for i in range(k - 2)):
            continue
        # the leaf is g(d), tested already, when under < 2, tail < 2 or least is 0
        if host and not (greedy and (under < 2 or tail < 2 or not least)) and _split_holds(leaf, *host):
            continue
        if _graphic_desc(leaf):
            out.append(leaf)


def _split_holds(terms: tuple[int, ...], r: int, s: int) -> bool:
    """Does ``terms`` (nonincreasing, terms >= 0) have a realization that
    contains ``complete_split(r, s)``? True only if one is found, which
    also proves ``terms`` graphic.

    The clique goes on positions 0..r-1 and is joined to positions
    r..r+s-1, so it needs d_r >= r+s-1 (each clique vertex reaches the
    rest of the host) and d_{r+s} >= r (each independent vertex reaches
    the clique). Each clique vertex in turn lays off its leftover demand,
    d_i - (r+s-1), onto the largest remaining terms past position r+s,
    which are re-sorted after each vertex. The answer is the graphicity
    of what is left on positions r.. (the s terms less r, then the rest).

    Sound by construction: any realization of that residual, plus the
    clique, join and layoff edges placed here, is a simple realization of
    ``terms`` that contains the split graph, so the enumerator skips the
    Erdős–Gallai test of a leaf that passes. That the test is also exact
    on graphic sequences (J.-H. Yin, Discrete Math. 311 (2011)) is checked
    against ``_decide``, not assumed.
    """
    m = r + s
    if len(terms) < m or (r and terms[r - 1] < m - 1) or (s and terms[m - 1] < r):
        return False
    rest = list(terms[m:])
    for d in terms[:r]:
        extra = d - (m - 1)
        if extra:
            if extra > len(rest) or rest[extra - 1] == 0:
                return False
            for j in range(extra):
                rest[j] -= 1
            rest.sort(reverse=True)
    return _graphic_desc(tuple(sorted([t - r for t in terms[r:m]] + rest, reverse=True)))


@lru_cache(maxsize=1 << 12)
def _placement_plan(
    h: SmallGraph,
) -> tuple[tuple[int, tuple[int, ...], tuple[tuple[int, ...], ...], tuple[int, ...]], ...]:
    """The distinct placements of h, one per maximum independent set I:
    (c = |V - I|, the positions' H-degrees, for each p < c the positions
    p+1..k-1 not H-adjacent to p, the H-vertex on each position), V - I
    then I, each by falling H-degree. Two vertex orders that give the same
    degrees and non-adjacencies place the same edges, so the first is
    kept."""
    k, deg, adj = h.k, h.degrees(), h.adj
    plan: dict[tuple, tuple[int, ...]] = {}
    for ind in _max_independent_sets(h):
        order = tuple(sorted(range(k), key=lambda v: (ind >> v & 1, -deg[v])))
        c = k - ind.bit_count()
        far = tuple(tuple(q for q in range(p + 1, k) if not adj[order[p]] >> order[q] & 1) for p in range(c))
        plan.setdefault((c, tuple(deg[v] for v in order), far), order)
    return tuple((*key, order) for key, order in plan.items())


def _placement_holds(terms: tuple[int, ...], plan: tuple) -> _Witness | None:
    """Does ``terms`` (nonincreasing, length >= k) have a realization with
    h on a placement of ``plan``? A witness builder if one is found, else
    None. Each position p < k owes its term less its H-degree; each p < c
    in turn lays off what it owes onto the largest demands at positions
    after p not H-adjacent to it, ties to the earlier position; what is
    left on positions c.., where no pair is an H edge, must be graphic.
    Sound by construction: H's edges, the lay-off edges and any
    realization of the residual make a simple realization of ``terms``
    that contains h. The builder joins those three edge sets, the residual
    realized by ``canonical_realization`` and mapped back to its
    positions; it runs only when a certificate is wanted."""
    for c, hdeg, far, order in plan:
        k = len(hdeg)
        dem = [t - d for t, d in zip(terms, hdeg)]
        if min(dem) < 0:
            continue
        dem += terms[k:]
        laid = []  # each owing position's sorted candidates, in turn
        for p in range(c):
            if dem[p]:
                cands = [q for q in (*far[p], *range(k, len(dem))) if dem[q]]
                cands.sort(key=dem.__getitem__, reverse=True)
                if len(cands) < dem[p]:
                    break
                for q in cands[:dem[p]]:
                    dem[q] -= 1
                laid.append(cands)
        else:
            if _graphic_desc(tuple(sorted(dem[c:], reverse=True))):
                return partial(_placement_witness, terms, c, far, order, dem, laid)
    return None


def _placement_witness(
    terms: tuple[int, ...],
    c: int,
    far: tuple[tuple[int, ...], ...],
    order: tuple[int, ...],
    dem: list[int],
    laid: list[list[int]],
) -> tuple[dict[int, int], Realization]:
    """The embedding and realization of a placement ``_placement_holds``
    found, from its demands ``dem`` after the lay-off and the candidates
    ``laid`` of each owing position: H's edges on positions 0..k-1, the
    lay-off edges and the canonical realization of the residual on
    positions c.., sorted by falling demand, ties by position, and mapped
    back. A position p < c is no candidate after its own turn, so
    ``dem[p]`` is still what it owed then, and it took that many of its
    candidates. Kept out of ``_placement_holds``, whose loop a closure
    would slow."""
    k = len(order)
    edges = [(p, q) for p in range(c) for q in range(p + 1, k) if q not in far[p]]
    owing = [p for p in range(c) if dem[p]]
    edges += [(p, q) for p, cands in zip(owing, laid) for q in cands[:dem[p]]]
    rest = dem[c:]
    index = sorted(range(len(rest)), key=rest.__getitem__, reverse=True)
    residual = canonical_realization(_canonical(tuple(rest[i] for i in index)))
    edges += [(c + index[u], c + index[v]) for u, v in residual.graph.edges()]
    real = Realization(graph=SmallGraph(len(terms), edges), sequence=_canonical(terms))
    return dict(sorted(zip(order, range(k)))), real


def sigma_exact(
    h: SmallGraph,
    n: int,
    cap_n: int = DEFAULT_CAP_N,
) -> SigmaExact:
    """Exact potential number: the minimum even integer such that every
    graphic sequence of length n with at least that sum is potentially
    h-graphic; also returns every maximizing non-potential sequence.

    Computes sigma at every length m from k to n in turn, each from the
    one before, and returns them all as ``chain``. At each length it scans
    sums downward and stops at the first level carrying a refutation;
    sigma is 2 more than that sum. Below n it stops at the first
    refutation, since only sigma is needed there, and the enumerator
    builds no first-term subtree past the one that holds it; at n it
    collects every refutation of that level. Each level's leaves are those
    the enumerator keeps for the split host ``complete_split(k - alpha,
    alpha)``: it leaves out every sequence that is potentially host-graphic
    (by the Yin–Li clique prune, the greedy-completion break and
    ``_split_holds`` on each leaf). h lies in that host with a maximum
    independent set on the independent side, so every realization
    containing the host contains h. A kept leaf then meets
    ``_placement_holds``, on h's plan, before ``_decide``: a leaf it
    accepts has a realization containing h, so it cannot refute, and only
    the truth of its answer is read, so no witness is built. When h has
    every edge of its host, as K3, K4 and split23 do, the split test is
    exact and placement could accept no leaf it keeps, so the plan is
    empty and no placement call is made. A leaf that placement fails is
    decided without the placement rule (``_decide`` with ``place``
    False), here and in its sub-decisions: the leaf has failed it
    already, and the scan meets few true sub-decisions.

    The smallest-term skip. Let d be graphic of length m, with sum S and
    smallest term t = d_m, and let sigma' = sigma(h, m-1). Laying t off
    onto the t largest other terms gives d', graphic by the Kleitman–Wang
    theorem, of length m-1 and sum S - 2t. If S - 2t >= sigma', then d'
    has a realization G' that contains h, by the definition of sigma. Add
    a vertex joined to the t vertices lowered by the lay-off: that
    realizes d and still contains h. So at sum S only sequences with
    d_m >= (S - sigma')/2 + 1 can refute, and the scan asks the
    enumerator for those alone (``min_term``). A level where m times that
    bound exceeds S holds no sequence that can refute, and it is skipped
    without an enumerator call. By the linear growth of sigma in n, few
    levels lie between sigma' and sigma, so each length scans only a
    few. At m = k, sigma(h, k-1) is taken as (k-1)(k-2) + 2: no sequence
    shorter than h is potentially h-graphic, so it is one level above
    every sum of that length, and the bound keeps every graphic sequence.
    """
    if n > cap_n:
        raise CapExceededError(f"length {n} exceeds cap {cap_n}")
    if h.k > DEFAULT_CAP_K:
        raise CapExceededError(f"graph order {h.k} exceeds cap {DEFAULT_CAP_K}")
    if n < h.k:
        raise ValueError(f"length {n} below graph order {h.k}")
    alpha = independence_number(h)
    host = (h.k - alpha, alpha)
    k = h.k
    # complete_split(k - alpha, alpha) has (k - alpha)(k + alpha - 1)/2 edges
    plan = () if h.edge_count() == (k - alpha) * (k + alpha - 1) // 2 else _placement_plan(h)
    value, falses = (k - 1) * (k - 2) + 2, ()  # sigma(h, k - 1)
    chain = []
    for m in range(k, n + 1):
        prev, value, falses = value, 0, ()
        for total in range(m * (m - 1), -1, -2):
            least = max((total - prev) // 2 + 1, 0)
            if m * least > total:
                continue  # every sequence of this sum lays off onto a potential one
            refuted = (
                s for s in enumerate_graphic_sequences(m, total, host=host, min_term=least)
                if not (plan and _placement_holds(s.terms, plan)) and not _decide(s.terms, h, False)
            )
            falses = tuple(refuted) if m == n else tuple(islice(refuted, 1))
            if falses:
                value = total + 2
                break
        chain.append(value)
    return SigmaExact(n=n, value=value, extremal_sequences=falses, chain=tuple(chain))
