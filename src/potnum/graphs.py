"""Small labeled simple graphs, bitset adjacency in Python ints of any width.

Every induced-subgraph loop is a mask operation, which keeps exhaustive
searches (independence number, minimum induced maximum degree, subgraph
embedding) trivial at this scale.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import combinations

from .sequences import DegreeSequence, _check_digits

MAX_ORDER = 16  # of a graph file or expression: `analyze` is exponential in the order


class CapExceededError(ValueError):
    """Requested size exceeds the configured desk-scale cap."""


class SmallGraph:
    """Labeled simple graph; vertices are 0..k-1, adjacency stored as masks."""

    __slots__ = ("k", "adj")

    def __init__(self, k: int, edges: Iterable[tuple[int, int]] = ()):
        if k < 0:
            raise ValueError("vertex count must be nonnegative")
        adj = [0] * k
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < k and 0 <= v < k):
                raise ValueError(f"edge ({u},{v}) out of range for k={k}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "adj", tuple(adj))

    def __setattr__(self, name, value):
        raise AttributeError("SmallGraph is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, SmallGraph) and self.k == other.k and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.k, self.adj))

    def __repr__(self) -> str:
        return f"SmallGraph(k={self.k}, edges={self.edges()})"

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.k):
            m = self.adj[u] >> (u + 1)
            v = u + 1
            while m:
                if m & 1:
                    out.append((u, v))
                m >>= 1
                v += 1
        return out

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degrees(self) -> tuple[int, ...]:
        return tuple(m.bit_count() for m in self.adj)

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degrees())

    def is_complete(self) -> bool:
        return self.edge_count() == self.k * (self.k - 1) // 2

    def induced(self, vertices: Sequence[int]) -> "SmallGraph":
        """Induced subgraph, relabeled by the sorted order of ``vertices``."""
        vs = sorted(set(vertices))
        rank = {v: i for i, v in enumerate(vs)}
        edges = [
            (rank[u], rank[v])
            for u, v in combinations(vs, 2)
            if self.has_edge(u, v)
        ]
        return SmallGraph(len(vs), edges)


def _from_masks(k: int, adj: list[int]) -> SmallGraph:
    """A graph from adjacency masks its caller has built symmetric, loop
    free and in range: no per-edge check."""
    graph = object.__new__(SmallGraph)
    object.__setattr__(graph, "k", k)
    object.__setattr__(graph, "adj", tuple(adj))
    return graph


# ---------------------------------------------------------------------------
# Constructors


def complete_graph(n: int) -> SmallGraph:
    return SmallGraph(n, combinations(range(n), 2))


def empty_graph(n: int) -> SmallGraph:
    return SmallGraph(n)


def cycle_graph(n: int) -> SmallGraph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return SmallGraph(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> SmallGraph:
    if n < 1:
        raise ValueError("path needs at least 1 vertex")
    return SmallGraph(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(r: int, s: int) -> SmallGraph:
    return SmallGraph(r + s, [(i, r + j) for i in range(r) for j in range(s)])


def complete_split(r: int, t: int) -> SmallGraph:
    """Clique of order r fully joined to an independent set of order t:
    the clique is vertices 0..r-1."""
    if r < 0 or t < 0:
        raise ValueError("vertex count must be nonnegative")
    full = (1 << (r + t)) - 1
    clique = (1 << r) - 1
    return _from_masks(r + t, [full ^ (1 << u) for u in range(r)] + [clique] * t)


def double_star(b1: int, b2: int) -> SmallGraph:
    """Two adjacent centers with b1 and b2 pendant leaves.

    Vertex 0 is the center of degree b1 + 1, vertex 1 the center of degree
    b2 + 1; leaves of vertex 0 come first.
    """
    if b1 < 0 or b2 < 0:
        raise ValueError("leaf counts must be nonnegative")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(b1)]
    edges += [(1, 2 + b1 + i) for i in range(b2)]
    return SmallGraph(b1 + b2 + 2, edges)


def friendship_graph(t: int) -> SmallGraph:
    """t triangles sharing vertex 0."""
    if t < 0:
        raise ValueError("triangle count must be nonnegative")
    edges = []
    for i in range(t):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return SmallGraph(2 * t + 1, edges)


def join(g: SmallGraph, h: SmallGraph) -> SmallGraph:
    """Disjoint union plus all edges between the two sides; g comes first."""
    k = g.k + h.k
    edges = list(g.edges())
    edges += [(g.k + u, g.k + v) for u, v in h.edges()]
    edges += [(u, g.k + v) for u in range(g.k) for v in range(h.k)]
    return SmallGraph(k, edges)


def disjoint_union(g: SmallGraph, h: SmallGraph) -> SmallGraph:
    edges = list(g.edges()) + [(g.k + u, g.k + v) for u, v in h.edges()]
    return SmallGraph(g.k + h.k, edges)


def complement(g: SmallGraph) -> SmallGraph:
    edges = [
        (u, v) for u, v in combinations(range(g.k), 2) if not g.has_edge(u, v)
    ]
    return SmallGraph(g.k, edges)


# ---------------------------------------------------------------------------
# Invariants


def independence_number(g: SmallGraph) -> int:
    """Exact maximum independent set size: that of the first maximum set."""
    return _max_independent_sets(g)[0].bit_count()


def _max_independent_sets(g: SmallGraph) -> list[int]:
    """Masks of the maximum independent sets of g, in the lexicographic
    order of their sorted vertex tuples."""
    found: list[int] = []
    _extend(g.adj, 0, (1 << g.k) - 1, found)
    return found


def _extend(adj: Sequence[int], chosen: int, avail: int, found: list[int]) -> None:
    """Update ``found``, the largest independent sets met so far, with
    those that extend ``chosen`` by vertices of ``avail``: a larger one
    replaces them, one of their size joins them. ``avail`` lies above the
    vertices of ``chosen`` and off their neighbours."""
    size = chosen.bit_count()
    if not avail:
        best = found[0].bit_count() if found else -1
        if size > best:
            found.clear()
        if size >= best:
            found.append(chosen)
        return
    # each pick is the lowest vertex left, so the sets come in lexicographic
    # order; a set that skips a vertex it could hold follows the larger set
    # holding it, so only maximum sets stay
    while avail and size + avail.bit_count() >= (found[0].bit_count() if found else 0):
        low = avail & -avail
        avail ^= low
        _extend(adj, chosen | low, avail & ~adj[low.bit_length() - 1], found)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _induced_degrees(h: SmallGraph, i: int) -> Iterator[tuple[int, list[int]]]:
    """Each order-i vertex subset of h as a mask, in the lexicographic
    order of its sorted vertex tuple, with the degrees of its vertices,
    in that order, in the subgraph it induces."""
    bits = [1 << v for v in range(h.k)]
    for subset, adjs in zip(combinations(bits, i), combinations(h.adj, i)):
        mask = sum(subset)
        yield mask, [(a & mask).bit_count() for a in adjs]


def _min_induced_max_degree(h: SmallGraph, i: int) -> int:
    """nabla_i(h): the minimum over all order-i induced subgraphs of the
    maximum degree.

    Defined only for alpha(h)+1 <= i <= k: below that range an independent
    set would force the value to 0. The caller keeps i in that range.
    """
    best = h.k
    for _, degrees in _induced_degrees(h, i):
        delta = max(degrees)
        if delta < best:
            best = delta
            if best == 1:
                # cannot reach 0 in this range
                break
    return best


def deleted_family(h: SmallGraph, t: int) -> Iterator[tuple[SmallGraph, tuple[int, ...]]]:
    """Induced subgraphs obtained by deleting exactly t vertices, one per
    isomorphism class: (subgraph, deleted vertices), trying the deletion
    sets in lexicographic order, so t = 1 deletes vertex 0 first."""
    if not 0 <= t <= h.k:
        raise ValueError(f"deletion count {t} out of range 0..{h.k}")
    seen: list[SmallGraph] = []
    for deleted in combinations(range(h.k), t):
        sub = h.induced([u for u in range(h.k) if u not in deleted])
        if not any(is_isomorphic(sub, other) for other in seen):
            seen.append(sub)
            yield sub, deleted


# ---------------------------------------------------------------------------
# Embedding and isomorphism


@lru_cache(maxsize=256)
def _embedding_plan(pattern: SmallGraph) -> tuple[tuple[int, int, tuple[int, ...], int], ...]:
    """Placement order for ``find_embedding``: (vertex, degree, neighbours
    placed before it, bound) per step. Repeatedly takes the unplaced vertex
    with most placed neighbours, breaking ties toward high degree, then
    lower index.

    The bound breaks the pattern's symmetry by its stabilizer chain
    (Grochow and Kellis, RECOMB 2007). Step j's bound is the vertex v of
    the latest earlier step i such that some automorphism of the pattern
    fixes the vertices of steps 0..i-1 and takes v to step j's vertex w,
    or k when there is none; w must land above v's image. The bounds keep
    the embedding the search finds. Unbounded, it finds the embedding phi
    whose images in plan order are lexicographically least. phi composed
    with such an automorphism is an embedding that agrees with phi on
    steps 0..i-1 and puts phi(w) at step i, so phi(v) < phi(w): phi meets
    every bound, and the bounded search still finds it first. One bound a
    step suffices: if w lies in the orbits of v1 at step i1 and of v2 at a
    later step i2, then v2 lies in v1's orbit under the stabilizer of
    steps 0..i1-1, so v1 bounds v2 in turn, and by induction the latest
    bound implies every earlier one. Whether an automorphism exists is one
    search of the pattern into itself, run only for a pair of equal degree
    with the same neighbours among the fixed vertices.
    """
    k = pattern.k
    adj = pattern.adj
    pdeg = pattern.degrees()
    plan = []
    placed_mask = 0
    for _ in range(k):
        u = max(
            (v for v in range(k) if not (placed_mask >> v) & 1),
            key=lambda v: ((adj[v] & placed_mask).bit_count(), pdeg[v]),
        )
        plan.append((u, pdeg[u], tuple(_bits(adj[u] & placed_mask)), k))
        placed_mask |= 1 << u
    # With every bound still k, the plan searches the pattern into itself:
    # a bijection carrying every edge to an edge is an automorphism. The
    # steps run from the last down, so a step's first bound is its latest.
    image = [*range(k), -1]
    bounds = [k] * k
    fixed = placed_mask
    for i in reversed(range(k)):
        v = plan[i][0]
        fixed ^= 1 << v
        for j in range(i + 1, k):
            w = plan[j][0]
            if bounds[j] == k and pdeg[w] == pdeg[v] and adj[v] & fixed == adj[w] & fixed:
                image[v] = w
                if _place(plan, i + 1, placed_mask ^ fixed ^ (1 << w), adj, image):
                    bounds[j] = v
        image[v] = v
    return tuple((u, du, nbs, b) for (u, du, nbs, _), b in zip(plan, bounds))


def find_embedding(pattern: SmallGraph, host: SmallGraph) -> dict[int, int] | None:
    """Injective vertex map carrying every pattern edge to a host edge.

    Backtracking over a cached per-pattern plan that places the most
    constrained vertices first. Each step's candidates are one mask, the
    unused host vertices adjacent to the images of the placed neighbours
    and above the image of the step's bound, taken lowest index first and
    skipped when their degree is below the pattern vertex's. The bounds
    skip the copies of each dead end that an automorphism of the pattern
    repeats, and keep the result: the embedding whose images in plan
    order are lexicographically least. Returns None when no embedding
    exists; otherwise the map, keys in placement order.
    """
    if pattern.k > host.k:
        return None
    plan = _embedding_plan(pattern)
    # image[k] = -1 is the image of the bound k that no step has
    image = [0] * pattern.k + [-1]
    if not _place(plan, 0, (1 << host.k) - 1, host.adj, image):
        return None
    return {u: image[u] for u, _, _, _ in plan}


def _place(
    plan: Sequence[tuple[int, int, tuple[int, ...], int]], depth: int, free: int,
    hadj: Sequence[int], image: list[int],
) -> bool:
    """Place the plan's steps from ``depth`` on, on the host vertices in
    ``free``, writing each pattern vertex's host vertex into ``image``."""
    if depth == len(plan):
        return True
    u, du, placed_nbs, bound = plan[depth]
    cand = free & (-1 << (image[bound] + 1))
    for nb in placed_nbs:
        cand &= hadj[image[nb]]
    while cand:
        low = cand & -cand
        cand ^= low
        w = low.bit_length() - 1
        if hadj[w].bit_count() < du:
            continue
        image[u] = w
        if _place(plan, depth + 1, free ^ low, hadj, image):
            return True
    return False


def is_isomorphic(a: SmallGraph, b: SmallGraph) -> bool:
    if a.k != b.k or a.edge_count() != b.edge_count():
        return False
    if sorted(a.degrees()) != sorted(b.degrees()):
        return False
    # equal order and edge count: an edge-preserving bijection is an isomorphism
    return find_embedding(a, b) is not None


# ---------------------------------------------------------------------------
# Edge-list file format: first line "n <k>", then "e <u> <v>" lines, 1-based.


def parse_graph_file(text: str) -> SmallGraph:
    k = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if k is not None:
                raise ValueError(f"line {lineno}: duplicate vertex-count line")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: expected 'n <k>'")
            k = int(_check_digits(parts[1]))
            if k > MAX_ORDER:
                raise CapExceededError(f"line {lineno}: vertex count {k} exceeds cap {MAX_ORDER}")
        elif parts[0] == "e":
            if k is None:
                raise ValueError(f"line {lineno}: edge before vertex count")
            if len(parts) != 3:
                raise ValueError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = (int(_check_digits(p)) for p in parts[1:])
            if not (1 <= u <= k and 1 <= v <= k):
                raise ValueError(f"line {lineno}: vertex out of range 1..{k}")
            edges.append((u - 1, v - 1))
        else:
            raise ValueError(f"line {lineno}: unknown directive {parts[0]!r}")
    if k is None:
        raise ValueError("missing 'n <k>' line")
    return SmallGraph(k, edges)
