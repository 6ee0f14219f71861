"""Small-graph structure: constructors, invariants, embeddings, file format."""

import gc
import random
from itertools import combinations, permutations

import pytest

from potnum.generators import ExprError, graph_from_text
from potnum.graphs import (
    CapExceededError,
    SmallGraph,
    _embedding_plan,
    _max_independent_sets,
    complement,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    deleted_family,
    disjoint_union,
    empty_graph,
    double_star,
    find_embedding,
    friendship_graph,
    independence_number,
    is_isomorphic,
    join,
    parse_graph_file,
    path_graph,
)
from potnum.potential import profile
from potnum.probe import ProbeConfig, run_probe
from potnum.sequences import parse_sequence
from potnum.stability import classify_sigma


def _random_graph(rng, k, p=0.5):
    edges = [e for e in combinations(range(k), 2) if rng.random() < p]
    return SmallGraph(k, edges)


# --- basic structure --------------------------------------------------------


def test_constructor_rejects_loops_and_bad_vertices():
    with pytest.raises(ValueError):
        SmallGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SmallGraph(3, [(0, 3)])
    # the masks are Python ints, so the order has no cap
    assert SmallGraph(40, [(0, 39)]).degrees()[39] == 1


def test_generator_degree_profiles():
    assert sorted(complete_split(2, 3).degrees(), reverse=True) == [4, 4, 2, 2, 2]
    assert sorted(friendship_graph(2).degrees(), reverse=True) == [4, 2, 2, 2, 2]
    assert sorted(double_star(1, 1).degrees(), reverse=True) == [2, 2, 1, 1]
    assert is_isomorphic(double_star(1, 1), path_graph(4))
    assert double_star(2, 1).degrees()[0] == 3 and double_star(2, 1).degrees()[1] == 2


def test_complete_split_is_the_join_of_a_clique_and_an_independent_set():
    for r in range(7):
        for t in range(7):
            assert complete_split(r, t) == join(complete_graph(r), empty_graph(t)), (r, t)
    for r, t in ((-1, 0), (0, -1), (-2, 3), (3, -2)):
        with pytest.raises(ValueError, match="vertex count must be nonnegative"):
            complete_split(r, t)


def test_induced_subgraph_relabels():
    c5 = cycle_graph(5)
    sub = c5.induced([0, 1, 3])
    assert sub.k == 3 and sub.edge_count() == 1  # only the 0-1 edge survives


# --- independence number -----------------------------------------------------


def test_independence_examples():
    assert independence_number(complete_graph(5)) == 1
    assert independence_number(cycle_graph(5)) == 2
    assert independence_number(complete_bipartite(3, 4)) == 4


def test_independence_of_split_graphs():
    for r in range(0, 4):
        for t in range(1, 5):
            assert independence_number(complete_split(r, t)) == t


def test_independence_matches_subset_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(1, 9))
        best = 0
        for size in range(g.k, 0, -1):
            if any(
                all(not g.has_edge(a, b) for a, b in combinations(sub, 2))
                for sub in combinations(range(g.k), size)
            ):
                best = size
                break
        assert independence_number(g) == best


def test_independent_sets_match_subset_enumeration():
    # the maximum independent sets, in lexicographic order, are the
    # independent subsets of the largest size that has any
    rng = random.Random(32)
    for _ in range(40):
        g = _random_graph(rng, rng.randrange(1, 9))
        for size in range(g.k, -1, -1):
            want = [
                sum(1 << v for v in sub)
                for sub in combinations(range(g.k), size)
                if all(not g.has_edge(a, b) for a, b in combinations(sub, 2))
            ]
            if want:
                break
        assert independence_number(g) == size
        assert _max_independent_sets(g) == want


def test_maximum_independent_sets_match_complement_cliques():
    # alpha and the ordered maximum sets against the maximum cliques of
    # the complement, found by networkx, on the atlas and on named graphs
    # near the bound
    from networkx import Graph, complement as nx_complement, find_cliques, graph_atlas_g

    five_triangles = complete_graph(1)  # 5K3 + K1, with 3^5 maximum sets
    for _ in range(5):
        five_triangles = disjoint_union(complete_graph(3), five_triangles)
    named = [path_graph(16), cycle_graph(15), friendship_graph(7), five_triangles]
    atlas = [SmallGraph(g.number_of_nodes(), g.edges()) for g in graph_atlas_g()[1:]]
    for h in atlas + named:
        g = Graph()
        g.add_nodes_from(range(h.k))
        g.add_edges_from(h.edges())
        cliques = [sorted(c) for c in find_cliques(nx_complement(g))]
        alpha = max(map(len, cliques))
        want = [sum(1 << v for v in c) for c in sorted(c for c in cliques if len(c) == alpha)]
        assert independence_number(h) == alpha
        assert _max_independent_sets(h) == want, h
    assert len(_max_independent_sets(five_triangles)) == 3**5


# --- minimum induced maximum degree ------------------------------------------


def test_nabla_examples():
    assert profile(complete_graph(3)).nabla_table[2] == 1
    assert profile(cycle_graph(6)).nabla_table[4] == 1
    for h in (complete_graph(4), cycle_graph(5), friendship_graph(2)):
        assert profile(h).nabla_table[h.k] == max(h.degrees())


def test_nabla_range_enforced():
    # alpha(C6) = 3: the table holds the orders alpha+1..k only
    assert set(profile(cycle_graph(6)).nabla_table) == {4, 5, 6}


def test_nabla_grows_on_induced_subgraphs():
    # an induced subgraph offers fewer subsets to minimize over, so its
    # value can only rise; strict on e.g. the triangle inside the paw
    rng = random.Random(8)
    for _ in range(40):
        h = _random_graph(rng, rng.randrange(3, 8))
        a_h = independence_number(h)
        for f, _ in deleted_family(h, 1):
            a_f = independence_number(f)
            # profile rejects an edgeless graph, whose range here is empty
            for j in range(max(a_h, a_f) + 1, f.k + 1):
                assert profile(f).nabla_table[j] >= profile(h).nabla_table[j]
    paw = SmallGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    assert profile(paw.induced([0, 1, 2])).nabla_table[3] == 2 > 1 == profile(paw).nabla_table[3]


# --- deleted families ----------------------------------------------------------


def test_deleted_family_counts():
    assert list(deleted_family(complete_graph(4), 1)) == [(complete_graph(3), (0,))]
    fam = list(deleted_family(cycle_graph(5), 1))
    assert len(fam) == 1 and is_isomorphic(fam[0][0], path_graph(4))
    fam = list(deleted_family(path_graph(4), 2))
    assert len(fam) == 2
    edge_counts = sorted(f.edge_count() for f, _ in fam)
    assert edge_counts == [0, 1]  # one edge (P2) and two isolated vertices


def test_deleted_family_range():
    with pytest.raises(ValueError):
        list(deleted_family(complete_graph(3), 4))


# --- embeddings ------------------------------------------------------------------


def test_spanning_examples():
    c5 = cycle_graph(5)
    assert find_embedding(c5, join(complete_graph(1), path_graph(4))) is not None
    c6 = cycle_graph(6)
    assert find_embedding(c6, join(complete_graph(1), double_star(2, 1))) is None
    g = friendship_graph(2)
    assert find_embedding(g, g) is not None


def _spanning_naive(h, host):
    for perm in permutations(range(host.k)):
        if all(host.has_edge(perm[u], perm[v]) for u, v in h.edges()):
            return True
    return False


def test_spanning_agrees_with_naive_permutations():
    rng = random.Random(77)
    for _ in range(60):
        k = rng.randrange(1, 8)
        h = _random_graph(rng, k, p=0.4)
        host = _random_graph(rng, k, p=0.6)
        assert (find_embedding(h, host) is not None) == _spanning_naive(h, host)


def test_find_embedding_carries_edges():
    rng = random.Random(13)
    for _ in range(40):
        host = _random_graph(rng, rng.randrange(4, 9), p=0.6)
        keep = sorted(rng.sample(range(host.k), rng.randrange(2, host.k)))
        pattern = host.induced(keep)
        m = find_embedding(pattern, host)
        assert m is not None
        assert all(host.has_edge(m[u], m[v]) for u, v in pattern.edges())


def test_plan_bounds_admit_only_the_identity_automorphism():
    # the stabilizer-chain bounds break all of a pattern's symmetry: of the
    # automorphisms of every graph on 1..7 vertices, networkx's VF2 lists
    # them all, and the bounds let through exactly one, the identity
    from networkx import graph_atlas_g
    from networkx.algorithms.isomorphism import GraphMatcher

    graphs = automorphisms = 0
    for g in graph_atlas_g()[1:]:
        k = g.number_of_nodes()
        plan = _embedding_plan(SmallGraph(k, g.edges()))
        admitted = []
        for sigma in GraphMatcher(g, g).isomorphisms_iter():
            image = [sigma[u] for u in range(k)]
            automorphisms += 1
            # each step's vertex lands above the image of its bound
            if all(b == k or image[u] > image[b] for u, _, _, b in plan):
                admitted.append(image)
        assert admitted == [list(range(k))], g.edges()
        graphs += 1
    assert (graphs, automorphisms) == (1252, 24083)


def test_find_embedding_is_the_first_in_plan_order():
    # the bounded search returns the embedding whose images, in plan
    # order, are lexicographically least among all embeddings, found here
    # by brute force over every injective map; None agrees with VF2
    from networkx import Graph
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(26)
    found = 0
    for _ in range(3000):
        pattern = _random_graph(rng, rng.randrange(1, 6), p=rng.random())
        host = _random_graph(rng, rng.randrange(1, 8), p=rng.random())
        order = [u for u, _, _, _ in _embedding_plan(pattern)]
        want = None
        for images in permutations(range(host.k), pattern.k):
            emb = dict(zip(order, images))
            if all(host.has_edge(emb[u], emb[v]) for u, v in pattern.edges()):
                want = emb
                break
        got = find_embedding(pattern, host)
        assert got == want and list(got or ()) == list(want or ()), (pattern, host)
        g, p = Graph(), Graph()
        g.add_nodes_from(range(host.k))
        g.add_edges_from(host.edges())
        p.add_nodes_from(range(pattern.k))
        p.add_edges_from(pattern.edges())
        assert (got is not None) == GraphMatcher(g, p).subgraph_is_monomorphic()
        found += got is not None
    assert 0 < found < 3000


def test_find_embedding_leaves_no_cyclic_garbage():
    # module functions and no closures, so none of these makes work for
    # the cycle collector: the embedding search, found and not found; the
    # maximum-independent-set search, through independence_number; the
    # stability verdict of C7, whose cover and one-edge test read that
    # search; the probe's close_to_target path, whose picker reads it and
    # the induced-subset walk; and the expression parser, also when it
    # raises
    probe_args = parse_sequence("7,3^3,2^4"), graph_from_text("Kbip 2 3"), ProbeConfig(f_override=3)
    assert find_embedding(cycle_graph(5), complete_graph(7)) is not None
    assert find_embedding(complete_graph(4), cycle_graph(7)) is None
    assert independence_number(cycle_graph(7)) == 3
    assert classify_sigma(cycle_graph(7)).cover == (2, 1)
    assert run_probe(*probe_args)[0].kind == "close_to_target"
    assert graph_from_text("join(K 2, complement(C 5))").k == 7
    with pytest.raises(ExprError):
        graph_from_text("join(K 2, C)")
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            find_embedding(cycle_graph(5), complete_graph(7))
            find_embedding(complete_graph(4), cycle_graph(7))
            independence_number(cycle_graph(7))
            classify_sigma(cycle_graph(7))
            run_probe(*probe_args)
            graph_from_text("join(K 2, complement(C 5))")
            try:
                graph_from_text("join(K 2, C)")
            except ExprError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- isomorphism ----------------------------------------------------------------


def test_is_isomorphic_on_atlas_graphs():
    # networkx's atlas lists every graph on at most 7 vertices once up to
    # isomorphism: a random relabeling of a graph must match it, and no two
    # graphs with the same degree sequence (order included) may match
    from networkx import graph_atlas_g

    rng = random.Random(17)
    by_degrees = {}
    for g in graph_atlas_g():
        k = g.number_of_nodes()
        sg = SmallGraph(k, g.edges())
        perm = rng.sample(range(k), k)
        assert is_isomorphic(SmallGraph(k, [(perm[u], perm[v]) for u, v in g.edges()]), sg)
        by_degrees.setdefault(tuple(sorted(sg.degrees())), []).append(sg)
    pairs = [pair for group in by_degrees.values() for pair in combinations(group, 2)]
    assert len(pairs) == 3375
    assert not any(is_isomorphic(a, b) for a, b in pairs)


def test_double_complement_isomorphic():
    rng = random.Random(3)
    for _ in range(30):
        g = _random_graph(rng, rng.randrange(1, 9))
        assert is_isomorphic(complement(complement(g)), g)


def test_is_isomorphic_distinguishes():
    assert not is_isomorphic(path_graph(4), SmallGraph(4, [(0, 1), (2, 3)]))
    assert is_isomorphic(cycle_graph(3), complete_graph(3))


# --- file format ------------------------------------------------------------------


def test_graph_file_round_trip():
    text = "n 5\ne 1 2\ne 1 3\ne 2 3\ne 1 4\ne 1 5\ne 4 5\n"
    assert parse_graph_file(text) == friendship_graph(2)


def test_graph_file_errors():
    with pytest.raises(ValueError):
        parse_graph_file("e 1 2\n")
    with pytest.raises(ValueError):
        parse_graph_file("n 2\ne 1 3\n")
    with pytest.raises(ValueError):
        parse_graph_file("n 2\nq 1 2\n")
    for text, message in (
        ("n 3\nn 3\n", "line 2: duplicate vertex-count line"),
        ("n 3 4\n", "line 1: expected 'n <k>'"),
        ("n 3\ne 1\n", "line 2: expected 'e <u> <v>'"),
        ("# no vertex count\n\n", "missing 'n <k>' line"),
    ):
        with pytest.raises(ValueError) as info:
            parse_graph_file(text)
        assert str(info.value) == message, text
    # blank lines and comment lines are ignored, indented or not
    triangle = parse_graph_file("# a triangle\n\nn 3\n  # its edges\ne 1 2\n\ne 2 3\ne 1 3\n")
    assert (triangle.k, triangle.edges()) == (3, [(0, 1), (0, 2), (1, 2)])
    # the order bound of graph input, checked before the graph is built
    for k in ("17", "9" + "0" * 20):
        with pytest.raises(CapExceededError):
            parse_graph_file(f"n {k}\n")
