"""Generator-expression parsing and evaluation."""

import pytest
from hypothesis import given, settings, strategies as st

from potnum.generators import MAX_DEPTH, ExprError, build, expr_order, graph_from_text, parse_graph_expr
from potnum.graphs import (
    CapExceededError,
    complement,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    disjoint_union,
    double_star,
    empty_graph,
    find_embedding,
    friendship_graph,
    is_isomorphic,
    join,
    path_graph,
)


def test_parse_join_of_generators():
    expr = parse_graph_expr("join(K 2, Kbar 3)")
    g = build(expr)
    assert is_isomorphic(g, complete_split(2, 3))


def test_parse_double_star():
    g = graph_from_text("dstar 2 1")
    assert is_isomorphic(g, double_star(2, 1))


def test_join_k1_dstar_contains_c5():
    g = graph_from_text("join(K 1, dstar 1 1)")
    assert g.k == 5
    assert find_embedding(cycle_graph(5), g) is not None


def test_builder_examples():
    assert sorted(graph_from_text("split 2 3").degrees(), reverse=True) == [4, 4, 2, 2, 2]
    assert is_isomorphic(graph_from_text("dstar 1 1"), path_graph(4))
    assert sorted(graph_from_text("friendship 2").degrees(), reverse=True) == [4, 2, 2, 2, 2]


def test_union_and_complement():
    g = graph_from_text("union(K 2, K 2)")
    assert g.k == 4 and g.edge_count() == 2
    h = graph_from_text("complement(Kbar 4)")
    assert h.edge_count() == 6
    # calls may nest MAX_DEPTH deep, one more is a parse error
    assert graph_from_text("complement(" * MAX_DEPTH + "Kbar 4" + ")" * MAX_DEPTH).k == 4


def test_whitespace_insensitive():
    a = graph_from_text("join(K 2,Kbar 3)")
    b = graph_from_text("  join ( K 2 , Kbar 3 ) ")
    assert a == b


@pytest.mark.parametrize(
    "bad",
    [
        "K",  # missing argument
        "join(K 2)",  # arity
        "frobnicate 3",  # unknown generator
        "K 2 extra",  # trailing input
        "join(K 2, K 2",  # missing paren
        "K 2000000000",  # overflow
        "K -1",  # negatives never tokenize as ints
        pytest.param("complement(" * (MAX_DEPTH + 1) + "K 3" + ")" * (MAX_DEPTH + 1), id="nested too deep"),
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ExprError) as exc:
        parse_graph_expr(bad)
    assert "position" in str(exc.value)


def test_build_cap_enforced():
    assert build(parse_graph_expr("K 16")).k == 16
    with pytest.raises(CapExceededError):
        build(parse_graph_expr("K 17"))
    with pytest.raises(CapExceededError):
        graph_from_text("join(K 10, K 10)")


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        graph_from_text("C 2")


# Each generator with its constructor and argument ranges; no generator
# exceeds 4 vertices, so four leaves stay within the 16-vertex order bound.
_GENERATORS = {
    "K": (complete_graph, st.integers(0, 4)),
    "Kbar": (empty_graph, st.integers(0, 4)),
    "C": (cycle_graph, st.integers(3, 4)),
    "P": (path_graph, st.integers(1, 4)),
    "Kbip": (complete_bipartite, st.integers(0, 2), st.integers(0, 2)),
    "split": (complete_split, st.integers(0, 2), st.integers(0, 2)),
    "dstar": (double_star, st.integers(0, 1), st.integers(0, 1)),
    "friendship": (friendship_graph, st.integers(0, 1)),
}
_CALLS = {"join": join, "union": disjoint_union, "complement": complement}

_leaves = st.sampled_from(sorted(_GENERATORS)).flatmap(
    lambda name: st.tuples(st.just(name), *_GENERATORS[name][1:])
)
_trees = st.recursive(
    _leaves,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["join", "union"]), inner, inner),
        st.tuples(st.just("complement"), inner),
    ),
    max_leaves=4,
)


def _text(tree):
    name, *rest = tree
    if name in _CALLS:
        return f"{name}({', '.join(map(_text, rest))})"
    return " ".join(map(str, tree))


def _graph(tree):
    name, *rest = tree
    if name in _CALLS:
        return _CALLS[name](*map(_graph, rest))
    return _GENERATORS[name][0](*rest)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_trees)
def test_expression_text_builds_the_directly_constructed_graph(tree):
    graph = _graph(tree)
    text = _text(tree)
    assert graph_from_text(text) == graph
    assert expr_order(parse_graph_expr(text)) == graph.k
