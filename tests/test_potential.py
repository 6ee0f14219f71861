"""Profile machinery: nabla tables, target sequences, witness sequences."""

import pytest

import potnum.graphs
import potnum.potential
from potnum.graphs import (
    SmallGraph,
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    friendship_graph,
    path_graph,
)
from potnum.graphs import is_isomorphic
from potnum.potential import (
    asymptotic_degree_sufficient_rho,
    best_deleted_subgraph,
    profile,
    rho,
    target_family,
    target_sequence,
)
from potnum.sequences import is_graphic, parse_sequence


def k_minus_p3(k):
    """Complete graph minus two adjacent edges (a two-edge path)."""
    edges = [
        (u, v)
        for u in range(k)
        for v in range(u + 1, k)
        if (u, v) not in {(0, 1), (1, 2)}
    ]
    return SmallGraph(k, edges)


# --- profiles ----------------------------------------------------------------


def test_profile_k3():
    p = profile(complete_graph(3))
    assert (p.alpha, p.sigma_tilde, p.i_star) == (1, 2, 2)
    assert p.nabla_table == {2: 1, 3: 2}
    assert p.type_label == "Type2" and p.b_h == 1


def test_profile_complete_split_is_type1():
    p = profile(complete_split(2, 3))
    assert p.type_label == "Type1" and p.b_h == 0


def test_profile_c5():
    p = profile(cycle_graph(5))
    assert (p.alpha, p.i_star) == (2, 3)
    assert p.nabla_table[3] == 1
    assert 2 * p.i_star - p.nabla_table[p.i_star] == 2 * p.alpha + 1
    assert p.type_label == "Type2"


def test_profile_type_table():
    type1 = [complete_split(2, 3), complete_bipartite(2, 3), complete_bipartite(3, 3)]
    type2 = [cycle_graph(5), cycle_graph(7), friendship_graph(2), friendship_graph(3),
             complete_graph(4), cycle_graph(6)]
    for h in type1:
        assert profile(h).type_label == "Type1", h
    for h in type2:
        assert profile(h).type_label == "Type2", h


def test_profile_type2_forces_unit_nabla():
    for h in (complete_graph(3), cycle_graph(5), cycle_graph(6), friendship_graph(2)):
        p = profile(h)
        if p.is_type2:
            assert p.nabla_table[p.alpha + 1] == 1


def test_profile_mappings_are_read_only():
    # the cached profile is shared, so its tables refuse writes
    c6 = cycle_graph(6)
    p = profile(c6)
    for table in (p.nabla_table, p.sigma_tilde_i):
        with pytest.raises(TypeError):
            table[4] = 99
    assert profile(c6).nabla_table == {4: 1, 5: 2, 6: 2}
    assert target_sequence(c6, 4, 10).seq.terms[-1] == 2


def test_profile_computes_alpha_once(monkeypatch):
    # one maximum-independent-set search, which alpha is read from
    original, calls = potnum.graphs._max_independent_sets, []

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(potnum.graphs, "_max_independent_sets", counted)
    profile.__wrapped__(cycle_graph(6))
    assert len(calls) == 1


def test_profile_rejects_edgeless():
    with pytest.raises(ValueError):
        profile(SmallGraph(3))


def test_profile_json_field_names():
    d = profile(complete_graph(3)).to_json_dict()
    assert set(d) == {"k", "alpha", "nabla", "sigmaTildeI", "sigmaTilde", "iStar", "type", "bH"}


# --- target sequences -----------------------------------------------------------


def test_target_sequence_examples():
    ts = target_sequence(complete_graph(3), 2, 8)
    assert ts.seq == parse_sequence("7,1^7") and not ts.parity_adjusted

    ts = target_sequence(complete_graph(4), 2, 8)
    assert ts.seq == parse_sequence("7,7,2^6")

    ts = target_sequence(path_graph(3), 3, 7)
    assert ts.seq == parse_sequence("1^6,0") and ts.parity_adjusted


def test_target_sequence_always_graphic():
    for h in (complete_graph(3), complete_graph(4), cycle_graph(5), cycle_graph(6),
              path_graph(4), complete_bipartite(2, 3), complete_split(2, 3),
              friendship_graph(2)):
        p = profile(h)
        for i in range(p.alpha + 1, p.k + 1):
            for n in range(p.k + 2, 11):
                assert is_graphic(target_sequence(h, i, n).seq)


def test_target_sequence_range_errors():
    with pytest.raises(ValueError):
        target_sequence(complete_graph(3), 1, 8)
    with pytest.raises(ValueError):
        target_sequence(complete_graph(3), 4, 8)
    with pytest.raises(ValueError):
        target_sequence(complete_graph(4), 2, 1)  # empty tail
    with pytest.raises(ValueError):
        target_sequence(complete_graph(4), 4, 2)  # tail value above n-1


def test_target_family_examples():
    fam = target_family(complete_graph(3), 8)
    assert [ts.seq.to_text() for ts in fam] == ["7,1^7"]

    fam = target_family(complete_graph(4), 10)
    assert len(fam) == 1 and fam[0].i == 2

    fam = target_family(k_minus_p3(5), 10)
    assert len(fam) == 2 and [ts.i for ts in fam] == [3, 4]


# --- witness sequence ------------------------------------------------------------


def test_rho_examples():
    w = rho(complete_graph(3), 8)
    assert w.seq == parse_sequence("4,4,1^6")

    w = rho(cycle_graph(5), 9)
    assert w.seq == parse_sequence("8,5,5,2^6")


def test_rho_sum_identity():
    # direct summation is authoritative; it matches
    # 2(k-a-1)n - (k-a)(k-a-1) on every instance
    for h in (complete_graph(3), complete_graph(4), cycle_graph(5), cycle_graph(6)):
        p = profile(h)
        k, a = p.k, p.alpha
        for n in range(k + 2, 12):
            w = rho(h, n)
            assert w.seq.sum() == 2 * (k - a - 1) * n - (k - a) * (k - a - 1)
            assert w.seq.sum() % 2 == 0
            assert is_graphic(w.seq)


def test_rho_requires_type2_and_size():
    with pytest.raises(ValueError):
        rho(complete_split(2, 3), 9)  # Type 1
    with pytest.raises(ValueError):
        rho(complete_graph(3), 4)  # n too small


def test_rho_degree_sufficiency():
    assert asymptotic_degree_sufficient_rho(cycle_graph(6))
    assert not asymptotic_degree_sufficient_rho(complete_graph(3))
    assert not asymptotic_degree_sufficient_rho(complete_graph(4))


# --- deleted subgraph bound --------------------------------------------------------


def test_best_deleted_examples():
    k4 = complete_graph(4)
    f, value = best_deleted_subgraph(k4, 1)
    assert f.k == 3 and value <= profile(k4).sigma_tilde - 2

    h = cycle_graph(5)
    f, value = best_deleted_subgraph(h, 0)
    assert f == h and value == profile(h).sigma_tilde

    f, value = best_deleted_subgraph(h, 1)
    assert value <= profile(h).sigma_tilde - 2


def test_best_deleted_range():
    c6 = cycle_graph(6)  # k - alpha = 3
    with pytest.raises(ValueError):
        best_deleted_subgraph(c6, 3)


def test_deleted_bound_status_across_corpus():
    # the coefficient drop bound sigma_tilde(F) <= sigma_tilde(H) - 2t fails
    # on exactly two corpus pairs:
    #  * C6, t=2: deletion classes P4, P3+K1, 2K2 have coefficients 2, 1, 2,
    #    all above sigma_tilde(C6) - 4 = 0
    #  * K23, t=1: deletion classes K13, C4 have coefficients 2, 3, both
    #    above sigma_tilde(K23) - 2 = 1
    from potnum.graphs import complete_split, friendship_graph

    graphs_under_test = [
        complete_graph(3), complete_graph(4), cycle_graph(5), cycle_graph(6),
        path_graph(4), complete_bipartite(2, 3), complete_split(2, 3),
        friendship_graph(2),
    ]
    violations = []
    for h in graphs_under_test:
        p = profile(h)
        for t in range(0, p.k - p.alpha):
            _, value = best_deleted_subgraph(h, t)
            if value > p.sigma_tilde - 2 * t:
                violations.append((h, t, value, p.sigma_tilde - 2 * t))
    assert len(violations) == 2
    assert is_isomorphic(violations[0][0], cycle_graph(6))
    assert violations[0][1:] == (2, 1, 0)
    assert is_isomorphic(violations[1][0], complete_bipartite(2, 3))
    assert violations[1][1:] == (1, 2, 1)


def test_deleted_bound_c6_t2_counterexample_by_hand():
    # exhaustive check of all fifteen 4-subsets of the 6-cycle
    c6 = cycle_graph(6)
    from itertools import combinations

    values = set()
    for subset in combinations(range(6), 4):
        sub = c6.induced(subset)
        values.add(profile(sub).sigma_tilde)
    assert min(values) == 1  # never reaches sigma_tilde(C6) - 4 = 0
