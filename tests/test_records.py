"""Result records: the checks, immutability and defaults they keep as named tuples."""

import pytest

from potnum.generators import parse_graph_expr
from potnum.graphs import complete_graph, path_graph
from potnum.oracle import Realization, canonical_realization, potentially
from potnum.potential import profile
from potnum.probe import ProbeConfig, ProbeTrace, run_probe
from potnum.sequences import parse_sequence
from potnum.stability import classify_sigma


def test_realization_rejects_mismatched_degrees():
    graph = path_graph(3)  # degrees 1, 2, 1
    with pytest.raises(ValueError):
        Realization(graph, parse_sequence("2,1,1"))
    with pytest.raises(ValueError):
        Realization(graph=graph, sequence=parse_sequence("2,1,1"))
    r = canonical_realization(parse_sequence("2,1,1"))
    assert Realization(r.graph, r.sequence) == r


def test_frozen_records_refuse_assignment():
    k3 = complete_graph(3)
    records = [
        (parse_graph_expr("join(K 2, Kbar 3)"), "name"),  # generators
        (potentially(parse_sequence("2,2,2"), k3), "answer"),  # oracle
        (profile(k3), "sigma_tilde"),  # potential
        (classify_sigma(k3), "status"),  # stability
        (ProbeConfig(), "epsilon"),  # probe
        (run_probe(parse_sequence("7,1^7"), k3, ProbeConfig(f_override=4))[1].iterations[0], "t"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_probe_traces_do_not_share_iterations():
    fields = dict(n=1, sigma=0, epsilon=0, delta=0, f=1, warnings=[], precondition_ok=True)
    a, b = ProbeTrace(**fields), ProbeTrace(**fields)
    a.iterations.append(None)
    assert b.iterations == []
