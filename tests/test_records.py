"""Result records: the checks, immutability and defaults they keep as named tuples."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import potnum
from potnum.generators import Call, Gen, GraphExpr, parse_graph_expr
from potnum.graphs import complete_graph, path_graph
from potnum.oracle import (
    PotentialCertificate,
    Realization,
    Refutation,
    SigmaExact,
    canonical_realization,
    potentially,
)
from potnum.potential import ExtremalWitness, PotentialProfile, TargetSequence, profile
from potnum.probe import IterationRecord, ProbeConfig, ProbeTrace, ProbeVerdict, run_probe
from potnum.sequences import parse_sequence
from potnum.stability import StabilityVerdict, WeakVerdict, classify_sigma


def test_record_fields_and_defaults():
    # the public shape of every record: field names in order, and defaults
    shapes = {
        Gen: ("name args", {}),
        Call: ("name operands", {}),
        Realization: ("graph sequence", {}),
        PotentialCertificate: (
            "answer embedding realization exhausted",
            {"embedding": None, "realization": None, "exhausted": None},
        ),
        SigmaExact: ("n value extremal_sequences chain", {}),
        Refutation: ("rule subsets patterns residual_calls", {"subsets": 0, "patterns": 0, "residual_calls": 0}),
        PotentialProfile: ("k alpha nabla_table sigma_tilde_i sigma_tilde i_star type_label b_h", {}),
        TargetSequence: ("i n seq parity_adjusted", {}),
        ExtremalWitness: ("seq n params", {}),
        StabilityVerdict: ("status theorem cover graph note", {"note": ""}),
        WeakVerdict: ("status basis graph note", {"note": ""}),
        ProbeConfig: (
            "epsilon delta f_override oracle_fallback cap_n",
            {"epsilon": Fraction(1, 4), "delta": None, "f_override": None, "oracle_fallback": True, "cap_n": 10},
        ),
        ProbeVerdict: (
            "kind subgraph embedding target distance reason verified",
            dict.fromkeys(("subgraph", "embedding", "target", "distance", "reason", "verified")),
        ),
        IterationRecord: (
            "t n_t sequence sum_bound sum_bound_ok removed_nonneighbors step3_laid_off"
            " step4_laid_off step4_threshold halting_reason",
            dict.fromkeys(("removed_nonneighbors", "step3_laid_off", "step4_laid_off", "step4_threshold", "halting_reason")),
        ),
        ProbeTrace: (
            "n sigma epsilon delta f warnings precondition_ok init_threshold init_laid_off"
            " init_laid_off_sum early_exit iterations ell final verdict",
            {
                "init_threshold": None, "init_laid_off": None, "init_laid_off_sum": None, "early_exit": False,
                "iterations": (), "ell": None, "final": None, "verdict": None,
            },
        ),
    }
    for record, (fields, defaults) in shapes.items():
        assert record._fields == tuple(fields.split()), record.__name__
        assert record._field_defaults == defaults, record.__name__


def test_record_behaviour_kept():
    assert not Refutation("degree") and not Refutation("full_search", 1, 2, 3)
    assert PotentialCertificate(answer=False)._asdict() == {
        "answer": False, "embedding": None, "realization": None, "exhausted": None,
    }
    for text in ("K 3", "join(K 2, complement(C 5))"):
        assert isinstance(parse_graph_expr(text), GraphExpr)
    assert not isinstance(("K", (3,)), GraphExpr)


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
        (run_probe(parse_sequence("7,1^7"), k3, ProbeConfig(f_override=4))[1], "verdict"),
        (run_probe(parse_sequence("7,1^7"), k3, ProbeConfig(f_override=4))[1].iterations[0], "t"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_probe_trace_is_built_whole():
    # run_probe builds its trace once, with the verdict and a tuple of passes
    verdict, trace = run_probe(parse_sequence("7,1^7"), complete_graph(3), ProbeConfig(f_override=4))
    assert trace.verdict is verdict
    assert isinstance(trace.iterations, tuple) and len(trace.iterations) == trace.ell + 1


def test_probe_trace_fields_refuse_writes():
    # the trace's warnings and halt analysis are read-only too, so nothing
    # can change what to_json_lines prints after the run
    _, trace = run_probe(parse_sequence("7,1^7"), complete_graph(3), ProbeConfig(f_override=4))
    assert trace.warnings and trace.final
    with pytest.raises(AttributeError):
        trace.warnings.append("x")
    with pytest.raises(TypeError):
        trace.final["branch"] = "x"
    # at every level: the split graph's orders are read-only as well
    line = trace.to_json_lines()[-1]
    with pytest.raises(TypeError):
        trace.final["sEll"]["clique"] = 9
    assert trace.to_json_lines()[-1] == line


# Classes that are neither records nor exceptions, each immutable or private
# on purpose; a new one is added here with its reason
AUDITED_CLASSES = {
    "potnum.sequences.DegreeSequence",  # a value with its own methods and order
    "potnum.graphs.SmallGraph",  # a value with its own methods and hash
    "potnum.cli._Parser",  # argparse's parser, raising in place of exiting
}


def _classes():
    """Every class that a potnum module defines, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(potnum.__path__):
        module = importlib.import_module(f"potnum.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return found


def test_every_class_is_a_record_an_error_or_audited():
    others = set()
    for name, cls in _classes().items():
        is_record = issubclass(cls, tuple) and hasattr(cls, "_fields") and cls.__slots__ == ()
        if not (is_record or issubclass(cls, Exception)):
            others.add(name)
    assert others == AUDITED_CLASSES


def test_audited_values_refuse_assignment():
    for value, field in ((parse_sequence("2,2,2"), "terms"), (complete_graph(3), "k")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            setattr(value, "extra", None)
