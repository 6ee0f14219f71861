"""Command-line surface: outputs, JSON round trips, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import potnum
from potnum.cli import MAX_DIGITS, build_parser, main
from potnum.generators import graph_from_text
from potnum.graphs import MAX_ORDER
from potnum.probe import ProbeConfig, run_probe
from potnum.sequences import parse_sequence


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_k3(capsys):
    code, out, _ = run_cli(capsys, "analyze", "K 3")
    assert code == 0
    assert "Type2" in out
    assert "NotStable" in out
    assert "WeaklyStable" in out


def test_analyze_c6(capsys):
    code, out, _ = run_cli(capsys, "analyze", "C 6")
    assert code == 0
    assert "NotStable" in out and "NotWeaklyStable" in out


def test_analyze_split_json_round_trip(capsys):
    code, out, _ = run_cli(capsys, "analyze", "join(K 2, Kbar 3)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["profile"]["type"] == "Type1"
    assert payload["sigmaStability"]["status"] == "Stable"
    assert payload["sigmaStability"]["theorem"] == "MainLow"
    assert set(payload) == {"profile", "sigmaStability", "weakStability", "targetPatterns"}


def test_analyze_friendship7_is_pinned(capsys):
    # 15 vertices, near the input bound; its cover search once ran for
    # tens of seconds through the 645,120 automorphisms of the pattern
    code, out, _ = run_cli(capsys, "analyze", "friendship 7", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3ca0e16c5ce1526a9bdc0bf7dca24c56154ebf2dcbda297e91317fdedce1b250"
    )


@pytest.mark.parametrize("expr, want", [
    ("C 16", ("Unknown", None, [4, 4])),
    ("P 16", ("Stable", "MainHigh", [4, 4])),
    ("union(C 8, C 8)", ("Unknown", None, [4, 4])),
])
def test_analyze_at_the_input_bound(capsys, expr, want):
    # graphs at the input bound, whose verdicts must come back in well
    # under a second
    code, out, _ = run_cli(capsys, "analyze", expr, "--json")
    assert code == 0
    verdict = json.loads(out)["sigmaStability"]
    assert (verdict["status"], verdict["theorem"], verdict["coverB1B2"]) == want


def test_analyze_json_on_every_atlas_graph_is_pinned(tmp_path, capsys):
    # one digest of `analyze --json` on each of the 1,245 graphs of
    # networkx's atlas (every graph on at most 7 vertices) that has an
    # edge, read from a graph file: it pins every profile, cover, note and
    # target pattern byte for byte
    from networkx import graph_atlas_g

    path = tmp_path / "h.txt"
    digest, count = hashlib.sha256(), 0
    for g in graph_atlas_g():
        if not g.number_of_edges():
            continue
        lines = [f"n {g.number_of_nodes()}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        path.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--json")
        assert (code, err) == (0, ""), lines
        digest.update(out.encode())
        count += 1
    assert count == 1245
    assert digest.hexdigest() == "d90dce889ee206d9d4b92b89acd74c759e82033b99150b474dcbe942f4daae24"


def test_build_pi_tilde(capsys):
    code, out, _ = run_cli(capsys, "build", "K 3", "pi_tilde", "2", "8")
    assert code == 0
    assert out.strip() == "7,1^7"


def test_build_rho(capsys):
    code, out, _ = run_cli(capsys, "build", "K 3", "rho", "8")
    assert code == 0
    assert out.strip() == "4,4,1^6"


def test_build_family(capsys):
    code, out, _ = run_cli(capsys, "build", "K 4", "family", "10")
    assert code == 0
    assert out.strip().splitlines() == ["9,9,2^8"]


def test_check_false(capsys):
    code, out, _ = run_cli(capsys, "check", "4,4,1^6", "K 3")
    assert code == 0
    assert out.splitlines()[0] == "potentially: false"
    code, out, _ = run_cli(capsys, "check", "4,4,1^6", "K 3", "--json")
    assert code == 0
    assert json.loads(out)["exhausted"]["rule"] == "degree"


def test_check_true_json(capsys):
    code, out, _ = run_cli(capsys, "check", "2,2,2", "K 3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["potentially"] is True
    assert payload["embedding"] and payload["realizationEdges"]


def test_sigma_k3(capsys):
    code, out, _ = run_cli(capsys, "sigma", "K 3", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "16"
    assert "maximizer: 7,1^7" in lines
    assert "maximizer: 4,4,1^6" in lines


def test_dist(capsys):
    code, out, _ = run_cli(capsys, "dist", "4,4,1^6", "7,1^7")
    assert code == 0
    assert out.strip() == "6"


def test_probe_human_and_trace(capsys):
    code, out, _ = run_cli(capsys, "probe", "7,1^7", "K 3", "--f-override", "4")
    assert code == 0
    assert "verdict: found_split" in out

    code, out, _ = run_cli(
        capsys, "probe", "7,1^7", "K 3", "--f-override", "4", "--trace"
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0]["record"] == "config"
    assert records[-1]["record"] == "final"


def test_probe_claim_is_verified_within_the_cap(capsys):
    # the early exit claims the 17-term sequence without step 2: past the
    # default cap it stays unverified, and at cap 20 the oracle verifies it
    sequence, graph = parse_sequence("2^17"), graph_from_text("K 3")
    for extra, verified in (((), None), (("--cap-n", "20"), True)):
        cfg = ProbeConfig(cap_n=int(extra[1])) if extra else ProbeConfig()
        want = run_probe(sequence, graph, cfg)[0].to_json_dict()
        code, out, _ = run_cli(capsys, "probe", "2^17", "K 3", "--json", *extra)
        assert code == 0 and json.loads(out) == want
        assert (want["verdict"], want["reason"], want.get("verified")) == (
            "declared_potential", "yin_li_early_exit", verified)


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "triangle.txt"
    path.write_text("n 3\ne 1 2\ne 2 3\ne 1 3\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    assert json.loads(out)["profile"]["k"] == 3


def test_exit_code_usage_error(capsys):
    code, _, err = run_cli(capsys, "analyze", "K x")
    assert code == 1 and err


def test_exit_code_parse_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "check", "4,4,oops", "K 3")
    assert code == 1 and err
    # a directory as the graph, repeat counts and build lengths past the
    # length cap, zero denominators and a deeply nested expression end in
    # the documented error, not a traceback
    deep = "complement(" * 3000 + "K 3" + ")" * 3000
    for argv in (
        ("check", "2,2,2", str(tmp_path)),
        ("dist", "1^10000000000000", "1"),
        ("dist", "1^10000000000000000000", "1"),
        ("build", "K 3", "rho", "100000000000"),
        ("build", "K 3", "pi_tilde", "2", "100000000000"),
        ("build", "K 3", "family", "100000000000"),
        ("probe", "9,3^9", "split 2 3", "--epsilon", "1/0"),
        ("probe", "9,3^9", "split 2 3", "--delta", "1/0"),
        ("analyze", deep),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:"), argv
    # a build with the wrong argument count or an unknown kind, a witness
    # with k - alpha - 2 < 0, a zero cutoff and an exponent past the bound
    for argv, message in (
        (("build", "K 3", "pi_tilde", "2"), "usage error: pi_tilde needs two arguments: i n"),
        (("build", "K 3", "pi_tilde", "2", "8", "9"), "usage error: pi_tilde needs two arguments: i n"),
        (("build", "K 3", "rho"), "usage error: rho needs one argument: n"),
        (("build", "K 3", "rho", "8", "9"), "usage error: rho needs one argument: n"),
        (("build", "K 3", "family"), "usage error: family needs one argument: n"),
        (("build", "K 3", "family", "8", "9"), "usage error: family needs one argument: n"),
        (("build", "K 3", "foo", "1"), "usage error: argument kind: invalid choice: 'foo'"),
        (("build", "union(K 2, Kbar 3)", "rho", "10"), "error: k - alpha - 2 = -1 is negative"),
        (("probe", "9,3^9", "split 2 3", "--f-override", "0"), "error: step-1 cutoff must be positive, got 0"),
        (("probe", "9,3^9", "split 2 3", "--epsilon", "1e2000"), "error: exponent in '1e2000' exceeds 1000"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith(message), (argv, err)
    # Fraction accepts these, but Python refuses to print an integer of
    # more than 4,300 digits; the message names potnum's own bound instead
    for flag in ("--epsilon", "--delta"):
        for value in ("0." + "0" * 5000 + "1", "1" * 5000 + "/7"):
            code, _, err = run_cli(capsys, "probe", "9,3^9", "split 2 3", flag, value)
            assert code == 1 and err.startswith("error:"), (flag, value[:8])
            assert f"exceeds {MAX_DIGITS} digits" in err, (flag, value[:8])
    # so does int(), for an integer in an expression, a build parameter,
    # either line of a graph file or a degree or repeat count of sequence
    # text, whether it has one digit more than the bound or more digits
    # than Python prints
    ones = "1" * 5000
    (tmp_path / "n.txt").write_text(f"n {ones}\n")
    (tmp_path / "e.txt").write_text(f"n 3\ne 1 {ones}\n")
    sequences = [
        argv
        for digits in ("1" * 1001, ones)
        for argv in (
            ("check", digits, "K 3"),
            ("dist", digits, "1"),
            ("dist", f"1^{digits}", "1"),
            ("probe", f"{digits},3^9", "split 2 3"),
        )
    ]
    for argv in (
        ("analyze", f"K {ones}"),
        ("build", "K 3", "rho", ones),
        ("analyze", str(tmp_path / "n.txt")),
        ("analyze", str(tmp_path / "e.txt")),
        *sequences,
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and err.startswith("error:"), argv[:2]
        assert f"exceeds {MAX_DIGITS} digits" in err, argv[:2]
    # Fraction would build 10**999999999 before any range check; these run
    # in a subprocess so that a hang fails the test instead of stalling it
    code = "import sys; sys.path.insert(0, sys.argv[1]); from potnum.cli import main; sys.exit(main(sys.argv[2:]))"
    src = str(Path(potnum.__file__).parents[1])
    for flag in ("--epsilon", "--delta"):
        for value in ("1e999999999", "1e-999999999"):
            argv = ["probe", "9,3^9", "split 2 3", flag, value]
            run = subprocess.run([sys.executable, "-c", code, src, *argv], capture_output=True, text=True, timeout=60)
            assert run.returncode == 1 and run.stderr.startswith("error:"), argv


def test_probe_without_the_oracle(capsys):
    # --no-oracle reports the iteration's own claim, never a verified flag
    code, out, _ = run_cli(capsys, "probe", "9,9,2^8", "K 4", "--f-override", "3", "--no-oracle", "--json")
    verdict = json.loads(out)
    assert code == 0 and verdict["verdict"] == "found_split"
    assert verdict["subgraphOrder"] == 4 and "verified" not in verdict
    code, out, _ = run_cli(capsys, "probe", "4,4,3^5,1", "C 5", "--f-override", "3", "--no-oracle", "--json")
    assert code == 0 and json.loads(out) == {"verdict": "declared_potential", "reason": "init_guard"}


def test_dist_takes_no_cap(capsys):
    # dist, analyze and build decide and realize no sequence, so --cap-n
    # has nothing to bound there
    for argv in (("dist", "4,4,1^6", "7,1^7"), ("analyze", "K 3"), ("build", "K 3", "rho", "8")):
        code, _, err = run_cli(capsys, *argv, "--cap-n", "3")
        assert code == 1 and err.startswith("usage error:"), argv


def test_exit_code_cap_exceeded(capsys, tmp_path):
    # an oracle length above the cap, graph input above its order bound, a
    # pattern above the oracle's order cap, and a probe whose step 2 would
    # realize more terms than the cap
    path = tmp_path / "k17.txt"
    path.write_text("n 17\n")
    for argv in (
        ("sigma", "K 3", "12"),
        ("analyze", "K 17"),
        ("analyze", str(path)),
        ("check", "2,2,2", "K 12"),
        ("probe", "16,1^16", "K 3"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "cap exceeded" in err, argv


def test_all_json_outputs_are_valid_json(capsys):
    cases = [
        ("analyze", "C 5", "--json"),
        ("build", "K 3", "family", "8", "--json"),
        ("check", "7,1^7", "K 3", "--json"),
        ("sigma", "K 3", "6", "--json"),
        ("probe", "9,3^9", "join(K 2, Kbar 3)", "--f-override", "3", "--json"),
        ("dist", "2,2", "2", "--json"),
    ]
    for argv in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        json.loads(out)


def test_module_entry_point_exits_with_the_code_main_returns():
    # ``python -m potnum.cli`` hands main's return value to sys.exit
    env = {**os.environ, "PYTHONPATH": str(Path(potnum.__file__).parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "potnum.cli", "check", "3,3", "K 2"], capture_output=True, text=True, env=env, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (1, "", "error: sequence 3,3 is not graphic\n")
    run = subprocess.run(
        [sys.executable, "-m", "potnum.cli", "dist", "7,1^7", "4,4,1^6"], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0 and run.stdout and not run.stderr


def test_cold_start_skips_unused_stdlib_modules():
    # every `potnum` start pays for the modules it imports. The records need
    # neither dataclasses and inspect nor typing, and argparse's help
    # formatter pulls in shutil (with bz2, lzma, zlib and fnmatch) only when
    # it is given no width
    code = (
        "import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); import potnum.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = potnum.cli.main(['dist', '7,1^7', '4,4,1^6', '--json'])\n"
        "print(code, *sys.modules)"
    )
    src = str(Path(potnum.__file__).parents[1])
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    status, *loaded = run.stdout.split()
    assert status == "0" and "potnum.cli" in loaded
    unused = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing", "shutil", "bz2", "lzma", "zlib", "fnmatch"}
    assert not unused & set(loaded)
    # the workers' path: the package without the CLI
    code = "import sys; sys.path.insert(0, sys.argv[1]); import potnum; print(*sys.modules)"
    run = subprocess.run([sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    loaded = set(run.stdout.split())
    assert "potnum.oracle" in loaded and "typing" not in loaded


@pytest.mark.parametrize("columns", [None, "50", "120"])
def test_help_width_is_the_terminal_width_argparse_would_take(monkeypatch, columns):
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)
    parser = build_parser()
    subparsers = next(a for a in parser._actions if a.choices and "probe" in a.choices)
    width = shutil.get_terminal_size().columns - 2
    for p in (parser, subparsers.choices["probe"]):
        assert p.formatter_class(prog=p.prog)._width == width


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as done:
        main(["-h"])
    assert done.value.code == 0 and capsys.readouterr().out.startswith("usage: potnum")


# argv drawn from the command grammar (graphs up to the input bound,
# lengths of at most 8), each slot now and then replaced by a bad token


def _graph(budget, depth):
    """Graph expressions of order at most ``budget``, calls nested at most
    ``depth`` deep."""
    sizes = st.integers(1, budget)
    leaves = [
        st.builds("{} {}".format, st.sampled_from(["K", "Kbar", "C", "P"]), sizes),
        sizes.flatmap(lambda m: st.builds(
            "{} {} {}".format, st.sampled_from(["Kbip", "split"]), st.just(m), st.integers(0, budget - m))),
        st.integers(0, budget // 2).map(lambda t: f"friendship {t}"),
    ]
    if budget >= 2:
        leaves.append(st.integers(0, budget - 2).flatmap(
            lambda b: st.integers(0, budget - 2 - b).map(lambda c: f"dstar {b} {c}")))
    if depth and budget >= 2:
        leaves.append(_graph(budget, depth - 1).map(lambda g: f"complement({g})"))
        leaves.append(st.integers(1, budget - 1).flatmap(lambda a: st.builds(
            "{}({}, {})".format, st.sampled_from(["join", "union"]),
            _graph(a, depth - 1), _graph(budget - a, depth - 1))))
    return st.one_of(leaves)


def _or(good, bad):
    """``good``, or one time in four ``bad``."""
    return st.integers(0, 3).flatmap(lambda i: bad if i == 0 else good)


# integers past every cap: lengths, orders and repeat counts, 1000 digits
# and more, and more than the 4,300 digits Python converts
_HUGE = st.sampled_from(["11", "17", "1000001", "1" * 1001, "9" * 1200, "-" + "1" * 1001, "1" * 5000])
_GRAPH = _or(_graph(MAX_ORDER, 2), st.one_of(
    st.sampled_from(["frob", "Q 3", "K", "join(K 2)", "", "K 18", "K 17", "Kbip 9 9", "friendship 9"]),
    _HUGE.map("K {}".format),
))
_LENGTH = st.integers(1, 8).map(str)


def _degrees(n, edges):
    degrees = [0] * n
    for u, v in edges:
        if u != v:
            degrees[u] += 1
            degrees[v] += 1
    return ",".join(map(str, sorted(degrees, reverse=True)))


# graphic sequences of length at most 8, as the degrees of a drawn graph
_SEQ = _or(
    st.integers(1, 8).flatmap(lambda n: st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))).map(
        lambda edges: _degrees(n, {(min(e), max(e)) for e in edges}))),
    st.one_of(st.sampled_from(["1^12", "3^20", "3,1", "frob", "", "1,,2"]), _HUGE, _HUGE.map("1^{}".format)),
)
_FRACTION = _or(st.sampled_from(["1/4", "1/3", "0.1", "1/1000"]), st.sampled_from(["1/0", "-1/4", "2", "abc"]))
_COMMON = st.lists(
    st.one_of(st.just(["--json"]), _or(st.integers(0, 10).map(str), _HUGE).map(lambda c: ["--cap-n", c])),
    max_size=2,
)
# analyze, build and dist take no --cap-n
_JSON = st.lists(st.just("--json"), max_size=1)
_OPTIONS = st.lists(st.one_of(
    st.just(["--trace"]), st.just(["--no-oracle"]),
    _or(st.integers(-1, 6).map(str), _HUGE).map(lambda f: ["--f-override", f]),
    _FRACTION.map(lambda e: ["--epsilon", e]),
    _FRACTION.map(lambda e: ["--delta", e]),
), max_size=3)
_COMMANDS = st.one_of(
    st.tuples(st.just("analyze"), _GRAPH, _JSON),
    st.tuples(st.just("build"), _GRAPH, st.one_of(
        st.tuples(st.just("pi_tilde"), st.integers(0, 7).map(str), _or(_LENGTH, _HUGE)),
        st.tuples(st.sampled_from(["rho", "family"]), _or(_LENGTH, _HUGE)),
    ), _JSON),
    st.tuples(st.just("check"), _SEQ, _GRAPH, _COMMON),
    st.tuples(st.just("sigma"), _GRAPH, _or(_LENGTH, _HUGE), _COMMON),
    st.tuples(st.just("probe"), _SEQ, _GRAPH, _OPTIONS, _COMMON),
    st.tuples(st.just("dist"), _SEQ, _SEQ, _JSON),
)


def _flatten(parts):
    for part in parts:
        if isinstance(part, str):
            yield part
        else:
            yield from _flatten(part)


@settings(max_examples=400, deadline=2000, derandomize=True)
@given(
    parts=_COMMANDS,
    # an unknown command or option in place of a token
    mutation=_or(st.none(), st.tuples(st.integers(1, 20), st.sampled_from(["frob", "--frob"]))),
)
def test_cli_exits_with_a_documented_code_and_message(parts, mutation):
    argv = list(_flatten(parts))
    if mutation is not None:
        at, token = mutation
        argv[at % len(argv)] = token
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, message)
    assert not message or message.startswith(("error:", "usage error:", "cap exceeded")), (argv, message)
    assert "Traceback" not in message and "internal invariant" not in message, argv
