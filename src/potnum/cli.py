"""Command-line surface: analyze, build, check, sigma, probe, dist.

Graphs are given either as generator expressions (``"join(K 2, Kbar 3)"``)
or as paths to edge-list files (first line ``n <k>``, then ``e <u> <v>``
lines, 1-based). Sequences use the run-length text form ``7,1^7``.

Exit codes: 0 success, 1 parse/usage error, 2 cap exceeded, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .generators import graph_from_text
from .graphs import SmallGraph, parse_graph_file
from .oracle import DEFAULT_CAP_N, CapExceededError, potentially, sigma_exact
from .potential import profile, rho, target_family, target_pattern_text, target_sequence
from .probe import ProbeConfig, run_probe
from .sequences import MAX_DIGITS, MAX_INT_ARG, _check_digits, l1_distance, parse_sequence
from .stability import classify_sigma, classify_weak

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAP = 2
EXIT_INTERNAL = 3
# A bound on the exponent in --epsilon and --delta: Fraction builds
# 10**exponent before any range check. Their digits are bounded by
# MAX_DIGITS, since the trace prints the exact value.
MAX_EXPONENT = 1000


def _help_formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's help formatter at the width it would pick itself.

    Given no width, ``HelpFormatter`` imports shutil (and with it bz2,
    lzma, zlib and fnmatch) for ``shutil.get_terminal_size``, and every
    ``add_argument`` builds a formatter, so each start of ``potnum`` would
    pay for that import. This takes the columns the same way: COLUMNS,
    then the terminal of ``sys.__stdout__``, then 80; less 2.
    """
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    """Raises ``UsageError`` in place of exiting. Its subparsers are of its
    own type, so they share the formatter default."""

    def __init__(self, *args, formatter_class=_help_formatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    def error(self, message):
        raise UsageError(message)


class UsageError(ValueError):
    pass


def _load_graph(source: str) -> SmallGraph:
    if os.path.exists(source):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read graph file {source!r}: {exc.strerror or exc}") from None
        return parse_graph_file(text)
    return graph_from_text(source)


def _emit(payload, as_json: bool, human_lines: list[str]) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in human_lines:
            print(line)


def cmd_analyze(args) -> int:
    h = _load_graph(args.graph)
    prof = profile(h)
    sigma_verdict = classify_sigma(h)
    weak_verdict = classify_weak(h)
    patterns = [
        {"i": i, "pattern": target_pattern_text(h, i)}
        for i in sorted(prof.sigma_tilde_i)
        if prof.sigma_tilde_i[i] == prof.sigma_tilde
    ]
    payload = {
        "profile": prof.to_json_dict(),
        "sigmaStability": sigma_verdict.to_json_dict(),
        "weakStability": weak_verdict.to_json_dict(),
        "targetPatterns": patterns,
    }
    human = [
        f"order {prof.k}, independence number {prof.alpha}",
        f"type: {prof.type_label} (bH={prof.b_h})",
        f"sigmaTilde: {prof.sigma_tilde} at iStar={prof.i_star}",
        "nabla: " + ", ".join(f"{i}:{v}" for i, v in sorted(prof.nabla_table.items())),
        f"sigma-stability: {sigma_verdict.status}"
        + (f" via {sigma_verdict.theorem}" if sigma_verdict.theorem else "")
        + (f" cover={sigma_verdict.cover}" if sigma_verdict.cover else ""),
        f"weak stability: {weak_verdict.status}"
        + (f" via {weak_verdict.basis}" if weak_verdict.basis else ""),
        "targets: " + "; ".join(p["pattern"] for p in patterns),
    ]
    _emit(payload, args.json, human)
    return EXIT_OK


def _int_params(params: list[str]) -> list[int]:
    # each builder makes a sequence of the requested length, term by term
    values = [int(_check_digits(p)) for p in params]
    for v in values:
        if v > MAX_INT_ARG:
            raise ValueError(f"argument {v} exceeds {MAX_INT_ARG}")
    return values


def _fraction(text: str) -> Fraction:
    _check_digits(text)
    exponent = re.search(r"[eE]([-+]?\d[\d_]*)\s*$", text)
    if exponent and abs(int(exponent.group(1))) > MAX_EXPONENT:
        raise ValueError(f"exponent in {text!r} exceeds {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def cmd_build(args) -> int:
    h = _load_graph(args.graph)
    kind = args.kind
    params = _int_params(args.params)
    if kind == "pi_tilde":
        if len(params) != 2:
            raise UsageError("pi_tilde needs two arguments: i n")
        ts = target_sequence(h, *params)
        _emit(ts.to_json_dict(), args.json, [ts.seq.to_text()])
    elif kind == "rho":
        if len(params) != 1:
            raise UsageError("rho needs one argument: n")
        wit = rho(h, params[0])
        _emit(wit.to_json_dict(), args.json, [wit.seq.to_text()])
    elif kind == "family":
        if len(params) != 1:
            raise UsageError("family needs one argument: n")
        fam = target_family(h, params[0])
        _emit(
            {"family": [ts.to_json_dict() for ts in fam]},
            args.json,
            [ts.seq.to_text() for ts in fam],
        )
    return EXIT_OK


def cmd_check(args) -> int:
    seq = parse_sequence(args.sequence)
    h = _load_graph(args.graph)
    cert = potentially(seq, h, cap_n=args.cap_n)
    human = [f"potentially: {'true' if cert.answer else 'false'}"]
    if cert.answer and cert.embedding is not None:
        human.append(
            "embedding: "
            + ", ".join(f"{u + 1}->{v + 1}" for u, v in sorted(cert.embedding.items()))
        )
        human.append(
            "realization edges: "
            + " ".join(f"({u + 1},{v + 1})" for u, v in cert.realization.graph.edges())
        )
    _emit(cert.to_json_dict(), args.json, human)
    return EXIT_OK


def cmd_sigma(args) -> int:
    h = _load_graph(args.graph)
    result = sigma_exact(h, args.n, cap_n=args.cap_n)
    human = [str(result.value)]
    human += [f"maximizer: {s.to_text()}" for s in result.extremal_sequences]
    _emit(result.to_json_dict(), args.json, human)
    return EXIT_OK


def cmd_probe(args) -> int:
    seq = parse_sequence(args.sequence)
    h = _load_graph(args.graph)
    cfg = ProbeConfig(
        epsilon=_fraction(args.epsilon) if args.epsilon else Fraction(1, 4),
        delta=_fraction(args.delta) if args.delta else None,
        f_override=args.f_override,
        oracle_fallback=not args.no_oracle,
        cap_n=args.cap_n,
    )
    verdict, trace = run_probe(seq, h, cfg)
    if args.trace:
        for line in trace.to_json_lines():
            print(line)
        return EXIT_OK
    human = [f"verdict: {verdict.kind}"]
    if verdict.reason:
        human.append(f"reason: {verdict.reason}")
    if verdict.verified is not None:
        human.append(f"verified: {'true' if verdict.verified else 'false'}")
    if verdict.target is not None:
        human.append(f"target: {verdict.target.seq.to_text()} (i={verdict.target.i})")
    if verdict.distance is not None:
        human.append(f"distance: {verdict.distance}")
    _emit(verdict.to_json_dict(), args.json, human)
    return EXIT_OK


def cmd_dist(args) -> int:
    a = parse_sequence(args.sequence_a)
    b = parse_sequence(args.sequence_b)
    d = l1_distance(a, b)
    _emit({"distance": d}, args.json, [str(d)])
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(
        prog="potnum",
        description="Potential-number profiles, stability classification, and desk-scale oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON")
        p.add_argument("--cap-n", type=int, default=DEFAULT_CAP_N, help="longest sequence decided or realized")

    p = sub.add_parser("analyze", help="profile a graph and classify its stability")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("build", help="emit extremal sequences for a graph")
    p.add_argument("graph")
    p.add_argument("kind", choices=["pi_tilde", "rho", "family"])
    p.add_argument("params", nargs="*")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="decide potentially-H-graphic exactly")
    p.add_argument("sequence")
    p.add_argument("graph")
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sigma", help="exact potential number by enumeration")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    common(p)
    p.set_defaults(func=cmd_sigma)

    p = sub.add_parser("probe", help="run the near-threshold iteration with a trace")
    p.add_argument("sequence")
    p.add_argument("graph")
    p.add_argument("--epsilon", default=None, help="rational like 1/4")
    p.add_argument("--delta", default=None, help="rational like 1/1000")
    p.add_argument("--f-override", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="emit JSON-lines trace")
    p.add_argument("--no-oracle", action="store_true", help="skip oracle verification")
    common(p)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("dist", help="l1 distance between two sequences")
    p.add_argument("sequence_a")
    p.add_argument("sequence_b")
    p.add_argument("--json", action="store_true", help="emit JSON")
    p.set_defaults(func=cmd_dist)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except AssertionError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
