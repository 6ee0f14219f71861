"""One batch of potnum calls in a fresh interpreter.

run.py starts this script with the interpreter state pinned (isolated
mode, potnum imported from the checkout's ``src``, bytecode read from a
private cache prefix), writes a job as JSON to its standard input and
reads the result as JSON from its standard output. Each job first does
the program's set-up (import, graph construction, per-graph warm-up),
timed as ``setup_s``, then its operations, each timed on its own and
scaled to the reference speed (see speed.py). Serializing answers happens
after the timed loop.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import speed  # noqa: E402

perf = time.perf_counter_ns


def status_mb(field: str) -> float:
    """A memory figure of this process from /proc/self/status. VmHWM, the
    peak resident size, is used rather than getrusage's ru_maxrss, which
    also counts the parent's resident size at the time of the fork."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise KeyError(field)


def cert_json(cert):
    out = {"answer": cert.answer}
    if cert.answer:
        out["embedding"] = sorted(cert.embedding.items())
        out["edges"] = cert.realization.graph.edges()
    return out


def setup(job):
    """The program's set-up for one workload; returns (modules, graphs)."""
    sys.path.insert(0, job["src"])
    if job["workload"] == "cli_cold":
        import potnum.cli as pn
    else:
        import potnum as pn
    if not pn.__file__.startswith(job["src"]):
        raise SystemExit(f"potnum imported from {pn.__file__}, not from {job['src']}")
    if job["workload"] == "cli_cold":
        return pn, {}
    graphs = {name: pn.SmallGraph(k, [tuple(e) for e in edges]) for name, (k, edges) in job["graphs"].items()}
    if job["workload"] in ("check_near", "probe_near"):
        for h in graphs.values():
            pn.potentially(h.degree_sequence(), h)
            if job["workload"] == "probe_near":
                pn.profile(h)
    return pn, graphs


def timings(out, clock):
    clock.flush()
    out["latencies_ms"], out["raw_ms"] = clock.ms, clock.raw_ms


def run_sigma(pn, graphs, job, out, tracer):
    # a graph takes 0.3 to 2 s, so its speed is read from ten slices
    clock = speed.Scaled(repeats=10)
    answers, growth = [], {}
    for name, h in graphs.items():
        before = status_mb("VmRSS")
        t0 = perf()
        res = pn.sigma_exact(h, job["n"])
        clock.add(perf() - t0)
        growth[name] = status_mb("VmRSS") - before
        answers.append([name, res.value, [list(s.terms) for s in res.extremal_sequences]])
    out["peak_rss_mb"] = status_mb("VmHWM")
    timings(out, clock)
    out["answers"], out["rss_growth_mb"] = answers, growth
    out["sample"] = [
        cert_json(pn.potentially(pn.DegreeSequence(terms), graphs[name]))
        for name, terms in job.get("sample", [])
    ]


def run_check(pn, graphs, job, out, tracer):
    pairs = [(pn.DegreeSequence(terms), graphs[name]) for name, terms in job["items"]]
    clock = speed.Scaled(block=BLOCK)
    certs = []
    for seq, h in pairs:
        t0 = perf()
        cert = pn.potentially(seq, h)
        clock.add(perf() - t0)
        certs.append(cert)
    out["peak_rss_mb"] = status_mb("VmHWM")
    timings(out, clock)
    out["answers"] = [cert_json(c) for c in certs]


def run_probe(pn, graphs, job, out, tracer):
    items = [(pn.DegreeSequence(terms), graphs[name]) for name, terms in job["items"]]
    configs = [pn.ProbeConfig(f_override=f) for f in job["f"]]
    clock = speed.Scaled(block=BLOCK)
    runs, bare_us, repeat_us = [], [], []
    for seq, h in items:
        for cfg in configs:
            if tracer:
                # the same run without oracle verification, first, so that
                # the timed run still meets the decision cache as untraced
                t0 = perf()
                pn.run_probe(seq, h, pn.ProbeConfig(f_override=cfg.f_override, oracle_fallback=False))
                bare_us.append((perf() - t0) / 1e3)
            t0 = perf()
            verdict, trace = pn.run_probe(seq, h, cfg)
            clock.add(perf() - t0)
            runs.append((seq, verdict, trace))
        if tracer:
            t0 = perf()
            pn.potentially(seq, h)
            repeat_us.append((perf() - t0) / 1e3)
    out["peak_rss_mb"] = status_mb("VmHWM")
    timings(out, clock)
    out["bare_us"], out["repeat_us"] = bare_us, repeat_us
    answers = []
    for seq, verdict, trace in runs:
        realization = None
        if verdict.embedding is not None:
            realization = pn.potentially(seq, verdict.subgraph).realization.graph.edges()
        answers.append([verdict.to_json_dict(), [json.loads(x) for x in trace.to_json_lines()], realization])
    out["answers"] = answers


def run_cli_main(pn, graphs, job, out, tracer):
    """Each command of the cli mix once through an in-process main, then the
    generator, profile and classification layers on graphs the mix did not
    touch."""
    import contextlib
    import io

    import potnum

    main_ms = []
    for argv in job["items"]:
        sink = io.StringIO()
        t0 = perf()
        with contextlib.redirect_stdout(sink):
            code = pn.main(list(argv))
        main_ms.append([argv[0], (perf() - t0) / 1e6, code])
    out["main_ms"] = main_ms
    texts = job["graph_texts"]
    gen_us, profile_ms, classify_ms = [], [], []
    for text in texts:
        t0 = perf()
        h = potnum.graph_from_text(text)
        gen_us.append((perf() - t0) / 1e3)
        potnum.profile.cache_clear()
        t0 = perf()
        potnum.profile(h)
        profile_ms.append((perf() - t0) / 1e6)
        t0 = perf()
        potnum.classify_sigma(h)
        potnum.classify_weak(h)
        classify_ms.append((perf() - t0) / 1e6)
    out["graph_from_text_us"], out["profile_ms"], out["classify_ms"] = gen_us, profile_ms, classify_ms


BLOCK = 100  # operations between two timings of the speed slice
KINDS = {"sigma": run_sigma, "check": run_check, "probe": run_probe, "cli_main": run_cli_main}


def main():
    job = json.load(sys.stdin)
    tracer = None
    clock = speed.Scaled(repeats=3)
    t0 = perf()
    pn, graphs = setup(job)
    clock.add(perf() - t0)
    out = {"setup_s": clock.ms[0] / 1e3, "raw_setup_s": clock.raw_ms[0] / 1e3}
    if job["kind"] != "setup":
        if job.get("trace"):
            import tracing

            tracer = tracing.Tracer()
            tracer.install(sys.modules)
        KINDS[job["kind"]](pn, graphs, job, out, tracer)
        if tracer:
            tracer.uninstall()
            out["spans"] = tracer.summary()
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
