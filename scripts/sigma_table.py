"""Print σ(H, n), its maximizer count and the CPU seconds it took, for
each graph of the eight-graph test corpus at the given lengths, or for
one graph at one length.

    PYTHONPATH=src python scripts/sigma_table.py 13 14 15 16
    PYTHONPATH=src python scripts/sigma_table.py 18 20 22 24
    PYTHONPATH=src python scripts/sigma_table.py "C 6@32" "C 7@24"

An item N runs the corpus at length N; an item GRAPH@N runs GRAPH, in
``graph_from_text`` syntax, at length N. Items run in turn in this one
process, with the oracle's length cap raised to each length; the times
are ``time.process_time`` seconds. A length of the corpus ends with its
total CPU and a sha256 digest over every graph's name, σ and maximizer
texts, in corpus order, and a GRAPH@N item with the same digest over its
one graph, so that two checkouts can be compared by one line per item.
"""

import hashlib
import sys
import time

from potnum.generators import graph_from_text
from potnum.graphs import (
    complete_bipartite,
    complete_graph,
    complete_split,
    cycle_graph,
    friendship_graph,
    path_graph,
)
from potnum.oracle import sigma_exact

CORPUS = {
    "K3": complete_graph(3),
    "K4": complete_graph(4),
    "C5": cycle_graph(5),
    "C6": cycle_graph(6),
    "P4": path_graph(4),
    "K23": complete_bipartite(2, 3),
    "split23": complete_split(2, 3),
    "friendship2": friendship_graph(2),
}


def main(items):
    for item in items:
        text, at, n = str(item).rpartition("@")
        n = int(n)
        graphs = {text: graph_from_text(text)} if at else CORPUS
        total = 0.0
        digest = hashlib.sha256()
        for name, h in graphs.items():
            start = time.process_time()
            out = sigma_exact(h, n, cap_n=n)
            took = time.process_time() - start
            total += took
            texts = " ".join(s.to_text() for s in out.extremal_sequences)
            digest.update(f"{name} {out.value} {texts}\n".encode())
            print(f"n={n} {name} sigma={out.value} maximizers={len(out.extremal_sequences)} cpu={took:.2f}s", flush=True)
        if at:
            print(f"n={n} {text} digest sha256={digest.hexdigest()}", flush=True)
        else:
            print(f"n={n} corpus cpu={total:.2f}s", flush=True)
            print(f"n={n} digest sha256={digest.hexdigest()}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:] or [13])
