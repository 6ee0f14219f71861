"""Check σ(H, n) and its maximizers against a scan with none of
``sigma_exact``'s prunes, for each graph of the eight-graph test corpus
at the given lengths.

    PYTHONPATH=src python scripts/sigma_unpruned.py 11 12

The reference scan decides, with the decision recursion ``_decide``,
every sequence that ``enumerate_graphic_sequences(n, total)`` gives with
no host and no smallest-term bound, from the top sum down, and stops at
the first sum that holds a refutation: σ is 2 more than that sum and the
maximizers are its refuted sequences. It is the scan of
``tests/test_oracle.py::test_sigma_matches_unpruned_scan`` at lengths
past the ones that test runs. Each graph prints whether σ and the
maximizers match ``sigma_exact`` and the ``time.process_time`` seconds of
each side, ``sigma_exact`` first, in one process; the exit status is 1
if any graph does not match.
"""

import sys
import time

from sigma_table import CORPUS

from potnum.oracle import _decide, enumerate_graphic_sequences, sigma_exact


def sigma_unpruned(h, n):
    """σ(h, n) and its maximizers, deciding every graphic sequence of
    each sum from the top down."""
    for total in range(n * (n - 1), -1, -2):
        falses = tuple(s for s in enumerate_graphic_sequences(n, total) if not _decide(s.terms, h))
        if falses:
            return total + 2, falses
    return None


def main(lengths):
    ok = True
    for n in lengths:
        totals = [0.0, 0.0]
        for name, h in CORPUS.items():
            start = time.process_time()
            out = sigma_exact(h, n, cap_n=n)
            pruned = time.process_time() - start
            start = time.process_time()
            want = sigma_unpruned(h, n)
            unpruned = time.process_time() - start
            match = (out.value, out.extremal_sequences) == want
            ok = ok and match
            totals[0] += pruned
            totals[1] += unpruned
            print(
                f"n={n} {name} sigma={out.value} match={match} "
                f"sigma_exact_cpu={pruned:.2f}s unpruned_cpu={unpruned:.2f}s",
                flush=True,
            )
        print(f"n={n} corpus sigma_exact_cpu={totals[0]:.2f}s unpruned_cpu={totals[1]:.2f}s", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main([int(a) for a in sys.argv[1:]] or [11]))
