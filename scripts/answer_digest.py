"""Print two sha256 digests of ``potentially`` over the pairs near σ: one
of the answers and one of the certificates.

    PYTHONPATH=src python scripts/answer_digest.py

The population is every graphic sequence of length 8, 9 and 10 at the
sums σ(H, n) − 8, σ(H, n) − 6, ..., σ(H, n), as
``enumerate_graphic_sequences`` gives them, for each graph of the
eight-graph test corpus, in corpus order: the pairs the ``check_near``
benchmark draws from. The answer digest covers each pair's bool and, for
a false answer, its ``exhausted`` dict (the refuting rule and its work
counts); a change that decides the same pairs by other rules or finds
other witnesses leaves it as it is. The certificate digest covers each
pair's whole ``to_json_dict``, embedding and realization edges included.
Two checkouts can be compared by these lines alone.
"""

import hashlib
import json

from sigma_table import CORPUS

from potnum.oracle import enumerate_graphic_sequences, potentially, sigma_exact


def main():
    answers, certificates = hashlib.sha256(), hashlib.sha256()
    pairs = true = 0
    for name, h in CORPUS.items():
        for n in (8, 9, 10):
            sigma = sigma_exact(h, n).value
            for total in range(sigma - 8, sigma + 1, 2):
                for s in enumerate_graphic_sequences(n, total):
                    cert = potentially(s, h)
                    key = f"{name} {s.to_text()} "
                    answers.update((key + json.dumps([cert.answer, cert.exhausted]) + "\n").encode())
                    certificates.update((key + json.dumps(cert.to_json_dict()) + "\n").encode())
                    pairs += 1
                    true += cert.answer
    print(f"pairs={pairs} true={true}")
    print(f"answers sha256={answers.hexdigest()}")
    print(f"certificates sha256={certificates.hexdigest()}")


if __name__ == "__main__":
    main()
