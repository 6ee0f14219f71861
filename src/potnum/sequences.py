"""Degree-sequence arithmetic: graphicality tests, lay-offs, and distances.

Sequences are always kept in canonical form: nonincreasing, zeros retained.
All operations are pure functions on immutable values.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from functools import lru_cache
from itertools import accumulate

# The largest integer that text input may ask for: the length of a parsed
# sequence here, an integer argument of a generator expression there.
MAX_INT_ARG = 10**6
# The most digits that integer text may have: Python's int() refuses more
# than 4,300 with a message of its own, so potnum refuses them first.
MAX_DIGITS = 1000


def _check_digits(text: str) -> str:
    """``text``, once it is known to hold at most ``MAX_DIGITS`` digits."""
    digits = sum(map(str.isdigit, text))
    if digits > MAX_DIGITS:
        raise ValueError(f"number with {digits} digits exceeds {MAX_DIGITS} digits")
    return text


class DegreeSequence:
    """A nonincreasing tuple of nonnegative integer degrees.

    Zeros are legal terms and count toward the length ``n``. Construction
    sorts the input, so any iterable of degrees yields the canonical form.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[int] = ()):
        ts = tuple(sorted((int(t) for t in terms), reverse=True))
        if ts and ts[-1] < 0:
            raise ValueError("degrees must be nonnegative")
        object.__setattr__(self, "terms", ts)

    @property
    def n(self) -> int:
        return len(self.terms)

    def sum(self) -> int:
        return sum(self.terms)

    def term(self, i: int) -> int:
        """1-based access: d_i."""
        if not 1 <= i <= len(self.terms):
            raise IndexError(f"term index {i} out of range 1..{len(self.terms)}")
        return self.terms[i - 1]

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[int]:
        return iter(self.terms)

    def __getitem__(self, idx):
        return self.terms[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, DegreeSequence) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __repr__(self) -> str:
        return f"DegreeSequence({self.to_text()!r})"

    def __setattr__(self, name, value):
        raise AttributeError("DegreeSequence is immutable")

    def to_text(self) -> str:
        """Run-length form, e.g. ``7,1^7``; runs of one or two stay bare."""
        parts = []
        i = 0
        ts = self.terms
        while i < len(ts):
            j = i
            while j < len(ts) and ts[j] == ts[i]:
                j += 1
            run = j - i
            if run >= 3:
                parts.append(f"{ts[i]}^{run}")
            else:
                parts.extend([str(ts[i])] * run)
            i = j
        return ",".join(parts)


def _canonical(terms: tuple[int, ...]) -> DegreeSequence:
    """A sequence from a tuple its caller knows is nonincreasing and
    nonnegative: no sort, no check."""
    seq = object.__new__(DegreeSequence)
    object.__setattr__(seq, "terms", terms)
    return seq


def parse_sequence(text: str) -> DegreeSequence:
    """Parse comma-separated degrees; ``v^m`` means m repeats of v.

    Whitespace is ignored anywhere. The empty string parses to the empty
    sequence. More than ``MAX_INT_ARG`` terms, or a degree or repeat count
    of more than ``MAX_DIGITS`` digits, raise ``ValueError`` before any
    term is built. Round-trips exactly with ``DegreeSequence.to_text``.
    """
    stripped = "".join(text.split())
    if not stripped:
        return DegreeSequence(())
    terms = []
    for piece in stripped.split(","):
        if not piece:
            raise ValueError(f"empty item in sequence text {text!r}")
        if "^" in piece:
            base, _, count = piece.partition("^")
            _check_digits(base)
            _check_digits(count)
            try:
                v, m = int(base), int(count)
            except ValueError:
                raise ValueError(f"bad run-length item {piece!r}") from None
            if m < 0:
                raise ValueError(f"negative repeat count in {piece!r}")
        else:
            _check_digits(piece)
            try:
                v, m = int(piece), 1
            except ValueError:
                raise ValueError(f"bad degree {piece!r}") from None
        if v < 0:
            raise ValueError(f"negative degree {v}")
        if len(terms) + m > MAX_INT_ARG:
            raise ValueError(f"more than {MAX_INT_ARG} terms at {piece!r}")
        terms.extend([v] * m)
    return DegreeSequence(terms)


def is_graphic(seq: DegreeSequence) -> bool:
    """Erdős–Gallai test: even sum and all n prefix inequalities hold.

    Trailing zeros are treated as isolated vertices. Total function: never
    raises on a valid DegreeSequence.
    """
    return _graphic_desc(seq.terms)


@lru_cache(maxsize=1 << 16)
def _graphic_desc(terms: tuple[int, ...]) -> bool:
    """The Erdős–Gallai test on a nonincreasing tuple, cached: the one
    graphicality routine behind ``is_graphic``, the enumerator's leaf test
    and the residual solver's pruning.

    The inequality at p, d_1 + ... + d_p <= p(p-1) + sum_{i>p} min(d_i, p),
    is tested only where the sequence steps down (d_p > d_{p+1}) or ends
    (p = n), following Tripathi and Vijay (Discrete Math. 265 (2003)), and
    the test returns True at the first p with d_p < p - 1: only p up to
    the corrected Durfee number m = max{i : d_i >= i - 1} need be tested
    (Barrus, Hartke, Jao and West, Discrete Math. 312 (2012)). Both are
    exact. Write f(p) for the right side less the left, with f(0) = 0.
    Past m every term from position p on is below p - 1, so
    f(p) - f(p-1) = 2(p - 1 - d_p) > 0. On a run of equal terms d at
    positions a..b, the step f(p+1) - f(p) is 2(p - d) >= 0 once p >= d.
    Before that it is p - d + c(p), where c(p) counts the terms after
    position p + 1 that are at least p + 1; c falls by at least one per
    step inside the run, so the steps do not grow. When b > d, c(d-1) >=
    b - d >= 1 makes every step on the run nonnegative. Either way the
    least f on a-1..b is at a - 1 or at b. A run that passes m has
    d = m - 1 < b, so f(m) >= f(a-1).
    """
    n = len(terms)
    if n == 0:
        return True
    if sum(terms) % 2 or terms[0] > n - 1:
        return False
    prefix = [0] + list(accumulate(terms))
    count = n  # running count of terms >= p; terms is nonincreasing
    for p in range(1, n + 1):
        d = terms[p - 1]
        if d < p - 1:
            return True
        if p < n and terms[p] == d:
            continue
        while count > 0 and terms[count - 1] < p:
            count -= 1
        # sum_{i=p+1..n} min(d_i, p): the first max(count-p, 0) of those
        # are capped at p, the rest contribute their own value.
        capped = max(count - p, 0)
        start = max(count, p)
        if prefix[p] > p * (p - 1) + p * capped + (prefix[n] - prefix[start]):
            return False
    return True


def layoff(seq: DegreeSequence, index: int) -> DegreeSequence:
    """Lay off the 1-based ``index``-th term (Kleitman–Wang reduction).

    Case d_i < i reduces the first d_i terms by one; case d_i >= i reduces
    every other term among the first d_i + 1 positions. The result is
    re-sorted and has length n - 1. Raises ValueError if the reduction
    would drive a term below zero (the input was not graphic-consistent).
    """
    d = list(seq.terms)
    n = len(d)
    if not 1 <= index <= n:
        raise ValueError(f"layoff index {index} out of range 1..{n}")
    di = d[index - 1]
    if di < index:
        targets = range(di)
    else:
        if di + 1 > n:
            raise ValueError(f"term {di} too large to lay off from length {n}")
        targets = [j for j in range(di + 1) if j != index - 1]
    for j in targets:
        d[j] -= 1
        if d[j] < 0:
            raise ValueError("layoff drove a term below zero; input not graphic-consistent")
    del d[index - 1]
    return DegreeSequence(d)


def layoff_batch_below(seq: DegreeSequence, threshold: int) -> tuple[DegreeSequence, int, int]:
    """Repeatedly lay off a minimum term while it is below ``threshold``.

    Ties among minima resolve to the last (rightmost) position, so traces
    are deterministic. Returns (final sequence, count laid off, total of
    the laid-off values at the moment each was removed). The bookkeeping
    identities sigma(out) = sigma(in) - 2*laid_off_sum and
    laid_off_sum <= count*(threshold-1) always hold.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    d = list(seq.terms)
    count = 0
    laid_off_sum = 0
    # each pass is ``layoff(cur, cur.n)`` on the one list: the last term is
    # a minimum, so it falls in the case d_n < n, or in the raise
    while d and d[-1] < threshold:
        low = d.pop()
        if low > len(d):
            raise ValueError(f"term {low} too large to lay off from length {len(d) + 1}")
        for j in range(low):
            d[j] -= 1
        d.sort(reverse=True)
        laid_off_sum += low
        count += 1
    return (DegreeSequence(d) if count else seq), count, laid_off_sum


def l1_distance(a: DegreeSequence, b: DegreeSequence) -> int:
    """Sum of termwise absolute differences; the shorter side is zero-padded."""
    ta, tb = a.terms, b.terms
    if len(ta) < len(tb):
        ta, tb = tb, ta
    short = len(tb)
    return sum(abs(x - y) for x, y in zip(ta, tb)) + sum(ta[short:])


def degree_sufficient(seq: DegreeSequence, h: DegreeSequence) -> bool:
    """True iff the first k terms of ``seq`` termwise dominate ``h``."""
    if h.n > seq.n:
        raise ValueError(f"comparison sequence longer ({h.n}) than subject ({seq.n})")
    return all(s >= t for s, t in zip(seq.terms, h.terms))
