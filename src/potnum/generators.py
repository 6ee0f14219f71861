"""Parser and evaluator for graph generator expressions.

Grammar (whitespace ignored between tokens):

    expr     := generator | call
    generator:= "K" INT | "Kbar" INT | "C" INT | "P" INT
               | "Kbip" INT INT | "split" INT INT | "dstar" INT INT
               | "friendship" INT
    call     := "join" "(" expr "," expr ")"
               | "union" "(" expr "," expr ")"
               | "complement" "(" expr ")"

Examples: ``join(K 2, Kbar 3)`` is the complete split graph K2 v K3bar,
``dstar 2 1`` is the double star with center degrees 3 and 2.
"""

from __future__ import annotations

from collections import namedtuple
from types import MappingProxyType

from . import graphs
from .graphs import CapExceededError, SmallGraph
from .sequences import MAX_DIGITS, MAX_INT_ARG

# name -> (arity, order of the graph from the arguments, constructor)
GENERATORS = MappingProxyType({
    "K": (1, lambda n: n, graphs.complete_graph),
    "Kbar": (1, lambda n: n, graphs.empty_graph),
    "C": (1, lambda n: n, graphs.cycle_graph),
    "P": (1, lambda n: n, graphs.path_graph),
    "Kbip": (2, lambda r, s: r + s, graphs.complete_bipartite),
    "split": (2, lambda r, t: r + t, graphs.complete_split),
    "dstar": (2, lambda b1, b2: b1 + b2 + 2, graphs.double_star),
    "friendship": (1, lambda t: 2 * t + 1, graphs.friendship_graph),
})

# name -> (arity, constructor); a call's order is the sum of its operands'
CALLS = MappingProxyType({
    "join": (2, graphs.join),
    "union": (2, graphs.disjoint_union),
    "complement": (1, graphs.complement),
})

# Calls nest at most this deep, which keeps the parser, ``expr_order`` and
# ``build`` far inside Python's recursion limit.
MAX_DEPTH = 100


class Gen(namedtuple("Gen", "name args")):
    """A generator: ``name`` (str, a key of ``GENERATORS``) and ``args``
    (tuple of int)."""

    __slots__ = ()


class Call(namedtuple("Call", "name operands")):
    """A call: ``name`` (str, a key of ``CALLS``) and ``operands`` (tuple
    of ``GraphExpr``)."""

    __slots__ = ()


GraphExpr = Gen | Call


class ExprError(ValueError):
    """Syntax, arity, nesting or overflow error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Token(namedtuple("_Token", "kind text pos")):
    """``kind`` is "name", "int", "(", ")" or ","; ``text`` the token's
    characters and ``pos`` the position of the first."""

    __slots__ = ()


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "(),":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        if c.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(_Token("name", text[i:j], i))
            i = j
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(_Token("int", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {c!r}", i)
    return tokens


def parse_graph_expr(text: str) -> GraphExpr:
    """Parse an expression into an AST, validating arity and argument size."""
    tokens = _tokenize(text)[::-1]  # a stack, the next token on top
    expr = _parse_expr(tokens, len(text), 0)
    if tokens:
        tok = tokens[-1]
        raise ExprError(f"trailing input {tok.text!r}", tok.pos)
    return expr


def _take(tokens: list[_Token], kind: str, end: int) -> _Token:
    """Pop the next token, which must be of ``kind``; ``end`` is the
    position reported when the input runs out."""
    if not tokens:
        raise ExprError("unexpected end of input", end)
    tok = tokens.pop()
    if tok.kind != kind:
        raise ExprError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
    return tok


def _parse_int(tokens: list[_Token], end: int) -> int:
    tok = _take(tokens, "int", end)
    # the token is a run of digits
    if len(tok.text) > MAX_DIGITS:
        raise ExprError(
            f"integer argument of {len(tok.text)} digits exceeds {MAX_DIGITS} digits", tok.pos
        )
    value = int(tok.text)
    if value > MAX_INT_ARG:
        raise ExprError(f"integer argument {value} too large", tok.pos)
    return value


def _parse_expr(tokens: list[_Token], end: int, depth: int) -> GraphExpr:
    tok = _take(tokens, "name", end)
    if tok.text in GENERATORS:
        args = tuple(_parse_int(tokens, end) for _ in range(GENERATORS[tok.text][0]))
        return Gen(tok.text, args)
    if tok.text in CALLS:
        if depth == MAX_DEPTH:
            raise ExprError(f"calls nested deeper than {MAX_DEPTH}", tok.pos)
        _take(tokens, "(", end)
        operands = [_parse_expr(tokens, end, depth + 1)]
        for _ in range(CALLS[tok.text][0] - 1):
            _take(tokens, ",", end)
            operands.append(_parse_expr(tokens, end, depth + 1))
        _take(tokens, ")", end)
        return Call(tok.text, tuple(operands))
    raise ExprError(f"unknown generator {tok.text!r}", tok.pos)


def _entry(expr: GraphExpr) -> tuple:
    """The table entry of the expression's generator or call."""
    table, kind = (GENERATORS, "generator") if isinstance(expr, Gen) else (CALLS, "call")
    if expr.name not in table:
        raise ValueError(f"unknown {kind} {expr.name!r}")
    return table[expr.name]


def expr_order(expr: GraphExpr) -> int:
    """Vertex count of the evaluated expression, without building it."""
    if isinstance(expr, Gen):
        return _entry(expr)[1](*expr.args)
    return sum(expr_order(op) for op in expr.operands)


def build(expr: GraphExpr) -> SmallGraph:
    """Evaluate the AST to a concrete graph with canonical vertex numbering.

    Joins and unions number the left operand's vertices first. Raises
    CapExceededError when the total order exceeds ``graphs.MAX_ORDER``.
    """
    order = expr_order(expr)
    if order > graphs.MAX_ORDER:
        raise CapExceededError(f"expression order {order} exceeds cap {graphs.MAX_ORDER}")
    return _build(expr)


def _build(expr: GraphExpr) -> SmallGraph:
    if isinstance(expr, Gen):
        return _entry(expr)[2](*expr.args)
    return _entry(expr)[1](*map(_build, expr.operands))


def graph_from_text(text: str) -> SmallGraph:
    """Build a graph from a generator expression string."""
    return build(parse_graph_expr(text))
