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

from typing import List, NamedTuple, Tuple, Union

from . import graphs
from .graphs import CapExceededError, SmallGraph
from .sequences import MAX_INT_ARG

GENERATOR_ARITY = {
    "K": 1,
    "Kbar": 1,
    "C": 1,
    "P": 1,
    "Kbip": 2,
    "split": 2,
    "dstar": 2,
    "friendship": 1,
}

CALL_ARITY = {"join": 2, "union": 2, "complement": 1}


class Gen(NamedTuple):
    name: str
    args: Tuple[int, ...]


class Call(NamedTuple):
    name: str
    operands: Tuple["GraphExpr", ...]


GraphExpr = Union[Gen, Call]


class ExprError(ValueError):
    """Syntax, arity, or overflow error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Token(NamedTuple):
    kind: str  # "name" | "int" | "(" | ")" | ","
    text: str
    pos: int


def _tokenize(text: str) -> List[_Token]:
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
    tokens = _tokenize(text)
    pos = 0

    def peek() -> _Token:
        if pos >= len(tokens):
            raise ExprError("unexpected end of input", len(text))
        return tokens[pos]

    def take(kind: str) -> _Token:
        nonlocal pos
        tok = peek()
        if tok.kind != kind:
            raise ExprError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        pos += 1
        return tok

    def parse_int() -> int:
        tok = take("int")
        value = int(tok.text)
        if value > MAX_INT_ARG:
            raise ExprError(f"integer argument {value} too large", tok.pos)
        return value

    def parse_expr() -> GraphExpr:
        nonlocal pos
        tok = take("name")
        if tok.text in GENERATOR_ARITY:
            arity = GENERATOR_ARITY[tok.text]
            args = tuple(parse_int() for _ in range(arity))
            return Gen(tok.text, args)
        if tok.text in CALL_ARITY:
            arity = CALL_ARITY[tok.text]
            take("(")
            operands = [parse_expr()]
            for _ in range(arity - 1):
                take(",")
                operands.append(parse_expr())
            take(")")
            return Call(tok.text, tuple(operands))
        raise ExprError(f"unknown generator {tok.text!r}", tok.pos)

    expr = parse_expr()
    if pos != len(tokens):
        tok = tokens[pos]
        raise ExprError(f"trailing input {tok.text!r}", tok.pos)
    return expr


def expr_order(expr: GraphExpr) -> int:
    """Vertex count of the evaluated expression, without building it."""
    if isinstance(expr, Gen):
        a = expr.args
        if expr.name in ("K", "Kbar", "C", "P"):
            return a[0]
        if expr.name in ("Kbip", "split"):
            return a[0] + a[1]
        if expr.name == "dstar":
            return a[0] + a[1] + 2
        if expr.name == "friendship":
            return 2 * a[0] + 1
        raise ValueError(f"unknown generator {expr.name!r}")
    if expr.name == "complement":
        return expr_order(expr.operands[0])
    return sum(expr_order(op) for op in expr.operands)


def build(expr: GraphExpr, cap: int = graphs.MAX_VERTICES) -> SmallGraph:
    """Evaluate the AST to a concrete graph with canonical vertex numbering.

    Joins and unions number the left operand's vertices first. Raises
    CapExceededError when the total order exceeds ``cap``.
    """
    order = expr_order(expr)
    if order > cap:
        raise CapExceededError(f"expression order {order} exceeds cap {cap}")
    return _build(expr)


def _build(expr: GraphExpr) -> SmallGraph:
    if isinstance(expr, Gen):
        name, a = expr.name, expr.args
        if name == "K":
            return graphs.complete_graph(a[0])
        if name == "Kbar":
            return graphs.empty_graph(a[0])
        if name == "C":
            return graphs.cycle_graph(a[0])
        if name == "P":
            return graphs.path_graph(a[0])
        if name == "Kbip":
            return graphs.complete_bipartite(a[0], a[1])
        if name == "split":
            return graphs.complete_split(a[0], a[1])
        if name == "dstar":
            return graphs.double_star(a[0], a[1])
        if name == "friendship":
            return graphs.friendship_graph(a[0])
        raise ValueError(f"unknown generator {name!r}")
    if expr.name == "join":
        return graphs.join(_build(expr.operands[0]), _build(expr.operands[1]))
    if expr.name == "union":
        return graphs.disjoint_union(_build(expr.operands[0]), _build(expr.operands[1]))
    if expr.name == "complement":
        return graphs.complement(_build(expr.operands[0]))
    raise ValueError(f"unknown call {expr.name!r}")


def graph_from_text(text: str, cap: int = graphs.MAX_VERTICES) -> SmallGraph:
    """Build a graph from a generator expression string."""
    return build(parse_graph_expr(text), cap=cap)
