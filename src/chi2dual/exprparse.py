"""Tiny expression grammar for user-defined constraint functions.

Expressions are written over one observation row: identifiers x1..xd name
the coordinates; literals, + - * / ^ (right-associative power), unary
minus, parentheses, and the functions pow(a, b), exp(a), log(a) and the
indicator le(a, b) = 1 if a <= b else 0.  Compiled expressions evaluate
vectorized over the whole sample.

Grammar (precedence climbing; ``_BINARY`` gives each operator's precedence,
+ - 1, * / 2, ^ 3, and whether it is left-associative):

    expr(p) := unary (OP expr(q))*   for each OP of precedence r >= p, where
                                     q = r + 1 if OP is left-associative, else r
    unary   := '-' expr(3) | primary          (so -x^2 reads -(x^2))
    primary := NUMBER | IDENT | IDENT '(' expr(1) (',' expr(1))* ')' | '(' expr(1) ')'
"""

from __future__ import annotations

import operator
import re
from typing import Callable

import numpy as np

MAX_DEPTH = 100  # expr calls nested deeper than this are refused, not left to recurse
MAX_NODES = 500  # more operations are refused: evaluation recurses once per operation

_Node = Callable[[np.ndarray], np.ndarray]


class ExprError(ValueError):
    """Syntax or semantic error in a constraint expression."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+\.?\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^,])"
    r"|(?P<bad>\S))"
)

# operator: (precedence, left-associative, function); Python's operators, not
# np.add and kin, since numpy reuses a temporary operand's buffer only via them
_BINARY = {
    "+": (1, True, operator.add),
    "-": (1, True, operator.sub),
    "*": (2, True, operator.mul),
    "/": (2, True, operator.truediv),
    "^": (3, False, np.power),
}

_FUNCTIONS: dict[str, tuple[int, Callable[..., np.ndarray]]] = {
    "pow": (2, np.power),
    "exp": (1, np.exp),
    "log": (1, np.log),
    "le": (2, lambda a, b: (a <= b).astype(float)),
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token, then ("end", "", len(text))."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind == "bad":
            raise ExprError(f"unexpected character {match[kind]!r} at position {match.start()}")
        tokens.append((kind, match[kind], match.start(kind)))
    return tokens + [("end", "", len(text))]


class _Parser:
    def __init__(self, text: str, d: int) -> None:
        self.text = text
        self.d = d
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        self.nodes = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self, expected: str | None = None) -> tuple[str, str, int]:
        kind, text, pos = token = self.peek()
        if kind == "end":
            raise ExprError(f"unexpected end of expression in {self.text!r}")
        if expected is not None and text != expected:
            raise ExprError(f"expected {expected!r} at position {pos}, found {text!r}")
        self.index += 1
        return token

    def node(self, pos: int, fn: Callable[..., np.ndarray], *args: _Node) -> _Node:
        self.nodes += 1
        if self.nodes > MAX_NODES:
            raise ExprError(f"more than {MAX_NODES} operations at position {pos}")
        # operands passed one by one: a generator costs several microseconds a node
        if len(args) == 1:
            (a,) = args
            return lambda x: fn(a(x))
        a, b = args
        return lambda x: fn(a(x), b(x))

    def expr(self, least: int = 1) -> _Node:
        """Operators of precedence >= ``least``, folded by ``_BINARY``."""
        token = self.next()
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"nested more than {MAX_DEPTH} levels deep at position {token[2]}")
        if token[1] == "-":
            node = self.node(token[2], operator.neg, self.expr(_BINARY["^"][0]))
        else:
            node = self.primary(token)
        while (op := self.peek())[1] in _BINARY:
            precedence, left_assoc, fn = _BINARY[op[1]]
            if precedence < least:
                break
            self.index += 1
            rhs = self.expr(precedence + 1 if left_assoc else precedence)
            node = self.node(op[2], fn, node, rhs)
        self.depth -= 1
        return node

    def primary(self, token: tuple[str, str, int]) -> _Node:
        kind, text, pos = token
        if kind == "number":
            value = float(text)
            return lambda x: np.full(x.shape[0], value)
        if text == "(":
            node = self.expr()
            self.next(")")
            return node
        if kind != "ident":
            raise ExprError(f"unexpected token {text!r} at position {pos}")
        if self.peek()[1] == "(":
            if text not in _FUNCTIONS:
                raise ExprError(f"unknown function {text!r} at position {pos}")
            arity, impl = _FUNCTIONS[text]
            self.next("(")
            args = [self.expr()]
            while self.peek()[1] == ",":
                self.index += 1
                args.append(self.expr())
            self.next(")")
            if len(args) != arity:
                raise ExprError(f"{text} takes {arity} argument(s), got {len(args)}")
            return self.node(pos, impl, *args)
        match = re.fullmatch(r"x(\d+)", text)
        if match is None:
            raise ExprError(
                f"unknown identifier {text!r} at position {pos}; coordinates are x1..x{self.d}"
            )
        coord = int(match.group(1))
        if not 1 <= coord <= self.d:
            raise ExprError(f"coordinate {text} out of range for d={self.d} at position {pos}")
        return lambda x: x[:, coord - 1]


def compile_expression(text: str, d: int) -> _Node:
    """Compile an expression into a vectorized (n, d) -> (n,) evaluator."""
    if d < 1:
        raise ExprError(f"dimension must be >= 1, got {d}")
    if not text.strip():
        raise ExprError("empty expression")
    parser = _Parser(text, d)
    node = parser.expr()
    token = parser.peek()
    if token[0] != "end":
        raise ExprError(f"trailing input {token[1]!r} at position {token[2]}")
    return node
