"""Tiny arithmetic expression language for right-hand sides f(t, u).

Problem configs carry f as text, e.g. ``"-2*exp(t)/(1+exp(t))^2 * u1"``,
so no compiled code is needed to define a system.  Components of a
vector field are separated by ``;`` in a single source string.

Grammar (EBNF), documented here and in the README:

    source  = expr { ";" expr } ;
    expr    = term { ("+" | "-") term } ;
    term    = unary { ("*" | "/") unary } ;
    unary   = "-" unary | power ;
    power   = atom [ "^" unary ] ;             (* right-associative *)
    atom    = NUMBER | IDENT | IDENT "(" expr { "," expr } ")" | "(" expr ")" ;

``^`` binds tighter than unary minus (so ``-2^2 == -4``) and maps to pow
with real exponent; ``0^0`` is defined as 1.  Identifiers resolve at
parse time to the time variable ``t``, a component ``u1``..``un``, a
named constant supplied by the config, or one of the functions
exp, log, sin, cos, sqrt, abs, pow.  Anything else is a positioned
syntax error.  Evaluation is vectorized over numpy arrays and follows
IEEE semantics until the end, where any non-finite component raises an
evaluation error carrying the offending (t, u).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BinOp",
    "Bound",
    "Call",
    "Comp",
    "ConstRef",
    "ExprEvalError",
    "ExprSyntaxError",
    "Neg",
    "Num",
    "TimeVar",
    "bind",
    "evaluate",
    "parse",
    "pretty",
    "pretty_source",
]

_FUNCTIONS = {"exp": 1, "log": 1, "sin": 1, "cos": 1, "sqrt": 1, "abs": 1, "pow": 2}


class ExprSyntaxError(ValueError):
    """Syntax or resolution failure, with 1-based line/column."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class ExprEvalError(ValueError):
    """Non-finite result during evaluation; carries the inputs."""

    def __init__(self, message: str, t, u) -> None:
        super().__init__(f"{message} at t={t!r}, u={u!r}")
        self.t = t
        self.u = u


# --- AST -------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class TimeVar:
    pass


@dataclass(frozen=True)
class Comp:
    index: int  # zero-based component of u


@dataclass(frozen=True)
class ConstRef:
    name: str
    value: float


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    args: tuple["Expr", ...]


@dataclass(frozen=True, eq=False)
class Bound:
    value: object  # a u-free subtree's value at fixed times (see ``bind``)


Expr = Num | TimeVar | Comp | ConstRef | Neg | BinOp | Call | Bound


# --- Tokenizer -------------------------------------------------------

@dataclass(frozen=True)
class _Token:
    kind: str  # num | ident | op | lparen | rparen | comma | semi | end
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""(?P<num>\d+(\.\d*)?([eE][+-]?\d+)?|\.\d+([eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^])
      | (?P<lparen>\()
      | (?P<rparen>\))
      | (?P<comma>,)
      | (?P<semi>;)""",
    re.VERBOSE,
)


def _tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(source):
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _TOKEN_RE.match(source, i)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {ch!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        tokens.append(_Token(kind, text, line, col))
        col += len(text)
        i = m.end()
    tokens.append(_Token("end", "", line, col))
    return tokens


# --- Parser ----------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token], n: int, constants: dict[str, float]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.n = n
        self.constants = constants

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str) -> ExprSyntaxError:
        tok = self.peek()
        return ExprSyntaxError(message, tok.line, tok.col)

    def parse_source(self) -> tuple[Expr, ...]:
        exprs = [self.parse_expr()]
        while self.peek().kind == "semi":
            self.advance()
            exprs.append(self.parse_expr())
        if self.peek().kind != "end":
            raise self.fail(f"unexpected {self.peek().text!r}")
        return tuple(exprs)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_unary())
        return node

    def parse_unary(self) -> Expr:
        if self.peek().kind == "op" and self.peek().text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            node = BinOp("^", node, self.parse_unary())
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "lparen":
            self.advance()
            node = self.parse_expr()
            if self.peek().kind != "rparen":
                raise self.fail("expected ')'")
            self.advance()
            return node
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "lparen":
                return self.parse_call(tok)
            return self.resolve(tok)
        raise self.fail(f"expected a value, got {tok.text or 'end of input'!r}")

    def parse_call(self, name: _Token) -> Expr:
        if name.text not in _FUNCTIONS:
            raise ExprSyntaxError(f"unknown function {name.text!r}", name.line, name.col)
        self.advance()  # consume '('
        args = [self.parse_expr()]
        while self.peek().kind == "comma":
            self.advance()
            args.append(self.parse_expr())
        if self.peek().kind != "rparen":
            raise self.fail("expected ')' closing call")
        self.advance()
        arity = _FUNCTIONS[name.text]
        if len(args) != arity:
            raise ExprSyntaxError(
                f"{name.text} takes {arity} argument(s), got {len(args)}", name.line, name.col
            )
        return Call(name.text, tuple(args))

    def resolve(self, tok: _Token) -> Expr:
        if tok.text == "t":
            return TimeVar()
        m = re.fullmatch(r"u(\d+)", tok.text)
        if m is not None:
            idx = int(m.group(1))
            if not (1 <= idx <= self.n):
                raise ExprSyntaxError(
                    f"component {tok.text!r} out of range for an {self.n}-component system",
                    tok.line,
                    tok.col,
                )
            return Comp(idx - 1)
        if tok.text in self.constants:
            return ConstRef(tok.text, float(self.constants[tok.text]))
        raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.line, tok.col)


def parse(source: str, n: int, constants: dict[str, float] | None = None) -> tuple[Expr, ...]:
    """Parse a ';'-separated source into exactly n expression trees."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression source", 1, 1)
    if n < 1:
        raise ValueError(f"component count must be >= 1, got {n}")
    parser = _Parser(_tokenize(source), n, dict(constants or {}))
    exprs = parser.parse_source()
    if len(exprs) != n:
        raise ExprSyntaxError(
            f"expected {n} ';'-separated component(s), got {len(exprs)}", 1, 1
        )
    return exprs


# --- Evaluation ------------------------------------------------------

def _eval_node(node: Expr, t, u):
    if isinstance(node, (Num, Bound)):
        return node.value
    if isinstance(node, TimeVar):
        return t
    if isinstance(node, Comp):
        return u[node.index]
    if isinstance(node, ConstRef):
        return node.value
    if isinstance(node, Neg):
        return -_eval_node(node.operand, t, u)
    if isinstance(node, BinOp):
        a = _eval_node(node.left, t, u)
        b = _eval_node(node.right, t, u)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if node.op == "/":
            return np.divide(a, b)
        return np.power(a, b)
    if isinstance(node, Call):
        args = [_eval_node(arg, t, u) for arg in node.args]
        if node.fn == "pow":
            return np.power(args[0], args[1])
        if node.fn == "abs":
            return np.abs(args[0])
        return getattr(np, node.fn)(args[0])
    raise TypeError(f"not an expression node: {node!r}")


def evaluate(exprs: tuple[Expr, ...], t, u) -> np.ndarray:
    """Evaluate component expressions at (t, u).

    ``t`` may be a scalar or an array of times; ``u`` is a sequence of
    component values (scalars or arrays; an (n, ...) array is the sequence
    of its rows) that broadcast with t and with each other, so t and the
    components may be the sparse axes of a mesh.  Returns an array of
    shape (len(exprs),) + the broadcast shape.  A non-finite component
    raises ExprEvalError with the t and u of the first such point.
    """
    t_arr = np.asarray(t, dtype=float)
    comps = [np.asarray(c, dtype=float) for c in (u if np.iterable(u) else [u])]
    shape = np.broadcast_shapes(t_arr.shape, *(c.shape for c in comps))
    with np.errstate(all="ignore"):
        rows = [
            np.broadcast_to(np.asarray(_eval_node(e, t_arr, comps), dtype=float), shape)
            for e in exprs
        ]
    out = np.array(rows, dtype=float)
    if not np.all(np.isfinite(out)):
        where = np.argwhere(~np.isfinite(out))[0]
        point = tuple(where[1:])
        bad_t = float(np.broadcast_to(t_arr, shape)[point])
        bad_u = np.array([np.broadcast_to(c, shape)[point] for c in comps])
        raise ExprEvalError(f"component {where[0] + 1} evaluated non-finite", bad_t, bad_u)
    return out


def _bind(node: Expr, t: np.ndarray) -> tuple[Expr, bool]:
    """(node with its largest u-free operator subtrees bound at t, whether it reads u)."""
    if isinstance(node, Neg):
        parts, rebuild = [node.operand], Neg
    elif isinstance(node, BinOp):
        parts, rebuild = [node.left, node.right], lambda a, b: BinOp(node.op, a, b)
    elif isinstance(node, Call):
        parts, rebuild = list(node.args), lambda *args: Call(node.fn, args)
    else:
        return node, isinstance(node, Comp)
    bound = [_bind(part, t) for part in parts]
    if any(reads for _, reads in bound):
        return rebuild(*(part for part, _ in bound)), True
    value = _eval_node(node, t, ())
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    return Bound(value), False


def bind(exprs: tuple[Expr, ...], t) -> tuple[Expr, ...]:
    """The component trees with every operator subtree free of u evaluated at ``t``.

    Each such subtree becomes a ``Bound`` holding its value (read-only
    when an array), so ``evaluate(bind(exprs, t), t, u)`` skips the t-only
    work, yet every value still comes from the same IEEE operations on the
    same arrays: the result, and any ExprEvalError, is that of
    ``evaluate(exprs, t, u)`` bit for bit.
    """
    t_arr = np.asarray(t, dtype=float)
    with np.errstate(all="ignore"):
        return tuple(_bind(e, t_arr)[0] for e in exprs)


# --- Pretty-printer --------------------------------------------------

_LEVEL_SUM, _LEVEL_TERM, _LEVEL_UNARY, _LEVEL_POWER, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in "+-":
            return _LEVEL_SUM
        if node.op in "*/":
            return _LEVEL_TERM
        return _LEVEL_POWER
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    return _LEVEL_ATOM


def _fmt(node: Expr, min_level: int) -> str:
    if isinstance(node, Num):
        text = repr(node.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(node, TimeVar):
        text = "t"
    elif isinstance(node, Comp):
        text = f"u{node.index + 1}"
    elif isinstance(node, ConstRef):
        text = node.name
    elif isinstance(node, Neg):
        text = "-" + _fmt(node.operand, _LEVEL_UNARY)
    elif isinstance(node, BinOp):
        lvl = _level(node)
        if node.op == "^":
            # right-associative; a Neg exponent needs no parens (2^-3)
            text = _fmt(node.left, _LEVEL_ATOM) + "^" + _fmt(node.right, _LEVEL_UNARY)
        else:
            text = _fmt(node.left, lvl) + node.op + _fmt(node.right, lvl + 1)
    elif isinstance(node, Call):
        text = node.fn + "(" + ",".join(_fmt(a, _LEVEL_SUM) for a in node.args) + ")"
    else:
        raise TypeError(f"not an expression node: {node!r}")
    if _level(node) < min_level:
        return "(" + text + ")"
    return text


def pretty(expr: Expr) -> str:
    """Render one expression tree back to parseable source."""
    return _fmt(expr, _LEVEL_SUM)


def pretty_source(exprs: tuple[Expr, ...]) -> str:
    """Render a component tuple back to a single ';'-separated source."""
    return "; ".join(pretty(e) for e in exprs)
