"""Exact AST for one-variable linear equations.

All coefficients are ``fractions.Fraction`` values; nothing in the engine
ever touches floating point.  Surface structure is semantic here:
parenthesization and term order distinguish problem types, so parsing
preserves them and rendering reproduces them (``parse(str(e))`` is
structurally identical to ``e``).

Grammar (whitespace insignificant)::

    equation := expr "=" expr
    expr     := term (("+"|"-") term)*
    term     := factor ("*" factor)* | factor "(" expr ")"
    factor   := ["-"] (number | number "x" | "x" | "(" expr ")" | number "(" expr ")")
    number   := integer | integer "/" positive-integer

Unary minus binds to the immediately following factor, so ``-3(4x - 5)``
parses as a product with multiplier -3.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    MultipleVariableError,
    NonlinearEquationError,
    NoUniqueSolutionError,
    ParseError,
)

VARIABLE = "x"


@dataclass(frozen=True)
class Const:
    value: Fraction


@dataclass(frozen=True)
class XTerm:
    """A coefficient times the unknown, e.g. ``3x``.

    The bare variable is represented as coefficient 1 and rendered ``x``.
    """

    coef: Fraction


@dataclass(frozen=True)
class Neg:
    inner: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Paren:
    inner: "Expr"


Expr = Const | XTerm | Neg | Add | Sub | Mul | Paren


@dataclass(frozen=True)
class Equation:
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"{render(self.lhs)} = {render(self.rhs)}"


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render(e: Expr) -> str:
    """Canonical text form: single spaces around binary operators, implicit
    multiplication for a parenthesized right factor."""
    if isinstance(e, Const):
        return str(e.value)
    if isinstance(e, XTerm):
        if e.coef == 1:
            return VARIABLE
        if e.coef == -1:
            return "-" + VARIABLE
        return f"{e.coef}{VARIABLE}"
    if isinstance(e, Neg):
        return "-" + render(e.inner)
    if isinstance(e, Add):
        return f"{render(e.left)} + {render(e.right)}"
    if isinstance(e, Sub):
        return f"{render(e.left)} - {render(e.right)}"
    if isinstance(e, Mul):
        if isinstance(e.right, Paren):
            return render(e.left) + render(e.right)
        return f"{render(e.left)} * {render(e.right)}"
    if isinstance(e, Paren):
        return f"({render(e.inner)})"
    raise TypeError(f"not an expression node: {e!r}")


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# Input bounds, checked while tokenizing so that no hostile input reaches the
# recursive parser, renderer or classifier: an accepted equation nests at most
# 16 levels and chains at most 100 terms, well inside Python's recursion limit,
# and no number a rewrite can form nears the 4,300-digit int conversion limit.
MAX_EQUATION_LENGTH = 200
MAX_PAREN_DEPTH = 16
MAX_NUMERAL_DIGITS = 20
_SPACE = " \t\n\r\v\f"

_NUM = "num"
_VAR = "var"
_OP = "op"
_LP = "("
_RP = ")"
_SLASH = "/"
_END = "end"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    n = len(text)
    if n > MAX_EQUATION_LENGTH:
        raise ParseError(
            f"equation longer than {MAX_EQUATION_LENGTH} characters", MAX_EQUATION_LENGTH
        )
    out: list[_Token] = []
    i = 0
    depth = 0
    while i < n:
        ch = text[i]
        if ch in _SPACE:
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            if j - i > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits", i)
            out.append(_Token(_NUM, text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            if ch != VARIABLE:
                raise MultipleVariableError(
                    f"only the variable '{VARIABLE}' is supported, got '{ch}'", i
                )
            out.append(_Token(_VAR, ch, i))
            i += 1
            continue
        if ch in "+-*=":
            out.append(_Token(_OP, ch, i))
            i += 1
            continue
        if ch == "(":
            depth += 1
            if depth > MAX_PAREN_DEPTH:
                raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", i)
            out.append(_Token(_LP, ch, i))
            i += 1
            continue
        if ch == ")":
            depth -= 1
            out.append(_Token(_RP, ch, i))
            i += 1
            continue
        if ch == "/":
            out.append(_Token(_SLASH, ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character '{ch}'", i)
    out.append(_Token(_END, "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            raise ParseError(f"expected '{want}', got '{tok.text or 'end of input'}'", tok.pos)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.text in "+-":
                self.advance()
                right = self.parse_term()
                node = Add(node, right) if tok.text == "+" else Sub(node, right)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == _OP and tok.text == "*":
                self.advance()
                node = Mul(node, self.parse_factor())
            elif tok.kind == _LP:
                # juxtaposed parenthesized factor: implicit multiplication
                self.advance()
                inner = self.parse_expr()
                self.expect(_RP)
                node = Mul(node, Paren(inner))
            else:
                return node

    def parse_factor(self) -> Expr:
        negated = False
        tok = self.peek()
        if tok.kind == _OP and tok.text == "-":
            self.advance()
            negated = True
            tok = self.peek()
        if tok.kind == _NUM:
            q = self.parse_number()
            if negated:
                q = -q
            nxt = self.peek()
            if nxt.kind == _VAR:
                self.advance()
                return XTerm(q)
            if nxt.kind == _LP:
                self.advance()
                inner = self.parse_expr()
                self.expect(_RP)
                return Mul(Const(q), Paren(inner))
            return Const(q)
        if tok.kind == _VAR:
            self.advance()
            return XTerm(Fraction(-1 if negated else 1))
        if tok.kind == _LP:
            self.advance()
            inner = self.parse_expr()
            self.expect(_RP)
            node: Expr = Paren(inner)
            return Neg(node) if negated else node
        raise ParseError(f"expected a number, '{VARIABLE}' or '(', got '{tok.text or 'end of input'}'", tok.pos)

    def parse_number(self) -> Fraction:
        tok = self.expect(_NUM)
        value = int(tok.text)
        if self.peek().kind == _SLASH:
            self.advance()
            den_tok = self.expect(_NUM)
            den = int(den_tok.text)
            if den == 0:
                raise ParseError("denominator must be a positive integer", den_tok.pos)
            return Fraction(value, den)
        return Fraction(value)


_NUMBER = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def parse_number(text: str) -> Fraction:
    """A bare number, as an answer or a threshold gives it: an optional sign
    and ASCII digits, then optionally ``/`` and a positive integer or ``.``
    and digits, with no digit run longer than ``MAX_NUMERAL_DIGITS``.
    Anything else (an exponent, ``_``, another script's digits) raises
    ``ValueError`` before a ``Fraction`` is built."""
    match = _NUMBER.fullmatch(text.strip(_SPACE))
    if (match is None or any(len(run) > MAX_NUMERAL_DIGITS for run in match.groups(""))
            or match[2] is not None and int(match[2]) == 0):
        raise ValueError(f"not a number: {text!r}")
    return Fraction(match[0])


def degree(e: Expr) -> int:
    """The degree in x of an expression: 0 exactly when it has no unknown."""
    if isinstance(e, Const):
        return 0
    if isinstance(e, XTerm):
        return 1
    if isinstance(e, (Neg, Paren)):
        return degree(e.inner)
    if isinstance(e, (Add, Sub)):
        return max(degree(e.left), degree(e.right))
    if isinstance(e, Mul):
        return degree(e.left) + degree(e.right)
    raise TypeError(f"not an expression node: {e!r}")


def parse_equation(text: str) -> Equation:
    """Parse equation text, rejecting foreign variables and nonlinearity."""
    parser = _Parser(_tokenize(text))
    lhs = parser.parse_expr()
    parser.expect(_OP, "=")
    rhs = parser.parse_expr()
    parser.expect(_END)
    eq = Equation(lhs, rhs)
    if degree(lhs) > 1 or degree(rhs) > 1:
        raise NonlinearEquationError(f"equation is not linear in {VARIABLE}: {text!r}")
    return eq


# ---------------------------------------------------------------------------
# Evaluation and the independent closed-form oracle
# ---------------------------------------------------------------------------


def evaluate(e: Expr, x: Fraction) -> Fraction:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, XTerm):
        return e.coef * x
    if isinstance(e, Neg):
        return -evaluate(e.inner, x)
    if isinstance(e, Add):
        return evaluate(e.left, x) + evaluate(e.right, x)
    if isinstance(e, Sub):
        return evaluate(e.left, x) - evaluate(e.right, x)
    if isinstance(e, Mul):
        return evaluate(e.left, x) * evaluate(e.right, x)
    if isinstance(e, Paren):
        return evaluate(e.inner, x)
    raise TypeError(f"not an expression node: {e!r}")


def evaluate_sides(eq: Equation, x) -> tuple[Fraction, Fraction]:
    x = Fraction(x)
    return evaluate(eq.lhs, x), evaluate(eq.rhs, x)


def closed_form_solution(eq: Equation) -> Fraction:
    """The unique root, computed by the line through the difference of the
    sides at x=0 and x=1.  Deliberately independent of the reduction engine
    so it can serve as its oracle."""
    d0 = evaluate(eq.lhs, Fraction(0)) - evaluate(eq.rhs, Fraction(0))
    d1 = evaluate(eq.lhs, Fraction(1)) - evaluate(eq.rhs, Fraction(1))
    slope = d1 - d0
    if slope == 0:
        raise NoUniqueSolutionError(f"no unique solution: {eq}")
    return -d0 / slope

