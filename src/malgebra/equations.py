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
        # after a product ending in a number, a juxtaposed group would parse
        # as that number's own factor: ``2 * 3(4)`` is ``2 * (3(4))``
        if isinstance(e.right, Paren) and not (
            isinstance(e.left, Mul) and isinstance(e.left.right, Const)
        ):
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

# one token per match: a run of ASCII digits (``\d`` would also match other
# scripts' digits) or any one character but ASCII whitespace
_TOKEN = re.compile(f"[0-9]+|[^{_SPACE}]")
# the kind of a one-character token is its text
_ONE_CHAR = frozenset("+-*=()/" + VARIABLE)
_NUM = "num"
_END = "end"


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """``(kind, text, position)`` per token, ending with an ``end`` token.
    Bounds and characters are checked left to right, after the length."""
    n = len(text)
    if n > MAX_EQUATION_LENGTH:
        raise ParseError(
            f"equation longer than {MAX_EQUATION_LENGTH} characters", MAX_EQUATION_LENGTH
        )
    out = []
    depth = 0
    for match in _TOKEN.finditer(text):
        tok, i = match[0], match.start()
        if tok in _ONE_CHAR:
            if tok == "(":
                depth += 1
                if depth > MAX_PAREN_DEPTH:
                    raise ParseError(f"parentheses nested deeper than {MAX_PAREN_DEPTH}", i)
            elif tok == ")":
                depth -= 1
            out.append((tok, tok, i))
        elif "0" <= tok[0] <= "9":
            if len(tok) > MAX_NUMERAL_DIGITS:
                raise ParseError(f"numeral longer than {MAX_NUMERAL_DIGITS} digits", i)
            out.append((_NUM, tok, i))
        elif tok.isalpha():
            raise MultipleVariableError(
                f"only the variable '{VARIABLE}' is supported, got '{tok}'", i
            )
        else:
            raise ParseError(f"unexpected character '{tok}'", i)
    out.append((_END, "", n))
    return out


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]]):
        self.tokens = tokens
        self.i = 0
        # set on building a product of two factors in x: the only way a
        # side's degree exceeds one
        self.nonlinear = False

    def expect(self, kind: str) -> str:
        """The text of the next token, which must be of ``kind``."""
        got, text, pos = self.tokens[self.i]
        if got != kind:
            raise ParseError(f"expected '{kind}', got '{text or 'end of input'}'", pos)
        self.i += 1
        return text

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        tokens = self.tokens
        while (kind := tokens[self.i][0]) == "+" or kind == "-":
            self.i += 1
            right = self.parse_term()
            node = Add(node, right) if kind == "+" else Sub(node, right)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        tokens = self.tokens
        while True:
            kind = tokens[self.i][0]
            if kind == "*":
                self.i += 1
                right = self.parse_factor()
            elif kind == "(":
                # juxtaposed parenthesized factor: implicit multiplication
                right = self.parse_group()
            else:
                return node
            if degree(node) and degree(right):
                self.nonlinear = True
            node = Mul(node, right)

    def parse_group(self) -> Paren:
        self.i += 1  # the "("
        inner = self.parse_expr()
        self.expect(")")
        return Paren(inner)

    def parse_factor(self) -> Expr:
        tokens = self.tokens
        kind, text, pos = tokens[self.i]
        negated = kind == "-"
        if negated:
            self.i += 1
            kind, text, pos = tokens[self.i]
        if kind == _NUM:
            self.i += 1
            q = self.parse_number(-int(text) if negated else int(text))
            nxt = tokens[self.i][0]
            if nxt == VARIABLE:
                self.i += 1
                return XTerm(q)
            if nxt == "(":
                return Mul(Const(q), self.parse_group())
            return Const(q)
        if kind == VARIABLE:
            self.i += 1
            return XTerm(Fraction(-1 if negated else 1))
        if kind == "(":
            node = self.parse_group()
            return Neg(node) if negated else node
        raise ParseError(f"expected a number, '{VARIABLE}' or '(', got '{text or 'end of input'}'", pos)

    def parse_number(self, value: int) -> Fraction:
        """``value``, the numerator just read, over the denominator that a
        ``/`` may follow it with."""
        if self.tokens[self.i][0] != "/":
            return Fraction(value)
        self.i += 1
        pos = self.tokens[self.i][2]
        den = int(self.expect(_NUM))
        if den == 0:
            raise ParseError("denominator must be a positive integer", pos)
        return Fraction(value, den)


_NUMBER = re.compile(r"([+-]?)([0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def parse_number(text: str) -> Fraction:
    """A bare number, as an answer or a threshold gives it: an optional sign
    and ASCII digits, then optionally ``/`` and a positive integer or ``.``
    and digits, with no digit run longer than ``MAX_NUMERAL_DIGITS``.
    Anything else (an exponent, ``_``, another script's digits) raises
    ``ValueError`` before a ``Fraction`` is built."""
    match = _NUMBER.fullmatch(text.strip(_SPACE))
    if (match is None or any(len(run) > MAX_NUMERAL_DIGITS for run in match.groups(""))
            or match[3] is not None and int(match[3]) == 0):
        raise ValueError(f"not a number: {text!r}")
    sign, whole, den, digits = match.groups("")
    if digits:
        return Fraction(int(sign + whole + digits), 10 ** len(digits))
    return Fraction(int(sign + whole), int(den) if den else 1)


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
    parser.expect("=")
    rhs = parser.parse_expr()
    parser.expect(_END)
    if parser.nonlinear:
        raise NonlinearEquationError(f"equation is not linear in {VARIABLE}: {text!r}")
    return Equation(lhs, rhs)


# ---------------------------------------------------------------------------
# The independent closed-form oracle
# ---------------------------------------------------------------------------


def _linear(e: Expr) -> tuple[int, int, int]:
    """Integers ``(a, b, d)`` with ``e`` = (a·x + b)/d and ``d`` positive."""
    t = type(e)
    if t is Const:
        v = e.value
        return 0, v.numerator, v.denominator
    if t is XTerm:
        c = e.coef
        return c.numerator, 0, c.denominator
    if t is Paren:
        return _linear(e.inner)
    if t is Neg:
        a, b, d = _linear(e.inner)
        return -a, -b, d
    a1, b1, d1 = _linear(e.left)
    a2, b2, d2 = _linear(e.right)
    if t is Add:
        return a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2
    if t is Sub:
        return a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2
    if t is Mul:
        if a1 and a2:
            raise NonlinearEquationError(f"product of two terms in {VARIABLE}: {render(e)}")
        return a1 * b2 + b1 * a2, b1 * b2, d1 * d2
    raise TypeError(f"not an expression node: {e!r}")


def closed_form_solution(eq: Equation) -> Fraction:
    """The unique root, read off the sides in one pass.  Each side is kept as
    integer linear coefficients over a common denominator, (a·x + b)/d, so
    the root is one ``Fraction`` built from integers.  Deliberately
    independent of the reduction engine so it can serve as its oracle."""
    a_l, b_l, d_l = _linear(eq.lhs)
    a_r, b_r, d_r = _linear(eq.rhs)
    slope = a_l * d_r - a_r * d_l
    if slope == 0:
        raise NoUniqueSolutionError(f"no unique solution: {eq}")
    return Fraction(b_r * d_l - b_l * d_r, slope)
