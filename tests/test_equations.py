from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

from test_fuzz import _mutate, _seeds

from conftest import Corpus
from substitution import evaluate_sides

from malgebra.equations import (
    Add,
    Const,
    Equation,
    Mul,
    Paren,
    XTerm,
    closed_form_solution,
    parse_equation,
    parse_number,
    render,
)
from malgebra.errors import (
    EngineError,
    MultipleVariableError,
    NonlinearEquationError,
    NoUniqueSolutionError,
    ParseError,
)
from malgebra.misconceptions import CATALOG
from malgebra.solution_space import enumerate_tree
from malgebra.taxonomy import ORDERED_TYPES

# sha256 of every parse outcome in _parse_corpus, and of every closed-form
# outcome in test_closed_form_substitutes_back_exactly, pinned when the
# parser read tokens through a dataclass and the closed form evaluated the
# sides at x = 0 and x = 1
_PARSE_OUTCOMES_SHA256 = "e7733676d49c2bbe545cbee1bec5a4c3250b9cb7aae9ad16b1dc07474dba5a03"
_CLOSED_FORM_SHA256 = "948eb5ff5f14beff49c805b2a6aa671550761b22df912ed19ddf3fd561f33462"


def test_parse_simple_t1():
    eq = parse_equation("3x = 12")
    assert eq == Equation(XTerm(Fraction(3)), Const(Fraction(12)))


def test_parse_parenthesized_product():
    eq = parse_equation("2x = 3(4x + 5)")
    expected_rhs = Mul(
        Const(Fraction(3)), Paren(Add(XTerm(Fraction(4)), Const(Fraction(5))))
    )
    assert eq.rhs == expected_rhs
    assert isinstance(eq.rhs.right, Paren)


def test_parse_nonlinear_rejected():
    with pytest.raises(NonlinearEquationError):
        parse_equation("x * x = 4")
    with pytest.raises(NonlinearEquationError):
        parse_equation("2x(3x + 1) = 4")
    with pytest.raises(NonlinearEquationError):
        parse_equation("1 = 2 * (3 + x) * x")  # the product in x is not the first
    # a parse error wins over nonlinearity, wherever it comes
    with pytest.raises(ParseError, match="end of input"):
        parse_equation("x * x = 4 +")


def test_parse_number_matches_fraction():
    # the value is built from the match's digit runs, never by parsing the
    # text again, and equals what Fraction reads from the same text
    rng = random.Random(20)
    run = lambda: "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 20)))  # noqa: E731
    texts = ["0", "-0", "+7", "-15/4", "1.50", "-0.0", "+0.5", "007/004", "0/5",
             "9" * 20, "-" + "9" * 20 + "/" + "9" * 20, "1." + "0" * 20, " \t12 \n"]
    for _ in range(300):
        den = "/" + str(rng.randint(1, 10 ** rng.randint(1, 20) - 1)) if rng.random() < 0.4 else ""
        texts.append(rng.choice(["", "+", "-"]) + run() + (den or rng.choice(["", "." + run()])))
    for text in texts:
        got, want = parse_number(text), Fraction(text.strip())
        assert type(got) is Fraction and got == want, text
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator), text
    for text in ("", " ", "+", "-", "1e3", "٣", "1_000", "1" * 21, "1/" + "1" * 21,
                 "1." + "1" * 21, "1/0", "-1/00", ".5", "1.", "1/", "1/-2", "--1", "+-1",
                 "1 /2", "1/2/3", "1.5.5", "1/2.5", "inf", "nan", "x = 1", "3x"):
        with pytest.raises(ValueError):
            parse_number(text)


def test_parse_foreign_variable_rejected():
    with pytest.raises(MultipleVariableError):
        parse_equation("3y = 12")
    with pytest.raises(MultipleVariableError):
        parse_equation("3x + y = 12")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse_equation("3x = ")
    assert "position" in str(info.value)
    with pytest.raises(ParseError):
        parse_equation("3x = 4 +")
    with pytest.raises(ParseError):
        parse_equation("3x 4 = 5")
    with pytest.raises(ParseError):
        parse_equation("3/0x = 5")


def test_unary_minus_binds_to_factor():
    from malgebra.equations import Sub

    eq = parse_equation("-3(4x - 5) = 2")
    assert eq.lhs == Mul(
        Const(Fraction(-3)), Paren(Sub(XTerm(Fraction(4)), Const(Fraction(5))))
    )


def test_render_conventions():
    assert str(parse_equation("3x=12")) == "3x = 12"
    assert str(parse_equation("2x = 3(4x+5)")) == "2x = 3(4x + 5)"
    assert str(parse_equation("2x = -3(4x+5)")) == "2x = -3(4x + 5)"
    assert str(parse_equation("x = 1/2")) == "x = 1/2"
    assert str(parse_equation("1x = 5")) == "x = 5"
    assert render(XTerm(Fraction(-1))) == "-x"


def test_rational_literals():
    eq = parse_equation("1/2x = 3/4")
    assert eq.lhs == XTerm(Fraction(1, 2))
    assert eq.rhs == Const(Fraction(3, 4))
    assert str(eq) == "1/2x = 3/4"


def test_evaluate_sides():
    eq = parse_equation("2x = 3(4x + 5)")
    assert evaluate_sides(eq, 1) == (Fraction(2), Fraction(27))
    eq2 = parse_equation("3x = 12")
    assert evaluate_sides(eq2, 4) == (Fraction(12), Fraction(12))
    eq3 = parse_equation("x = 1/2")
    assert evaluate_sides(eq3, Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 2))


def test_closed_form_solution():
    assert closed_form_solution(parse_equation("3x = 12")) == 4
    # expand by hand: 2x = 12x + 15  =>  x = -15/10
    assert closed_form_solution(parse_equation("2x = 3(4x + 5)")) == Fraction(-3, 2)
    with pytest.raises(NoUniqueSolutionError):
        closed_form_solution(parse_equation("5 = 5"))


def _parse_corpus() -> list[str]:
    """Mutated equation text, sampled roots at both coefficient bounds, and
    one text on each side of every input bound."""
    rng, seeds = random.Random(18), _seeds()
    texts = [_mutate(rng, rng.choice(seeds)) for _ in range(30_000)]
    texts += [str(Corpus(seed, -bound, bound).sample(t, "parse"))
              for seed in range(4) for bound in (9, 10**20 - 1) for t in ORDERED_TYPES]
    for n in (200, 201):
        texts.append("x = 1".ljust(n))
    for n in (16, 17):
        texts.append("(" * n + "x" + ")" * n + " = 1")
    for n in (20, 21):
        texts.append("x = " + "9" * n)
    texts += ["3x = \u0663", "\u00e9 = 1", "X = 1", " ", "", "x = 1\u00b2",
              "x =\u00a01", "\u2003x = 1", "x = 1\u3000"]
    return texts


def test_parse_outcomes_match_pinned_digest():
    # every text either parses to the same equation, printed and built alike
    # (a Fraction coefficient is not an int), or raises the same error with
    # the same message and position
    digest = hashlib.sha256()
    for text in _parse_corpus():
        try:
            eq = parse_equation(text)
        except EngineError as exc:
            out = f"{type(exc).__name__}: {exc}"
        else:
            out = f"{eq}\n{eq!r}"
        digest.update(out.encode() + b"\n")
    assert digest.hexdigest() == _PARSE_OUTCOMES_SHA256


def test_closed_form_substitutes_back_exactly(sampler):
    roots = [sampler.sample(t, f"exact:{t.name}:{i}") for t in ORDERED_TYPES for i in range(20)]
    roots += [Corpus(seed, -10**19, 10**19).sample(t, "exact")
              for seed in range(10) for t in ORDERED_TYPES]
    rng, seeds = random.Random(6), _seeds()
    while len(roots) < 3000:
        try:
            roots.append(parse_equation(_mutate(rng, rng.choice(seeds))))
        except EngineError:
            pass
    # every state the trees reach on the golden rewrite corpus, dead ends
    # and solved states included
    golden = Corpus(seed=77)
    for t in ORDERED_TYPES:
        for i in range(6):
            tree = enumerate_tree(golden.sample(t, f"golden:{t.name}:{i}"), CATALOG, 2)
            roots += [node.equation for node in tree.nodes]
    roots.append(Equation(XTerm(3), Const(7)))  # ints, not Fractions
    digest = hashlib.sha256()
    for eq in roots:
        d0, d1 = (l - r for l, r in (evaluate_sides(eq, 0), evaluate_sides(eq, 1)))
        try:
            root = closed_form_solution(eq)
        except NoUniqueSolutionError as exc:
            assert d0 == d1, eq
            out = f"{type(exc).__name__}: {exc}"
        else:
            assert d0 != d1 and type(root) is Fraction, eq
            left, right = evaluate_sides(eq, root)
            assert left == right, eq
            out = str(root)
        digest.update(out.encode() + b"\n")
    assert (type(root), root) == (Fraction, Fraction(7, 3))
    assert digest.hexdigest() == _CLOSED_FORM_SHA256


def test_round_trip_sampled(sampler):
    for t in ORDERED_TYPES:
        for i in range(50):
            eq = sampler.sample(t, f"rt:{t.name}:{i}")
            assert parse_equation(str(eq)) == eq


def test_linearity_guard_three_point_collinearity(sampler):
    for t in ORDERED_TYPES:
        eq = sampler.sample(t, f"lin:{t.name}")
        points = []
        for v in (0, 1, 2):
            l, r = evaluate_sides(eq, v)
            points.append(l - r)
        # second difference of a line is zero
        assert points[2] - 2 * points[1] + points[0] == 0
