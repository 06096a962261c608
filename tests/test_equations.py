import os
import pickle
import random
import subprocess
import sys

import pytest

from rado.equations import (
    Equation,
    EquationError,
    ParseError,
    Term,
    family_equation,
    parse_equation,
)
from rado.solver import SearchParams, compute_rado, find_coloring


def test_pythagorean_parse():
    eq = parse_equation("x^2+y^2=z^2")
    assert eq.degree == 2
    assert eq.lhs == (Term(1, "x"), Term(1, "y"))
    assert eq.rhs == (Term(1, "z"),)
    assert eq.free_vars == frozenset()


def test_free_variable_parse():
    eq = parse_equation("9x^2+16y^2=~n^2")
    assert eq.degree == 2
    assert eq.free_vars == {"n"}
    assert eq.constrained_variables == ("x", "y")


def test_schur_parse():
    eq = parse_equation("x+y=z")
    assert eq.degree == 1
    assert eq.constrained_variables == ("x", "y", "z")


def test_mixed_degree_rejected():
    with pytest.raises(EquationError, match="mixed degrees"):
        parse_equation("x^2+y=z^2")
    with pytest.raises(EquationError, match="mixed degrees"):
        parse_equation("x^2+y^1=z^2")


def test_explicit_exponent_one():
    assert parse_equation("x^1+y=z") == parse_equation("x+y=z")


def test_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_equation("x^2+=z^2")
    assert exc.value.position == 4
    with pytest.raises(ParseError, match="expected '='"):
        parse_equation("x+y")
    with pytest.raises(ParseError, match="expected end of input"):
        parse_equation("x+y=z z")
    with pytest.raises(ParseError, match="expected exponent 1 or 2"):
        parse_equation("x^3=y^3")
    # positions count in the text as typed, marker and indentation included
    for text in ("x+y=z)", "distinct: x+y=z)", "   distinct:x+y=z)"):
        with pytest.raises(ParseError) as exc:
            parse_equation(text)
        assert text[exc.value.position] == ")", text


@pytest.mark.parametrize("text", ["\u00b2x+y=z", "\u0663x+y=z"], ids=("superscript", "arabic"))
def test_non_ascii_digits_rejected(text):
    # the grammar's digits are ASCII: a superscript two is no coefficient
    # (int() cannot read it) and an Arabic-Indic three is no 3
    with pytest.raises(ParseError) as exc:
        parse_equation(text)
    assert exc.value.position == 0


def test_zero_coefficient():
    with pytest.raises(EquationError, match="coefficient"):
        parse_equation("0x+y=z")
    with pytest.raises(EquationError, match="exceeds cap"):
        parse_equation("10000000x=y")
    with pytest.raises(EquationError, match="coefficient must be >= 1"):
        Term(0, "x")


def test_duplicate_variable():
    with pytest.raises(EquationError, match="duplicate"):
        parse_equation("x+x=z")
    with pytest.raises(EquationError, match="duplicate"):
        parse_equation("x+y=x")


def test_all_free_rejected():
    with pytest.raises(EquationError, match="all variables are free"):
        parse_equation("~x+~y=~z")


def test_free_on_both_sides_rejected():
    with pytest.raises(EquationError, match="both sides"):
        parse_equation("~x+y=~z")


def test_whitespace_insignificant():
    assert parse_equation(" x ^2 + y^2 = z^2 ") == parse_equation("x^2+y^2=z^2")


def test_normalization_side_order():
    # the side with more terms becomes the lhs
    eq = parse_equation("z^2=x^2+y^2")
    assert eq.render() == "x^2+y^2=z^2"
    # tie broken by lexicographically smaller term sequence
    eq = parse_equation("c+d=a+b")
    assert eq.render() == "a+b=c+d"


def test_normalization_term_order():
    eq = parse_equation("16y^2+9x^2=~n^2")
    assert eq.render() == "9x^2+16y^2=~n^2"


def test_normalization_idempotent():
    eq = parse_equation("16y^2+9x^2=~n^2")
    again = Equation(eq.lhs, eq.rhs, eq.degree, eq.free_vars, eq.distinct_required)
    assert again == eq


def test_distinct_marker_round_trip():
    eq = parse_equation("9x^2+16y^2=~n^2", distinct=True)
    assert eq.distinct_required
    assert eq.render().startswith("distinct:")
    assert parse_equation(eq.render()) == eq


def test_render_parse_round_trip_random():
    rng = random.Random(2026)
    for _ in range(300):
        degree = rng.choice((1, 2))
        nvars = rng.randint(2, 6)
        names = rng.sample([f"v{i}" for i in range(20)], nvars)
        cut = rng.randint(1, nvars - 1)
        terms = [Term(rng.randint(1, 9), nm) for nm in names]
        free = frozenset(rng.sample(names[:cut], rng.randint(0, 1)))
        if free == set(names):
            free = frozenset()
        eq = Equation(
            lhs=tuple(terms[:cut]),
            rhs=tuple(terms[cut:]),
            degree=degree,
            free_vars=free,
            distinct_required=rng.random() < 0.2,
        )
        assert parse_equation(eq.render()) == eq


def test_family_equation():
    eq = family_equation(3)
    assert eq.render() == "x1^2+x2^2+x3^2=z^2"
    for k in (2, 5, 17):
        eq = family_equation(k)
        assert len(eq.variables) == k + 1
        assert eq.free_vars == frozenset()
        assert eq.degree == 2
        assert all(t.coefficient == 1 for t in eq.lhs + eq.rhs)
    with pytest.raises(EquationError):
        family_equation(1)


def test_variable_cap():
    lhs = tuple(Term(1, f"a{i}") for i in range(64))
    with pytest.raises(EquationError, match="too many"):
        Equation(lhs=lhs, rhs=(Term(1, "z"),), degree=1)
    with pytest.raises(EquationError, match="invalid variable name"):
        Term(1, "x y")
    z = (Term(1, "z"),)
    with pytest.raises(EquationError, match="at least one term"):
        Equation(lhs=(), rhs=z, degree=1)
    with pytest.raises(EquationError, match="degree must be 1 or 2"):
        Equation(lhs=(Term(1, "x"),), rhs=z, degree=3)
    with pytest.raises(EquationError, match="free variables not in equation"):
        Equation(lhs=(Term(1, "x"),), rhs=z, degree=1, free_vars=frozenset({"w"}))


def test_holds():
    eq = parse_equation("x^2+y^2=z^2")
    assert eq.holds({"x": 3, "y": 4, "z": 5})
    assert not eq.holds({"x": 3, "y": 4, "z": 6})


def test_solving_leaves_the_equation_as_parsed():
    # the solver caches the equation's hash and its set-up; neither may
    # change repr, ==, hash or a pickle, and the cached hash may not
    # travel in a pickle, since another process hashes strings with
    # another seed
    text = "x+y=z"
    eq = parse_equation(text)
    assert compute_rado(eq, 2, SearchParams(n_cap=30)).value == 5
    assert find_coloring(eq, 4, 2).coloring is not None
    fresh = parse_equation(text)
    assert (repr(eq), eq, hash(eq)) == (repr(fresh), fresh, hash(fresh))
    data = pickle.dumps(eq)
    back = pickle.loads(data)
    assert (repr(back), back, hash(back)) == (repr(fresh), fresh, hash(fresh))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    child = subprocess.run(
        [sys.executable, "-c",
         "import pickle, sys; from rado.equations import parse_equation; "
         "eq = pickle.loads(sys.stdin.buffer.read()); "
         f"print(eq == parse_equation({text!r}), hash(eq) == hash(parse_equation({text!r})))"],
        input=data, capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed},
        timeout=60, check=True,
    )
    assert child.stdout.split() == [b"True", b"True"]
