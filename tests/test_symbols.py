"""Tests for the parameter-polynomial and potential types."""

import random
import re
from fractions import Fraction

import pytest

from dualfan.symbols import ParamPoly, Potential
from dualfan.toric_lg import Specialization


def p(name, power=1, coeff=1):
    return ParamPoly.parameter(name, power=power, coeff=coeff)


def test_constants_and_zero():
    assert ParamPoly().is_zero()
    assert ParamPoly.constant(0) == ParamPoly()
    assert ParamPoly.constant(3) + ParamPoly.constant(-3) == ParamPoly()
    assert str(ParamPoly()) == "0"
    assert str(ParamPoly.constant(-7)) == "-7"


def test_laurent_exponents_cancel():
    assert ParamPoly([((("q", 1), ("q", -1)), 1)]) == ParamPoly.constant(1)
    assert str(p("q", power=-1)) == "q^-1"
    assert str(p("q", power=-1, coeff=-1)) == "-q^-1"


def test_string_form_is_canonical():
    psi = p("psi", coeff=-5)
    assert str(psi) == "-5*psi"
    mixed = p("b") + p("a") + ParamPoly.constant(2)
    assert str(mixed) == "2 + a + b"
    assert str(ParamPoly([((("a", 1), ("a", 1)), 1)])) == "a^2"


def test_name_validation():
    with pytest.raises(ValueError, match="bad parameter name"):
        ParamPoly([((("not a name!", 1),), 1)])
    with pytest.raises(ValueError, match="bad parameter name"):
        ParamPoly.parameter("2q")


def test_hash_and_equality_are_structural():
    a = p("q") + ParamPoly.constant(1)
    b = ParamPoly.constant(1) + p("q")
    assert a == b and hash(a) == hash(b)
    assert a != p("q")


def test_potential_merges_and_drops_zeros():
    w = Potential([((1, 0), 1), ((1, 0), 2), ((0, 1), ParamPoly())])
    assert w.support == ((1, 0),)
    assert dict(w.terms) == {(1, 0): ParamPoly.constant(3)}
    assert w.terms
    assert not Potential([]).terms


def test_potential_accepts_mappings_and_sorts():
    w = Potential({(2, 2): 1, (0, 0): p("q")})
    assert w.support == ((0, 0), (2, 2))
    assert w == Potential([((2, 2), 1), ((0, 0), p("q"))])
    assert hash(w) == hash(Potential(dict(w.terms)))


def _reference_potential_terms(terms):
    """`Potential.terms` as the constructor computed them when it built a
    `ParamPoly` for every coefficient, zeros included."""
    if hasattr(terms, "items"):
        terms = terms.items()
    acc = {}
    for exponent, coeff in terms:
        exponent = tuple(int(x) for x in exponent)
        if not isinstance(coeff, ParamPoly):
            coeff = ParamPoly.constant(coeff)
        acc[exponent] = acc.get(exponent, ParamPoly()) + coeff
    return tuple(sorted((e, c) for e, c in acc.items() if not c.is_zero()))


def _random_coefficient(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-3, 3)
    if kind == 2:
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
    if kind == 3:
        return ParamPoly()
    if kind == 4:
        return ParamPoly.constant(rng.randint(-2, 2))
    return p(rng.choice("qst"), rng.randint(-2, 2), rng.randint(-2, 2))


def _outcome(build, terms):
    """The terms that `build` computes, or the text of its ValueError."""
    try:
        return build(terms)
    except ValueError as e:
        return f"ValueError: {e}"


def _potential_terms(terms):
    return Potential(terms).terms


def test_potential_matches_the_reference_constructor():
    rng = random.Random(20151)
    for _ in range(600):
        exponents = [(rng.randint(0, 2), rng.randint(-1, 1))
                     for _ in range(rng.randint(1, 5))]
        terms = [(rng.choice(exponents), _random_coefficient(rng))
                 for _ in range(rng.randint(0, 10))]
        assert _outcome(_potential_terms, terms) == _outcome(
            _reference_potential_terms, terms)
        as_map = dict(terms)
        assert _outcome(_potential_terms, as_map) == _outcome(
            _reference_potential_terms, as_map)


@pytest.mark.parametrize("terms", [
    [((1, 0), 0), ((0, 1), Fraction(0)), ((2, 0), ParamPoly())],
    [((1, 0), 2), ((1, 0), -2), ((0, 1), p("q")), ((0, 1), p("q", coeff=-1))],
    [((1, 1), 1), ((1, 1), Fraction(3, 1)), ((1, 1), p("q")),
     ((0, 0), Fraction(-2)), ((0, 0), ParamPoly.constant(2))],
    [((1, 0), Fraction(1, 2)), ((1, 0), 0), ((1, 0), 5)],
])
def test_potential_zero_and_cancelling_coefficients(terms):
    assert _outcome(_potential_terms, terms) == _outcome(
        _reference_potential_terms, terms)


@pytest.mark.parametrize("build, value", [
    (ParamPoly.constant, Fraction(3, 2)),
    (ParamPoly.constant, 2.7),
    (ParamPoly.constant, "7"),
    (lambda v: ParamPoly([((("q", v),), 1)]), Fraction(1, 2)),
    (lambda v: Potential([((1, 0), v)]), Fraction(1, 2)),
    (lambda v: Specialization({(1, 0): v}), Fraction(5, 2)),
])
def test_non_integral_values_are_rejected(build, value):
    message = re.escape(f"{value!r} is not an integer")
    with pytest.raises(ValueError, match=message):
        build(value)
