import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permcross.distributions import crossing_cfrac_series
from permcross.polynomials import (
    QPoly,
    YQPoly,
    ZSeries,
    cfrac_expand,
    jfrac_expand,
    rational_expand,
)

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]

qpolys = st.builds(
    QPoly, st.lists(st.integers(-9, 9), max_size=6).map(tuple)
)
yqpolys = st.builds(
    YQPoly,
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(-9, 9)),
        max_size=5,
    ).map(tuple),
)


@pytest.mark.parametrize(
    "given, coeffs",
    [
        ((1, 2, 0, 0), (1, 2)),
        ((0, 0, 0), ()),
        ((), ()),
        ((True, False, True, False), (1, 0, 1)),
        ((False,), ()),
        ((-3, 0, -1, 0), (-3, 0, -1)),
        ([4, 0, 5, 0], (4, 0, 5)),
        ((c for c in (0, 7, 0)), (0, 7)),
    ],
    ids=["trailing-zeros", "all-zero", "empty", "bools", "false", "negative", "list", "generator"],
)
def test_qpoly_construction_normalizes(given, coeffs):
    p = QPoly(given)
    assert p.coeffs == coeffs
    assert all(type(c) is int for c in p.coeffs)


def test_qpoly_basics():
    one_plus_q = QPoly((1, 1))
    assert (one_plus_q * one_plus_q).coeffs == (1, 2, 1)
    assert QPoly((1, 0, 0)) == QPoly((1,))
    assert QPoly.zero().to_text() == "0"
    assert (one_plus_q**5).evaluate(1) == 32
    assert QPoly((0, 1)).evaluate(3) == 3
    assert (2 * QPoly((1, 1))).coeffs == (2, 2)
    assert QPoly((1, 2)).coefficient(5) == 0


@settings(max_examples=150)
@given(qpolys, qpolys, qpolys)
def test_qpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + QPoly.zero() == a
    assert a * QPoly.one() == a


@settings(max_examples=150)
@given(yqpolys, yqpolys, yqpolys)
def test_yqpoly_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + YQPoly.zero() == a
    assert a * YQPoly.one() == a


@given(qpolys, qpolys)
def test_qpoly_canonical_form(a, b):
    for result in (a + b, a - b, a * b):
        assert not result.coeffs or result.coeffs[-1] != 0


@given(yqpolys, yqpolys)
def test_yqpoly_canonical_form(a, b):
    for result in (a + b, a * b):
        assert all(c != 0 for _, _, c in result.terms)
        assert list(result.terms) == sorted(result.terms)


def test_div_exact():
    q = QPoly.var()
    assert (QPoly((1, 1)) ** 5 - 1 + q).div_exact(q) == QPoly((6, 10, 10, 5, 1))
    assert QPoly((1, 0, -1)).div_exact(QPoly((1, 1))) == QPoly((1, -1))
    with pytest.raises(ValueError, match="remainder"):
        QPoly((1, 1)).div_exact(QPoly((0, 1)))
    with pytest.raises(ZeroDivisionError):
        QPoly((1,)).div_exact(QPoly.zero())


def test_text_round_trip():
    assert QPoly((7, 1)).to_text() == "7+q"
    assert QPoly((1, 2, 3, 2)).to_text() == "1+2q+3q^2+2q^3"
    assert QPoly((1, -3, 2)).to_text() == "1-3q+2q^2"
    assert QPoly.zero().to_text() == "0"
    assert YQPoly(((0, 0, 1), (1, 0, 2), (1, 1, 1))).to_text() == "1+2y+qy"


@given(qpolys)
def test_json_round_trip_random(p):
    assert QPoly(p.to_json()) == p


@given(yqpolys)
def test_yq_json_round_trip_random(p):
    assert YQPoly(p.to_json()) == p


def test_yqpoly_substitutions():
    p = YQPoly(((0, 0, 1), (1, 1, 2), (2, 0, 3)))  # 1 + 2qy + 3y^2
    assert p.evaluate(1, 1) == 6
    assert p.evaluate(0, 5) == 1
    assert p.evaluate(2, 1) == 17
    assert p.evaluate(-1, 2) == 0


# ---------------------------------------------------------------------------
# series


def test_geometric_series():
    one_minus_z = ZSeries(QPoly, (QPoly.one(), -QPoly.one(), *(QPoly.zero(),) * 3))
    geo = one_minus_z.reciprocal()
    assert geo.coeffs == (QPoly.one(),) * 5


def test_reciprocal_is_inverse():
    rng = random.Random(3)
    for _ in range(25):
        coeffs = [QPoly.one()] + [
            QPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))
            for _ in range(6)
        ]
        a = ZSeries(QPoly, tuple(coeffs))
        product = a * a.reciprocal()
        assert product.coefficient(0) == QPoly.one()
        assert all(product.coefficient(k) == QPoly.zero() for k in range(1, 7))


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError, match="constant term 1"):
        ZSeries(QPoly, (QPoly((2,)), *(QPoly.zero(),) * 3)).reciprocal()


def test_series_mul_truncates_to_common_order():
    a = ZSeries.constant(QPoly, 5)
    b = ZSeries.constant(QPoly, 3)
    assert (a * b).order == 3


def test_cfrac_catalan():
    series = cfrac_expand([QPoly.one()] * 10, 10)
    assert [series.coefficient(n).evaluate(1) for n in range(11)] == CATALAN
    assert cfrac_expand([], 0).coefficient(0) == QPoly.one()


def test_cfrac_depth_checks():
    with pytest.raises(ValueError, match="depth"):
        cfrac_expand([QPoly.one()] * 4, 5)
    levels = [QPoly.monomial((m - 1) // 2) for m in range(1, 10)]
    exact = cfrac_expand(levels[:6], 6)
    deeper = cfrac_expand(levels[:9], 6)
    assert exact == deeper


def _reciprocal_chain(levels, order):
    """The slow oracle of cfrac_expand: the fraction built from its bottom
    level up, one series reciprocal per level."""
    ring = type(levels[0]) if levels else QPoly
    one = ZSeries.constant(ring, order)
    tail = one
    for numerator in reversed(list(levels)):
        tail = one - (tail.reciprocal() * numerator).times_z()
    return tail.reciprocal()


def _random_qpoly(rng):
    return QPoly(tuple(rng.randint(-3, 3) for _ in range(rng.randint(0, 3))))


def _random_yqpoly(rng):
    # degrees up to 1, so that the oracle stays cheap at order 20
    terms = rng.randint(0, 2)
    return YQPoly(
        tuple((rng.randint(0, 1), rng.randint(0, 1), rng.choice((-1, 1))) for _ in range(terms))
    )


@pytest.mark.parametrize("order", range(21))
def test_cfrac_expand_matches_the_reciprocal_chain(order):
    # zero and negative levels included; one spare level past the order is ignored
    rng = random.Random(order)
    for levels in (
        [_random_qpoly(rng) for _ in range(order + 1)],
        [_random_qpoly(rng) for _ in range(order)] or [QPoly.zero()],
        [QPoly.zero()] * order + [QPoly.one()],
        [-QPoly.one()] * (order + 1),
        [_random_yqpoly(rng) for _ in range(order + 1)],
    ):
        assert cfrac_expand(levels, order) == _reciprocal_chain(levels, order)


@pytest.mark.parametrize("order", [12, 20])
def test_cfrac_expand_of_the_321_levels_matches_the_reciprocal_chain(order):
    levels = [QPoly.monomial((m - 1) // 2) for m in range(1, order + 1)]
    assert cfrac_expand(levels, order) == _reciprocal_chain(levels, order)


def _motzkin_sum(b, lam, t):
    """The z^t coefficient of the J-fraction by definition: the sum over every
    word of up, level and down steps of length t that stays at height >= 0
    and ends at 0 of the product of its step weights."""
    total = QPoly.zero()
    for steps in itertools.product((1, 0, -1), repeat=t):
        height, weight = 0, QPoly.one()
        for step in steps:
            if step == 0:
                weight = weight * b[height]
            elif step == -1:
                weight = weight * lam[height - 1]
            height += step
            if height < 0:
                break
        else:
            if height == 0:
                total = total + weight
    return total


@pytest.mark.parametrize("order", range(9))
def test_jfrac_expand_sums_the_weighted_motzkin_paths(order):
    rng = random.Random(100 + order)
    b = [_random_qpoly(rng) for _ in range(order)]
    lam = [_random_qpoly(rng) for _ in range(order)]
    series = jfrac_expand(b, lam, order)
    assert series.coeffs == tuple(_motzkin_sum(b, lam, t) for t in range(order + 1))
    # the expansion reads no more than (order+1)//2 of b and order//2 of lam
    assert jfrac_expand(b[: (order + 1) // 2], lam[: order // 2], order) == series


def test_jfrac_depth_checks():
    one = QPoly.one()
    with pytest.raises(ValueError, match="depth"):
        jfrac_expand([one] * 2, [one] * 3, 5)
    with pytest.raises(ValueError, match="depth"):
        jfrac_expand([one] * 3, [one], 4)
    with pytest.raises(ValueError, match="nonnegative"):
        jfrac_expand([], [], -1)
    # Motzkin numbers, and the ring of the levels
    motzkin = jfrac_expand([one] * 5, [one] * 5, 8)
    assert [c.evaluate(1) for c in motzkin.coeffs] == [1, 1, 2, 4, 9, 21, 51, 127, 323]
    assert jfrac_expand([YQPoly.y()], [], 1).coeffs == (YQPoly.one(), YQPoly.y())
    assert jfrac_expand([], [], 0).coeffs == (QPoly.one(),)


def test_crossing_cfrac_series_takes_no_reciprocal(monkeypatch):
    def refused(self):
        raise AssertionError("a continued fraction took a series reciprocal")

    monkeypatch.setattr(ZSeries, "reciprocal", refused)
    series = crossing_cfrac_series(20)
    assert series.coefficient(20).evaluate(1) == 6564120420  # Catalan(20)


def test_rational_expand_recurrence():
    y, q, one = YQPoly.y(), YQPoly.q(), YQPoly.one()
    series = rational_expand([one, -q], [one, -(one + q), -(y - q)], 3)
    assert series.coefficient(0) == one
    assert series.coefficient(1) == one
    assert series.coefficient(2) == one + y
    assert series.coefficient(3) == one + 2 * y + q * y


def test_rational_expand_multiply_back():
    y, q, one = YQPoly.y(), YQPoly.q(), YQPoly.one()
    num = [one, -q]
    den = [one, -(one + q), -(y - q)]
    series = rational_expand(num, den, 8)
    den_series = ZSeries(YQPoly, (*den, *(YQPoly.zero(),) * 6))
    product = series * den_series
    assert product.coefficient(0) == one
    assert product.coefficient(1) == -q
    assert all(product.coefficient(k) == YQPoly.zero() for k in range(2, 9))


def test_rational_expand_trivia():
    assert rational_expand([QPoly.one()], [QPoly.one()], 5).coeffs == (
        QPoly.one(),
    ) + (QPoly.zero(),) * 5
    with pytest.raises(ValueError, match="constant term 1"):
        rational_expand([QPoly.one()], [QPoly((0, 1))], 2)
