from fractions import Fraction

import pytest

from posetalg.ratfunc import Poly, RatFunc, poly_str, t_poly


X = ("z", "p", 1)
Y = ("z", "p", 2)


def test_poly_basics():
    p = Poly.var(X) + Poly.const(1)
    q = Poly.var(X) - Poly.const(1)
    assert (p * q) == Poly.var(X, 2) - Poly.const(1)
    assert (p - p).is_zero()
    assert p ** 0 == Poly.const(1)
    assert Poly.const(0).is_zero()
    assert p.scale(0).is_zero()


def test_only_polys_add_to_a_poly():
    # no silent coercion: a number or a RatFunc is added in its own type
    p = Poly.var(X)
    for other in (1, Fraction(1, 2), RatFunc.const(1)):
        for op in (lambda: p + other, lambda: p - other):
            with pytest.raises(TypeError):
                op()
    assert RatFunc.of(p) + RatFunc.const(1) == RatFunc(p + Poly.const(1))


def test_poly_laurent_exponents():
    p = Poly.var(X, -2, coeff=3)
    assert p * Poly.var(X, 2) == Poly.const(3)
    assert p.degree_span(X) == (-2, -2)


def test_poly_split_and_span():
    p = Poly.var(X, 2) + Poly.var(Y) * Poly.var(X) + Poly.const(5)
    buckets = p.split_by(X)
    assert set(buckets) == {0, 1, 2}
    assert buckets[1] == Poly.var(Y)
    assert p.degree_span(X) == (0, 2)
    assert p.degree_span(("t", 9)) == (0, 0)


def test_poly_subst_monomials():
    p = Poly.var(X) * Poly.var(("t", 1), 2)
    out = p.subst_monomials({X: (("t", 3), -1)})
    assert out == Poly.var(("t", 1), 2) * Poly.var(("t", 3), -1)


def test_poly_terms_read_only():
    for p in (Poly.var("x"), Poly.const(1), Poly({(): 2}), Poly.var("x") + Poly.const(1)):
        before = dict(p.terms)
        with pytest.raises(TypeError):
            p.terms[()] = 5
        assert dict(p.terms) == before
    assert Poly.const(1) == Poly({(): 1})


def test_poly_constructor_puts_each_monomial_in_canonical_form():
    a, b = ("a",), ("b",)
    ab = Poly({((a, 1), (b, 1)): 1})
    assert Poly({((b, 1), (a, 1)): 1}) == ab
    assert list(Poly({((b, 1), (a, 1)): 1}).terms) == [((a, 1), (b, 1))]
    assert (Poly({((b, 1), (a, 1)): 1}) - ab).is_zero()
    assert Poly({((a, 0),): 3}) == Poly.const(3)
    assert Poly({((a, 1), (b, 0), (a, 2)): 1}) == Poly.var(a, 3)
    assert Poly({((a, 1), (a, -1)): 2}) == Poly.const(2)
    # monomials that become equal add up, and a sum of zero drops out
    assert Poly({((a, 1), (b, 1)): 1, ((b, 1), (a, 1)): Fraction(1, 2)}) == ab.scale(Fraction(3, 2))
    assert Poly({((a, 1), (b, 1)): 1, ((b, 1), (a, 1)): -1}).is_zero()
    assert Poly({((a, 1), (b, 1)): Fraction(1, 2), ((b, 1), (a, 1)): Fraction(1, 2)}).terms == {((a, 1), (b, 1)): 1}
    assert type(Poly({((a, 0),): Fraction(3, 2), (): Fraction(1, 2)}).terms[()]) is int
    assert RatFunc(Poly({((b, 1), (a, 1)): 1})) == RatFunc(ab)
    assert Poly.var(a, 2, coeff=0).is_zero() and Poly.var(a, 2, coeff=2.0).terms == {((a, 2),): 2}


def test_poly_pow_negative_rejected():
    with pytest.raises(ValueError):
        Poly.var(X) ** -1


def test_ratfunc_monomial_denominator_folds():
    r = RatFunc(Poly.var(X), Poly.var(Y, 2).scale(2))
    assert r.den == Poly.const(1)
    assert r.num == Poly.var(X) * Poly.var(Y, -2) * Poly.const(Fraction(1, 2))


def test_ratfunc_equality_cross_multiplied():
    one_minus = Poly.const(1) - Poly.var(X)
    a = RatFunc(one_minus * Poly.var(Y), one_minus * Poly.const(3))
    b = RatFunc(Poly.var(Y), Poly.const(3))
    assert a == b
    assert a - b == RatFunc.const(0)
    assert not (a == RatFunc.const(1))


@pytest.mark.parametrize("other", ["x", None, "1/0", object(), [1], float("inf"), "1", " 1 "])
def test_ratfunc_equality_with_what_it_cannot_read_is_false(other):
    assert not RatFunc.const(1) == other
    assert RatFunc.const(1) != other
    assert not other == RatFunc.const(1)


def test_ratfunc_arithmetic():
    f = RatFunc(Poly.const(1), Poly.const(1) - Poly.var(X))
    g = RatFunc(Poly.const(1), Poly.const(1) + Poly.var(X))
    s = f * g
    assert s == RatFunc(Poly.const(1), Poly.const(1) - Poly.var(X, 2))
    assert f + (-f) == RatFunc.const(0)
    assert (f / f) == RatFunc.const(1)
    assert f.inverse() * f == RatFunc.const(1)
    with pytest.raises(ZeroDivisionError):
        RatFunc.const(0).inverse()
    with pytest.raises(ZeroDivisionError):
        RatFunc(Poly.const(1), Poly.const(0))


def test_ratfunc_same_nontrivial_num_den_is_one():
    d = Poly.const(1) + Poly.var(X)
    assert RatFunc(d, d) == RatFunc.const(1)
    assert RatFunc(d, d).num == Poly.const(1)


def test_ratfunc_folded_monomial_keeps_equality():
    # dividing by X reorders the terms: X*Y - X^2 leads with X*Y, Y - X with X
    x, y = Poly.var(("t", 1)), Poly.var(("t", 2))
    assert RatFunc(x * y - x * x, x) == RatFunc(y - x)
    assert RatFunc(x, x * y - x * x).inverse() == RatFunc(y - x)
    assert RatFunc(y - x) / RatFunc(x * y - x * x, x) == RatFunc.const(1)


def test_ratfunc_collapsing_substitution():
    r = RatFunc(Poly.var(X) - Poly.var(Y))
    assert r.subst_monomials({Y: (X, 1)}) == RatFunc.const(0)
    s = RatFunc(Poly.const(1), Poly.var(X) - Poly.var(Y))
    with pytest.raises(ZeroDivisionError):
        s.subst_monomials({Y: (X, 1)})


def test_ratfunc_unhashable():
    with pytest.raises(TypeError):
        hash(RatFunc.const(1))


def test_poly_str_deterministic():
    p = t_poly(2) - t_poly(1) * t_poly(2) + Poly.const(Fraction(1, 2))
    s1, s2 = poly_str(p), poly_str(p)
    assert s1 == s2
    assert "t2" in s1 and "1/2" in s1
