"""RatFunc against sympy as an independent oracle (test-only dependency).

Random expressions built with + - * / and inverses, over Laurent monomials
and sums of them divided by a monomial, in three variables with integer and
rational coefficients, are evaluated twice: by the integer kernel and by
sympy.  The kernel must call two expressions equal
exactly when ``sympy.cancel`` reduces their difference to zero, and its
content * P / D form must be the expression itself.  Random monomial
substitutions into Poly and RatFunc are checked against ``sympy.subs`` the
same way.
"""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from posetalg.ratfunc import Poly, RatFunc

sympy = pytest.importorskip("sympy")

VARS = [("z", "p", 1), ("z", "p", 2), ("t", 1)]
SYMS = [sympy.Symbol(f"v{i}") for i in range(len(VARS))]


def to_sympy(p: Poly):
    out = sympy.Integer(0)
    for mono, c in p.terms.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for v, e in mono:
            term *= SYMS[VARS.index(v)] ** e
        out += term
    return out


coefficients = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@st.composite
def monomial_polys(draw, coeffs=coefficients):
    """One Laurent monomial term in two or three of the variables."""
    nvars = draw(st.integers(2, 3))
    coeff = draw(coeffs)
    exps = draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars))
    mono = tuple(sorted((VARS[i], e) for i, e in enumerate(exps) if e))
    return Poly({mono: coeff})


@st.composite
def monomials(draw):
    poly = draw(monomial_polys())
    return RatFunc(poly), to_sympy(poly)


@st.composite
def over_monomials(draw):
    """A sum of one to three terms over a monomial denominator, which the
    kernel folds into its numerator."""
    terms = draw(st.lists(monomial_polys(), min_size=1, max_size=3))
    num = sum(terms, Poly())
    den = draw(monomial_polys(st.sampled_from([1, -2, Fraction(3, 2)])))
    return RatFunc(num, den), to_sympy(num) / to_sympy(den)


def combine(children):
    """One + - * / node over two subexpressions, or the inverse of one; a
    division by zero keeps the dividend and zero is its own inverse."""

    def invert(a):
        ra, sa = a
        return a if ra.is_zero() else (ra.inverse(), 1 / sa)

    def apply(op, a, b):
        (ra, sa), (rb, sb) = a, b
        if op == "+":
            return ra + rb, sa + sb
        if op == "-":
            return ra - rb, sa - sb
        if op == "*":
            return ra * rb, sa * sb
        if rb.is_zero():
            return ra, sa
        return ra / rb, sa / sb

    return st.one_of(
        st.builds(apply, st.sampled_from("+-*/"), children, children),
        st.builds(invert, children),
    )


expressions = st.recursive(st.one_of(monomials(), over_monomials()), combine, max_leaves=5)


def check_form(r: RatFunc, s):
    """content * P / D is the expression; P and D are primitive integer
    polynomials with positive leading coefficient; D is 1 or multi-term."""
    if r.is_zero():
        assert r.content == 0 and r.prim.is_zero() and r.den == Poly.const(1)
        assert sympy.cancel(s) == 0
        return
    for part in (r.prim, r.den):
        coeffs = [part.terms[m] for m in sorted(part.terms)]
        assert all(type(c) is int for c in coeffs)
        assert gcd(*coeffs) == 1 and coeffs[0] > 0
    assert r.den == Poly.const(1) or len(r.den.terms) > 1
    assert r.num == r.prim.scale(r.content)
    form = sympy.Rational(r.content.numerator, r.content.denominator) * to_sympy(r.prim) / to_sympy(r.den)
    assert sympy.cancel(form - s) == 0


@settings(max_examples=60, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(expressions, expressions, expressions)
def test_equality_matches_sympy_cancel(a, b, c):
    (ra, sa), (rb, sb), (rc, sc) = a, b, c
    pairs = [
        ((ra, sa), (rb, sb)),
        ((ra * (rb + rc), sa * (sb + sc)), (ra * rb + ra * rc, sa * sb + sa * sc)),
        ((ra - rb + rb, sa - sb + sb), (ra, sa)),
        ((ra + rb, sa + sb), (ra * rb, sa * sb)),
        ((ra, sa), (-ra, -sa)),
    ]
    if not rb.is_zero():
        pairs.append((((ra / rb) * rb, (sa / sb) * sb), (ra, sa)))
        pairs.append(((ra / rb, sa / sb), (ra * rb.inverse() + rc - rc, sa / sb + sc - sc)))
    for (rl, sl), (rr, sr) in pairs:
        assert (rl == rr) == (sympy.cancel(sl - sr) == 0)
        check_form(rl, sl)
        check_form(rr, sr)


# -- monomial substitution --------------------------------------------------------


@st.composite
def substitutions(draw):
    """A substitution v -> w**k of some of the variables, k in -2..2."""
    mapping = {}
    for v in VARS:
        if draw(st.booleans()):
            mapping[v] = (draw(st.sampled_from(VARS)), draw(st.integers(-2, 2)))
    return mapping


def sympy_subst(s, mapping):
    return s.subs({SYMS[VARS.index(v)]: SYMS[VARS.index(w)] ** k for v, (w, k) in mapping.items()}, simultaneous=True)


def colliding_pair(mapping):
    """Two distinct monomials with exponents in -1..1 that the substitution
    sends to one; None when it sends no two of them to one."""
    seen = {}
    for exps in itertools.product(range(-1, 2), repeat=len(VARS)):
        image = Counter()
        for v, e in zip(VARS, exps):
            w, k = mapping.get(v, (v, 1))
            image[w] += e * k
        image = frozenset((w, e) for w, e in image.items() if e)
        mono = Poly({tuple((v, e) for v, e in zip(VARS, exps) if e): 1})
        if image in seen:
            return seen[image], mono
        seen[image] = mono
    return None


@st.composite
def substituted(draw):
    """A substitution and a numerator and denominator of up to two drawn
    terms each, to which two monomials that the substitution sends to one
    may be added with opposite signs, so that their images cancel; an empty
    denominator is 1."""
    mapping = draw(substitutions())
    pair = colliding_pair(mapping)
    parts = []
    for _ in range(2):
        part = sum(draw(st.lists(monomial_polys(), min_size=0, max_size=2)), Poly())
        if pair and draw(st.booleans()):
            c = draw(st.sampled_from([1, -3, Fraction(1, 2)]))
            part = part + (pair[0] - pair[1]).scale(c)
        parts.append(part)
    return mapping, parts[0], parts[1] if parts[1] else Poly.const(1)


@settings(max_examples=80, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(substituted())
def test_substitution_matches_sympy_subs(case):
    mapping, num, den = case
    got = num.subst_monomials(mapping)
    assert sympy.expand(to_sympy(got) - sympy_subst(to_sympy(num), mapping)) == 0
    assert all(e for mono in got.terms for _, e in mono) and all(got.terms.values())
    # the substitution acts on the held form content * P / D, whose D may
    # differ from den: 0 / den is 0 and den / den is 1
    r = RatFunc(num, den)
    s_num, s_den = sympy_subst(to_sympy(r.num), mapping), sympy_subst(to_sympy(r.den), mapping)
    if r.is_zero():
        assert r.subst_monomials(mapping) is r
    elif sympy.cancel(s_den) == 0:
        with pytest.raises(ZeroDivisionError):
            r.subst_monomials(mapping)
    else:
        check_form(r.subst_monomials(mapping), s_num / s_den)


def test_substitution_cancels_colliding_monomials():
    # z_p_1 * t1 and z_p_2 both go to t1^2 and cancel, and so does the
    # denominator z_p_1^2 - z_p_2
    z1, z2, t = VARS
    mapping = {z1: (t, 1), z2: (t, 2)}
    num = Poly({((z1, 1), (t, 1)): 1, ((z2, 1),): -1, ((z1, 1),): 2})
    den = Poly({((z1, 2),): 1, ((z2, 1),): -1})
    assert num.subst_monomials(mapping) == Poly({((t, 1),): 2})
    assert den.subst_monomials(mapping).is_zero()
    with pytest.raises(ZeroDivisionError):
        RatFunc(num, den).subst_monomials(mapping)
    cancelled = RatFunc(num - Poly({((z1, 1),): 2}), Poly({(): 1, ((z1, 1),): 1}))
    check_form(cancelled.subst_monomials(mapping), sympy.Integer(0))
