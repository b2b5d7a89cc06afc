"""Sparse multivariate Laurent polynomials and rational functions over Q.

Variables are hashable tuples such as ("t", 3), ("z", "p", 1) or
("x", "a"); exponents may be negative (Laurent).  A coefficient is an
``int`` whenever it is integral and a ``Fraction`` only otherwise, so
integer work stays in ``int`` arithmetic.

A rational function is held as content * P / D: a rational content and two
primitive integer-coefficient Laurent polynomials P and D whose leading
coefficient (that of the least monomial) is positive.  D is either 1 or has
several terms: a monomial denominator is folded into P.  By Gauss's lemma a
product of primitive polynomials is primitive, so products multiply the
contents once and the primitive parts in ints, with no gcd; sums take one
integer gcd of the coefficients.  Equality is decided by cross
multiplication, never by polynomial gcd, which is only a size optimization
here and is deliberately skipped.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


def _coerce(c):
    """c as an int when it is integral, else as a Fraction; a string is
    not read as a number."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        if isinstance(c, str):
            raise TypeError(f"scalar {c!r} is a string, not a number")
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def _q(c):
    """An int or Fraction c as an int when it is integral."""
    return c.numerator if c.denominator == 1 else c


def _settle(terms):
    """Turn the integral Fraction coefficients of a fresh dict into ints."""
    for mono, c in terms.items():
        if type(c) is Fraction and c.denominator == 1:
            terms[mono] = c.numerator
    return terms


def _poly(terms):
    """A Poly around a canonical term dict, taken as it is and held
    read-only."""
    p = Poly.__new__(Poly)
    p.terms = MappingProxyType(terms)
    return p


class Poly:
    """Canonical sparse polynomial: a read-only {monomial: nonzero int or
    Fraction}, each monomial a tuple of (variable, nonzero exponent) pairs
    sorted by variable.  The constructor puts each given monomial in this
    form and sums the coefficients of monomials that become equal."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        if terms:
            for mono, c in dict(terms).items():
                # a lone variable with a nonzero exponent is canonical as given
                if len(mono) > 1 or mono and not mono[0][1]:
                    mono = _mono_mul((), mono)
                c = _coerce(c)
                out[mono] = _coerce(out[mono] + c) if mono in out else c
            out = {mono: c for mono, c in out.items() if c}
        self.terms = MappingProxyType(out)

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        c = _coerce(c)
        if c == 1:
            return _ONE
        return _poly({(): c} if c else {})

    @classmethod
    def var(cls, v, exp=1, coeff=1):
        c = _coerce(coeff)
        if exp == 0:
            return cls.const(c)
        return _poly({((v, exp),): c} if c else {})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def variables(self):
        return {v for mono in self.terms for v, _ in mono}

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self):
        return bool(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _poly(_settle(_lincomb(1, self.terms, 1, other.terms)))

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return _poly(_settle(_lincomb(1, self.terms, -1, other.terms)))

    def __mul__(self, other):
        if type(other) is not Poly and isinstance(other, (int, Fraction)):  # Fraction's ABC check is slow
            return self.scale(other)
        return _poly(_settle(_mul(self.terms, other.terms)))

    def scale(self, c):
        c = _coerce(c)
        if c == 1:
            return self
        if not c:
            return Poly()
        return _poly(_settle({m: cc * c for m, cc in self.terms.items()}))

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        out = _ONE
        for _ in range(n):
            out = out * self
        return out

    # -- variable manipulation ---------------------------------------------

    def subst_monomials(self, mapping):
        """Substitute variables by signed powers of variables.

        ``mapping[v] = (w, k)`` sends v to w**k; unmapped variables stay.
        """
        out = {}
        for mono, c in self.terms.items():
            acc = _mono_mul((), ((mapping[v][0], e * mapping[v][1]) if v in mapping else (v, e) for v, e in mono))
            s = out.get(acc, 0) + c
            if s:
                out[acc] = s
            else:
                del out[acc]
        return _poly(_settle(out))

    def degree_span(self, v):
        """(min, max) exponent of v across terms ((0, 0) if absent)."""
        exps = [mono_exponent(mono, v) for mono in self.terms]
        return (min(exps), max(exps)) if exps else (0, 0)

    def split_by(self, v):
        """{exponent of v: coefficient Poly without v}."""
        out = {}
        for mono, c in self.terms.items():
            e = mono_exponent(mono, v)
            rest = tuple(kv for kv in mono if kv[0] != v) if e else mono
            out.setdefault(e, {})[rest] = c
        return {e: _poly(terms) for e, terms in out.items()}

    def __repr__(self):
        return f"Poly({poly_str(self)})"


_ONE = _poly({(): 1})


def mono_exponent(mono, v):
    """The exponent of v in a monomial (0 if absent)."""
    for w, e in mono:
        if w == v:
            return e
    return 0


def _mono_mul(m1, m2):
    """The canonical monomial of m1 times m2: m1 canonical, m2 any
    (variable, exponent) pairs, repeats and zero exponents allowed."""
    d = dict(m1)
    for v, e in m2:
        s = d.get(v, 0) + e
        if s:
            d[v] = s
        else:
            d.pop(v, None)
    return tuple(sorted(d.items()))


def _mul(t1, t2):
    """Product of two term dicts."""
    out = {}
    get = out.get
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            mono = _mono_mul(m1, m2) if m1 and m2 else m1 or m2
            s = get(mono, 0) + c1 * c2
            if s:
                out[mono] = s
            else:
                del out[mono]
    return out


def _lincomb(k1, t1, k2, t2):
    """k1 * t1 + k2 * t2 for two term dicts and scalars k1, k2."""
    out = dict(t1) if k1 == 1 else {m: k1 * c for m, c in t1.items()}
    get = out.get
    for mono, c in t2.items():
        s = get(mono, 0) + (c if k2 == 1 else k2 * c)
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


def _is_one(terms):
    """Whether a primitive term dict of positive leading coefficient is 1."""
    return len(terms) == 1 and () in terms


def _lead_sign(terms):
    return -1 if terms[min(terms)] < 0 else 1


def _primitive(terms):
    """(content, primitive Poly) of a nonzero int term dict, the content
    signed so that the primitive part has a positive leading coefficient."""
    g = gcd(*terms.values()) * _lead_sign(terms)
    if g != 1:
        terms = {m: c // g for m, c in terms.items()}
    return g, (_ONE if _is_one(terms) else _poly(terms))


def _split(terms):
    """(content, primitive Poly) of a nonzero term dict of int or Fraction
    coefficients."""
    den = 1
    for c in terms.values():
        if type(c) is not int:
            den = lcm(den, c.denominator)
    if den != 1:
        terms = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
    g, prim = _primitive(terms)
    return (g if den == 1 else _q(Fraction(g, den))), prim


def poly_str(p: Poly) -> str:
    if p.is_zero():
        return "0"

    def vname(v):
        if isinstance(v, tuple) and len(v) == 2 and v[0] == "t":
            return f"t{v[1]}"
        return "_".join(str(x) for x in v)

    parts = []
    for mono, c in sorted(p.terms.items()):
        factors = []
        if not mono or abs(c) != 1:
            factors.append(str(c) if c > 0 or mono else f"({c})" if mono else str(c))
        for v, e in mono:
            factors.append(vname(v) if e == 1 else f"{vname(v)}^{e}")
        body = "*".join(factors) if factors else str(c)
        if c < 0 and mono and abs(c) == 1:
            body = "-" + body
        parts.append(body)
    return " + ".join(parts).replace("+ -", "- ")


def t_poly(i, exp=1) -> Poly:
    return Poly.var(("t", i), exp)


class RatFunc:
    """content * prim / den, with prim and den primitive integer Laurent
    polynomials of positive leading coefficient and den either 1 or
    multi-term.  ``num`` is content * prim; zero has content 0."""

    __slots__ = ("content", "prim", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is not None and den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            content, num, den = 0, _ZERO, _ONE
        else:
            content, num = _split(num.terms)
            if den is None:
                den = _ONE
            else:
                cd, den = _split(den.terms)
                if cd != 1:
                    content = _q(Fraction(content) / cd)
        _init(self, content, num, den)

    @classmethod
    def const(cls, c):
        c = _coerce(c)
        return _rat(c, _ONE, _ONE) if c else _rat(0, _ZERO, _ONE)

    @classmethod
    def of(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return cls(x)
        return cls.const(x)

    @property
    def num(self) -> Poly:
        c = self.content
        if c == 1:
            return self.prim
        return _poly({m: _q(x * c) for m, x in self.prim.terms.items()})

    def with_prim(self, terms) -> RatFunc:
        """content * terms / den for an int term dict, which need not be
        primitive."""
        if not terms or not self.content:
            return _rat(0, _ZERO, _ONE)
        g, prim = _primitive(terms)
        return _rat(_q(self.content * g), prim, self.den)

    def is_zero(self):
        return not self.content

    def variables(self):
        return self.prim.variables() | self.den.variables()

    def __bool__(self):
        return bool(self.content)

    def __eq__(self, other):
        if type(other) is not RatFunc:
            try:
                other = RatFunc.of(other)
            except (TypeError, ValueError, ArithmeticError):  # not a number, polynomial or RatFunc
                return NotImplemented
        c1, c2 = self.content, other.content
        if c1 != c2 and c1 != -c2:
            return False
        d1, d2 = self.den.terms, other.den.terms
        if d1 == d2:
            return c1 == c2 and self.prim.terms == other.prim.terms
        # c1 P1 D2 = c2 P2 D1 with both products primitive
        x = _mul(self.prim.terms, d2)
        y = _mul(other.prim.terms, d1)
        return x == y if c1 == c2 else x == {m: -c for m, c in y.items()}

    def __hash__(self):
        raise TypeError("RatFunc is unhashable (equality is cross-multiplied)")

    def __add__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc.of(other)
        c1, c2 = self.content, other.content
        if not c2:
            return self
        if not c1:
            return other
        # c1, c2 = h * (k1, k2) / den with coprime ints k1, k2
        den = lcm(c1.denominator, c2.denominator)
        k1 = c1.numerator * (den // c1.denominator)
        k2 = c2.numerator * (den // c2.denominator)
        h = gcd(k1, k2)
        k1, k2 = k1 // h, k2 // h
        p1, p2 = self.prim.terms, other.prim.terms
        if self.den.terms == other.den.terms:
            d = self.den
        elif self.den is _ONE:
            p1, d = _mul(p1, other.den.terms), other.den
        elif other.den is _ONE:
            p2, d = _mul(p2, self.den.terms), self.den
        else:
            p1, p2 = _mul(p1, other.den.terms), _mul(p2, self.den.terms)
            sign, d = _product(self.den, other.den)
            h *= sign
        s = _lincomb(k1, p1, k2, p2)
        if not s:
            return _rat(0, _ZERO, _ONE)
        g, prim = _primitive(s)
        return _rat(h * g if den == 1 else _q(Fraction(h * g, den)), prim, d)

    def __neg__(self):
        return _rat(-self.content, self.prim, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __mul__(self, other):
        if type(other) is not RatFunc:
            other = RatFunc.of(other)
        content = _q(self.content * other.content)
        if not content:
            return _rat(0, _ZERO, _ONE)
        sp, p = _product(self.prim, other.prim)
        sd, d = _product(self.den, other.den)
        return _rat(content if sp == sd else -content, p, d)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return _rat(_q(1 / Fraction(self.content)), self.den, self.prim)

    def __truediv__(self, other):
        return self * RatFunc.of(other).inverse()

    def subst_monomials(self, mapping):
        """Poly.subst_monomials on the held numerator and denominator, with
        no gcd taken: exact only when the substitution is injective on
        monomials, else a held denominator can vanish.  The t shifts, the
        step maps and the involution are all bijections on monomials."""
        if not self.content:
            return self
        r = RatFunc(self.prim.subst_monomials(mapping), self.den.subst_monomials(mapping))
        return _rat(_q(self.content * r.content), r.prim, r.den)

    def __repr__(self):
        if self.den is _ONE:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


_ZERO = _poly({})


def _product(a, b):
    """(sign, product) of two primitive Polys of positive leading
    coefficient: by Gauss's lemma the product is primitive, so only its
    sign is split off."""
    if a is _ONE:
        return 1, b
    if b is _ONE:
        return 1, a
    t = _mul(a.terms, b.terms)
    sign = _lead_sign(t)
    if sign < 0:
        t = {m: -c for m, c in t.items()}
    return sign, (_ONE if _is_one(t) else _poly(t))  # Laurent monomials can cancel


def _init(r, content, p, d):
    """Set r to content * p / d for primitive int Polys of positive leading
    coefficient, folding a monomial d into p; 1 is always the shared _ONE."""
    if len(d.terms) == 1:
        ((mono, _),) = d.terms.items()
        if mono:
            inv = tuple((v, -e) for v, e in mono)
            p = {_mono_mul(m, inv): c for m, c in p.terms.items()}
            if _lead_sign(p) < 0:  # the least monomial can change
                content, p = -content, {m: -c for m, c in p.items()}
            p = _ONE if _is_one(p) else _poly(p)
        d = _ONE
    elif content == 1 and p.terms == d.terms:
        p = d = _ONE
    r.content, r.prim, r.den = content, p, d


def _rat(content, p, d):
    r = RatFunc.__new__(RatFunc)
    _init(r, content, p, d)
    return r
