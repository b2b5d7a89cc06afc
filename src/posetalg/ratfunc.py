"""Sparse multivariate Laurent polynomials and rational functions over Q.

Variables are hashable tuples such as ("t", 3), ("z", "p", 1) or
("x", "a"); exponents may be negative (Laurent).  Rational functions keep a
separate denominator only when it is genuinely multi-term: a monomial
denominator is folded into the numerator.  Equality is decided by
cross-multiplication, never by gcd computation, which is only a size
optimization here and is deliberately skipped.
"""

from __future__ import annotations

from fractions import Fraction


class Poly:
    """Canonical sparse polynomial: {monomial: nonzero Fraction}."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for mono, c in dict(terms).items():
                c = Fraction(c)
                if c:
                    self.terms[mono] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, c):
        c = Fraction(c)
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, v, exp=1, coeff=1):
        if exp == 0:
            return cls.const(coeff)
        return cls({((v, exp),): Fraction(coeff)})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def const_value(self):
        if not self.is_const():
            raise ValueError("not a constant")
        return self.terms.get((), Fraction(0))

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
        out = dict(self.terms)
        for mono, c in other.terms.items():
            s = out.get(mono, Fraction(0)) + c
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
        res = Poly()
        res.terms = out
        return res

    def __neg__(self):
        res = Poly()
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = _mono_mul(m1, m2)
                s = out.get(mono, Fraction(0)) + c1 * c2
                if s:
                    out[mono] = s
                else:
                    out.pop(mono, None)
        res = Poly()
        res.terms = out
        return res

    def scale(self, c):
        c = Fraction(c)
        res = Poly()
        if c:
            res.terms = {m: cc * c for m, cc in self.terms.items()}
        return res

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial; use RatFunc")
        out = Poly.const(1)
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
            acc = ()
            for v, e in mono:
                if v in mapping:
                    w, k = mapping[v]
                    acc = _mono_mul(acc, ((w, k * e),))
                else:
                    acc = _mono_mul(acc, ((v, e),))
            s = out.get(acc, Fraction(0)) + c
            if s:
                out[acc] = s
            else:
                out.pop(acc, None)
        res = Poly()
        res.terms = out
        return res

    def degree_span(self, v):
        """(min, max) exponent of v across terms ((0, 0) if absent)."""
        lo, hi = 0, 0
        seen = False
        for mono in self.terms:
            e = dict(mono).get(v, 0)
            if not seen:
                lo = hi = e
                seen = True
            else:
                lo, hi = min(lo, e), max(hi, e)
        return (lo, hi)

    def split_by(self, v):
        """{exponent of v: coefficient Poly without v}."""
        out = {}
        for mono, c in self.terms.items():
            d = dict(mono)
            e = d.pop(v, 0)
            rest = tuple(sorted(d.items()))
            bucket = out.setdefault(e, Poly())
            s = bucket.terms.get(rest, Fraction(0)) + c
            if s:
                bucket.terms[rest] = s
            else:
                bucket.terms.pop(rest, None)
        return {e: p for e, p in out.items() if p.terms}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def _mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        s = d.get(v, 0) + e
        if s:
            d[v] = s
        else:
            d.pop(v, None)
    return tuple(sorted(d.items()))


def poly_str(p: Poly, varname=None) -> str:
    if p.is_zero():
        return "0"

    def vname(v):
        if varname:
            return varname(v)
        if isinstance(v, tuple) and len(v) == 2 and v[0] == "t":
            return f"t{v[1]}"
        return "_".join(str(x) for x in v)

    parts = []
    for mono, c in p.sorted_terms():
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


t_var = lambda i: ("t", i)  # noqa: E731


def t_poly(i, exp=1) -> Poly:
    return Poly.var(t_var(i), exp)


class RatFunc:
    """Fraction of two Polys; monomial denominators are folded away."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = Poly.const(1) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly.const(1)
        elif len(den.terms) == 1:
            # fold the monomial denominator into the (Laurent) numerator
            (mono, c), = den.terms.items()
            inv = tuple((v, -e) for v, e in mono)
            num = Poly({_mono_mul(m, inv): cc / c for m, cc in num.terms.items()})
            den = Poly.const(1)
        else:
            # normalize the leading denominator coefficient to one
            lead = den.sorted_terms()[0][1]
            num = num.scale(Fraction(1) / lead)
            den = den.scale(Fraction(1) / lead)
            if num == den:
                num = den = Poly.const(1)
        self.num, self.den = num, den

    @classmethod
    def const(cls, c):
        return cls(Poly.const(c))

    @classmethod
    def of(cls, x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, Poly):
            return cls(x)
        return cls.const(x)

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            other = RatFunc.of(other)
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        raise TypeError("RatFunc is unhashable (equality is cross-multiplied)")

    def __add__(self, other):
        other = RatFunc.of(other)
        if self.den == other.den:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RatFunc.of(other))

    def __mul__(self, other):
        other = RatFunc.of(other)
        return RatFunc(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverting zero")
        return RatFunc(self.den, self.num)

    def __truediv__(self, other):
        return self * RatFunc.of(other).inverse()

    def subst_monomials(self, mapping):
        return RatFunc(self.num.subst_monomials(mapping), self.den.subst_monomials(mapping))

    def __repr__(self):
        if self.den.is_const() and self.den.const_value() == 1:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"
