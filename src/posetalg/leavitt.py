"""Symbolic rewriting engine for the pre-localization path-style algebra.

Elements are finite sums of canonical terms

    [descending steps] . coeff . [monomial at the bottom vertex] . [ascending steps]

where a descending step (u, v, m) stands for alpha_{u,v}^m beta_{u,v}, an
ascending step (u, v, m) for betabar_{u,v} alphabar_{u,v}^m, the monomial is
a pure power of alpha (positive exponent) or alphabar (negative) per lower
cover of the bottom vertex, and the coefficient is a Laurent polynomial in
the scalars t1, t2, ...

The rewriting orientation: pair idempotents stay in their beta-betabar
form, scalars migrate inward toward the bottom vertex (the scalar twist
sigma^p applies at every step crossed: the outward direction is not total,
since sigma^p misses t1..t_{n_p-1}), same-cover alphabar.beta and
betabar.alpha products vanish, and alpha^a alphabar^b expands through
e(p) - beta betabar, which strictly reduces the mixed overlap and so
terminates.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from typing import NamedTuple

from .poset import LabelledPoset, LowerSet, PosetError, _require_cover, lower_covers
from .ratfunc import Poly, RatFunc, poly_str, t_poly

# Step = (upper vertex, lower cover, exponent >= 0)


class AlgebraError(ValueError):
    pass


def sigma_j_index(k: int, j: int, ell: int) -> int:
    """The non-decreasing surjection {1..k} -> {1..k-1} attached to slot j,
    evaluated at ell (ell != j); slot k shares the map of slot k-1."""
    if k < 2:
        raise AlgebraError("scalar twist needs at least two covers")
    jj = min(j, k - 1)
    if ell < jj:
        return ell
    if ell in (jj, jj + 1):
        return jj
    return ell - 1


def t_shift(x, s: int) -> dict:
    """The substitution t_u -> t_{u+s} on the t variables of x (a Poly or a
    RatFunc), in the form subst_monomials takes."""
    return {v: (("t", v[1] + s), 1) for v in x.variables() if v[0] == "t"}


def sigma_p_poly(poly: Poly, np_: int) -> Poly:
    """Coefficient twist at a vertex with np_ covers: t_i -> t_{i+np_-1}."""
    if np_ <= 1:
        return poly
    return poly.subst_monomials(t_shift(poly, np_ - 1))


class TermKey(NamedTuple):
    left: tuple  # descending steps, top-down: left[-1] ends at mid
    mid: str  # bottom vertex
    powers: tuple  # sorted (cover, nonzero exponent)
    right: tuple  # ascending steps, bottom-up: right[0] starts at mid

    def paths(self):
        g1 = (self.left[0][0],) + tuple(s[1] for s in self.left) if self.left else (self.mid,)
        g2 = tuple(s[0] for s in reversed(self.right)) + (self.mid,)
        return g1, g2


class AlgElement:
    """Finite sum of canonical terms with Laurent-polynomial coefficients."""

    __slots__ = ("poset", "terms")

    def __init__(self, poset: LabelledPoset, terms=None):
        self.poset = poset
        self.terms = {}
        for key, coeff in (terms or {}).items():
            coeff = coeff if isinstance(coeff, Poly) else Poly.const(coeff)
            if not coeff.is_zero():
                self.terms[key] = coeff

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, AlgElement)
            and (self.poset is other.poset or self.poset == other.poset)
            and self.terms == other.terms
        )

    def __add__(self, other):
        if not isinstance(other, AlgElement):
            return NotImplemented
        self._check_mate(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, Poly()) + c
        return AlgElement(self.poset, out)

    def __neg__(self):
        return AlgElement(self.poset, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, AlgElement) else NotImplemented

    def scale(self, c):
        """This element times a number (an int or a Fraction, both central)."""
        c = Poly.const(c)
        return AlgElement(self.poset, {k: cc * c for k, cc in self.terms.items()})

    def _check_mate(self, other):
        if other.poset is not self.poset and other.poset != self.poset:
            raise AlgebraError("operands live over different posets")

    def __mul__(self, other):
        if type(other) is not AlgElement:  # Fraction's ABC check is slow
            return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented
        self._check_mate(other)
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for key, coeff in _mul_terms(self.poset, k1, c1, k2, c2):
                    prev = out.get(key)
                    out[key] = coeff if prev is None else prev + coeff
        return AlgElement(self.poset, out)

    def __rmul__(self, other):
        return self.scale(other) if isinstance(other, (int, Fraction)) else NotImplemented

    def __repr__(self):
        return format_element(self)


# ---------------------------------------------------------------------------
# generators


# the term of each generator at a cover q of p; e(p,q) is stored in its
# beta.betabar form
_COVER_KEYS = {
    "epq": lambda p, q: TermKey(((p, q, 0),), q, (), ((p, q, 0),)),
    "alpha": lambda p, q: TermKey((), p, ((q, 1),), ()),
    "alphabar": lambda p, q: TermKey((), p, ((q, -1),), ()),
    "beta": lambda p, q: TermKey(((p, q, 0),), q, (), ()),
    "betabar": lambda p, q: TermKey((), q, (), ((p, q, 0),)),
}


# the number of arguments each generator kind takes
_ARITY = {**dict.fromkeys(_COVER_KEYS, 2), "e": 1, "eprime": 1, "t": 1, "scalar": 1}


def _require_arity(gen, error):
    """Raise the given error type, naming gen, unless gen is a tuple
    (kind, *args) of a known kind with that kind's number of arguments."""
    arity = _ARITY.get(gen[0]) if type(gen) is tuple and gen and type(gen[0]) is str else None
    if arity is None:
        raise error(f"unknown generator {gen!r}")
    if len(gen) != 1 + arity:
        raise error(f"malformed generator {gen!r}: {gen[0]} takes {arity} argument(s)")


def generator(poset: LabelledPoset, kind: str, *args) -> AlgElement:
    """One of e, epq, eprime, alpha, alphabar, beta, betabar, t, scalar.

    The complement eprime(p) expands through the orthogonal decomposition
    of e(p).
    """
    _require_arity((kind, *args), AlgebraError)
    if kind in _COVER_KEYS:
        p, q = args
        _require_cover(poset, p, q, AlgebraError)
        return AlgElement(poset, {_COVER_KEYS[kind](p, q): Poly.const(1)})
    if kind == "e":
        (p,) = args
        poset.check(p)
        return AlgElement(poset, {TermKey((), p, (), ()): Poly.const(1)})
    if kind == "eprime":
        (p,) = args
        out = generator(poset, "e", p)
        for q in lower_covers(poset, p):
            out = out - generator(poset, "epq", p, q)
        return out
    c = t_poly(args[0]) if kind == "t" else args[0]
    c = c if isinstance(c, Poly) else Poly.const(c)
    _require_t_indices(c, AlgebraError)
    return scalar_element(poset, c)


def _require_t_indices(x, error):
    """Raise the given error type unless each t variable of x, a Poly or a
    RatFunc, has a positive int index (a bool is not one): the twist t_i ->
    t_{i+n_p-1} would send t_0 or a t of lower index onto a slot's t."""
    for v in x.variables():
        if v[0] == "t" and (isinstance(v[1], bool) or not isinstance(v[1], int) or v[1] < 1):
            raise error(f"scalar index {v[1]!r} is not a positive int")


def scalar_element(poset, coeff: Poly) -> AlgElement:
    return AlgElement(poset, {TermKey((), p, (), ()): coeff for p in poset.elements})


def one(poset) -> AlgElement:
    return scalar_element(poset, Poly.const(1))


# ---------------------------------------------------------------------------
# multiplication


def _cross_scalar(poset, upper, through_cover, powers):
    """Scalar picked up by a cover monomial crossing the step idempotent at
    ``upper`` along ``through_cover``: each alpha_{upper,q} contributes one
    positive t, each alphabar one negative t."""
    k = poset.n_covers(upper)
    j = poset.label_index(upper, through_cover)
    mono = ((("t", sigma_j_index(k, j, poset.label_index(upper, q))), e) for q, e in powers if q != through_cover)
    return Poly({tuple(mono): 1})


def _mul_terms(poset, k1: TermKey, c1: Poly, k2: TermKey, c2: Poly):
    top1 = k1.right[-1][0] if k1.right else k1.mid
    top2 = k2.left[0][0] if k2.left else k2.mid
    if top1 != top2:
        return []
    rise = list(k1.right)
    fall = list(k2.left)
    while rise and fall:
        (u1, d, m) = rise[-1]
        (u2, e, n) = fall[0]
        if d != e or m != n:
            return []
        rise.pop()
        fall.pop(0)

    if not rise and not fall:
        # both words exhausted: the bottoms meet (k1.mid == k2.mid)
        comb = {}
        for q, e in k1.powers:
            a, b = comb.get(q, (0, 0))
            comb[q] = (a + e, b) if e > 0 else (a, b - e)
        for q, e in k2.powers:
            a, b = comb.get(q, (0, 0))
            if e > 0:
                drop = min(b, e)
                comb[q] = (a + e - drop, b - drop)
            else:
                comb[q] = (a, b - e)
        return _expand_mixed(poset, list(k1.left), k1.mid, comb, c1 * c2, list(k2.right))

    # one factor is exhausted: its bottom monomial and coefficient migrate
    # top-down along the other factor's remaining steps, a left factor's
    # into descending alpha^n beta steps, a right factor's (with its
    # exponents read against alphabar^n) into ascending ones
    powers, coeff, steps, s = (k1.powers, c1, fall, 1) if not rise else (k2.powers, c2, rise[::-1], -1)
    (u, e, n) = steps[0]
    net = n + s * dict(powers).get(e, 0)
    if net < 0:
        return []
    S = sigma_p_poly(coeff, poset.n_covers(u)) * _cross_scalar(poset, u, e, powers)
    for (u2, _, _) in steps[1:]:
        S = sigma_p_poly(S, poset.n_covers(u2))
    steps[0] = (u, e, net)
    if s > 0:
        return [(TermKey(k1.left + tuple(steps), k2.mid, k2.powers, k2.right), S * c2)]
    return [(TermKey(k1.left, k1.mid, k1.powers, tuple(steps[::-1]) + k2.right), c1 * S)]


def _expand_mixed(poset, left, mid, comb, coeff, right):
    """Resolve mixed alpha^a alphabar^b factors at the bottom vertex.

    alpha^a alphabar^b = alpha^{a-1} alphabar^{b-1}
                         - (alpha^{a-1} beta) (betabar alphabar^{b-1}),
    and in the split-off term every other cover's power crosses the new
    step pair and becomes a scalar.  The mixed overlap strictly drops.
    """
    mixed = sorted(q for q, (a, b) in comb.items() if a > 0 and b > 0)
    if not mixed:
        powers = []
        for q in sorted(comb):
            a, b = comb[q]
            if a - b != 0:
                powers.append((q, a - b))
        return [(TermKey(tuple(left), mid, tuple(powers), tuple(right)), coeff)]
    q = mixed[0]
    a, b = comb[q]
    out = _expand_mixed(poset, left, mid, {**comb, q: (a - 1, b - 1)}, coeff, right)
    rest = [(q2, a2 - b2) for q2, (a2, b2) in comb.items() if q2 != q and a2 - b2 != 0]
    scal = _cross_scalar(poset, mid, q, rest)
    split_coeff = -(sigma_p_poly(coeff, poset.n_covers(mid)) * scal)
    key = TermKey(
        tuple(left) + ((mid, q, a - 1),), q, (), ((mid, q, b - 1),) + tuple(right)
    )
    out.append((key, split_coeff))
    return out


# ---------------------------------------------------------------------------
# involution, grading, ideals


def involute(x: AlgElement) -> AlgElement:
    """The anti-automorphism t_k -> t_k^{-1}, alpha <-> alphabar,
    beta <-> betabar, products reversed: in each term the descending steps,
    read bottom-up, become the ascending ones and vice versa."""
    terms = {}
    for key, coeff in x.terms.items():
        mirrored = TermKey(key.right[::-1], key.mid, tuple((q, -e) for q, e in key.powers), key.left[::-1])
        terms[mirrored] = coeff.subst_monomials({v: (v, -1) for v in coeff.variables() if v[0] == "t"})
    return AlgElement(x.poset, terms)


def grade(x: AlgElement) -> dict:
    """Partition of the terms by their pair of paths (both ending at the
    bottom vertex); the components sum back to x."""
    out = {}
    for key, coeff in x.terms.items():
        out.setdefault(key.paths(), {})[key] = coeff
    return {pair: AlgElement(x.poset, terms) for pair, terms in out.items()}


def _ideal_members(x: AlgElement, lower_set) -> frozenset:
    """The members of a lower set of x's poset, given as a LowerSet of it or
    as a down-closed collection of its elements; else AlgebraError."""
    if isinstance(lower_set, LowerSet):
        if lower_set.poset != x.poset:
            raise AlgebraError("the lower set belongs to another poset")
        return lower_set.members
    try:
        return LowerSet(x.poset, lower_set).members
    except (PosetError, TypeError) as err:
        raise AlgebraError(str(err)) from None


def in_ideal(x: AlgElement, lower_set) -> bool:
    """True iff every graded component ends inside the lower set."""
    members = _ideal_members(x, lower_set)
    return all(key.mid in members for key in x.terms)


def project_mod_ideal(x: AlgElement, lower_set) -> AlgElement:
    """Quotient by the ideal of a lower set: drop the components ending in
    it (equivalently, impose e(p,q) = beta_{p,q} = 0 for covers q inside)."""
    members = _ideal_members(x, lower_set)
    return AlgElement(x.poset, {k: c for k, c in x.terms.items() if k.mid not in members})


# ---------------------------------------------------------------------------
# injectivity probe


def injectivity_probe(x: AlgElement):
    """Find (p, z1, z2) such that z1*x*z2 has the trivial path pair at p in
    its support.

    Follows the stripping recipe: take a path-extension-maximal support
    pair (lexicographically least, so a trivial pair wins when present),
    then peel its left path top-down with betabar.alphabar^M words (M the
    top exponent of the targeted terms), and its right path the same way
    off the involute, which the involution maps back to alpha^M.beta words
    on the right.  The trivial-pair component of the corner at p is
    asserted nonzero; components whose paths stay inside other corners may
    survive when the support has incomparable maximal pairs.
    """
    if x.is_zero():
        raise AlgebraError("probe needs a nonzero element")
    P = x.poset
    pairs = {key.paths() for key in x.terms}

    def extends(shorter, longer):
        return len(longer) >= len(shorter) and longer[: len(shorter)] == shorter

    maximal = [
        (g1, g2)
        for g1, g2 in pairs
        if not any(
            (d1, d2) != (g1, g2) and extends(d1, g1) and extends(d2, g2)
            for d1, d2 in pairs
        )
    ]
    g1, g2 = min(maximal)
    p = g1[-1]
    z1, cur = _strip_left(x, g1, g2)
    z2, cur = _strip_left(involute(cur), g2, (p,))
    z2, cur = involute(z2), involute(cur)
    corner = generator(P, "e", p) * cur * generator(P, "e", p)
    if not any(k.left == () and k.right == () and k.mid == p for k in corner.terms):
        raise AlgebraError("probe failed to isolate the trivial path pair")
    return p, z1, z2, cur


def _strip_left(cur: AlgElement, path, right_path):
    """Peel ``path`` top-down off the left of the components of cur with
    right path ``right_path``: (z, z*cur)."""
    z = one(cur.poset)
    for i in range(len(path) - 1):
        u, v = path[i], path[i + 1]
        exps = [key.left[0][2] for key in cur.terms if key.paths() == (path[i:], right_path)]
        if not exps:
            raise AlgebraError("targeted component vanished while stripping")
        w = AlgElement(cur.poset, {TermKey((), v, (), ((u, v, max(exps)),)): Poly.const(1)})
        z = w * z
        cur = w * cur
    return z, cur


def _lemma26_exhaustive(poset: LabelledPoset) -> bool:
    """Sandwiches betabar . monomial . beta: a scalar multiple of the lower
    idempotent on the same cover, zero across different covers, for every
    cover exponent in -2..2.  Each monomial is its one normal-form term (its
    powers sit on distinct covers, so none mixes); the empty one is e(p)."""
    for p in poset.elements:
        covers = lower_covers(poset, p)
        if not covers:
            continue
        betabars, betas = ([generator(poset, kind, p, q) for q in covers] for kind in ("betabar", "beta"))
        for exps in itertools.product(range(-2, 3), repeat=len(covers)):
            powers = tuple(sorted((q, e) for q, e in zip(covers, exps) if e))
            m = AlgElement(poset, {TermKey((), p, powers, ()): 1})
            for q, betabar in zip(covers, betabars):
                left = betabar * m  # the same product for every q2
                for q2, beta in zip(covers, betas):
                    res = left * beta
                    if q != q2:
                        if not res.is_zero():
                            return False
                    else:
                        for key in res.terms:
                            if key.left or key.right or key.powers or key.mid != q:
                                return False
    return True


# ---------------------------------------------------------------------------
# linear syntax and JSON


_TOKEN = re.compile(
    r"\s*(?:(?P<gen>(?P<arrow>[aAbB])\[\s*(?P<p>\w+)\s*,\s*(?P<q>\w+)\s*\])"
    r"|(?P<e>e\[\s*(?P<e1>\w+)\s*(?:,\s*(?P<e2>\w+)\s*)?\])"
    r"|t(?P<t>\d+)|(?P<num>\d+(?:/\d+)?)|(?P<op>[+*^()-]))"
)


def parse_element(poset: LabelledPoset, text: str) -> AlgElement:
    """Parse the linear syntax: a[p,q] A[p,q] b[p,q] B[p,q] e[p] e[p,q]
    tN (tN^-1), integers and rationals, with + - * ^ and parentheses.
    Numbers are unsigned tokens, so ``-`` is always an operator; a unary
    ``-`` negates the whole power after it, so ``-t1^2`` is -(t1^2)."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise AlgebraError(f"cannot tokenize {text[pos:]!r}")
            break
        tokens.append(m)
        pos = m.end()
    expr, idx = _parse_sum(poset, tokens, 0)
    if idx != len(tokens):
        raise AlgebraError(f"trailing tokens {[t.group().strip() for t in tokens[idx:]]}")
    return expr


def _parse_sum(poset, toks, i):
    acc, i = _parse_product(poset, toks, i)
    while i < len(toks) and toks[i]["op"] in ("+", "-"):
        op = toks[i]["op"]
        term, i = _parse_product(poset, toks, i + 1)
        acc = acc + term if op == "+" else acc - term
    return acc, i


def _parse_product(poset, toks, i):
    acc, i = _parse_factor(poset, toks, i)
    while i < len(toks) and toks[i]["op"] == "*":
        nxt, i = _parse_factor(poset, toks, i + 1)
        acc = acc * nxt
    return acc, i


def _parse_factor(poset, toks, i):
    if i < len(toks) and toks[i]["op"] == "-":  # a sign applies to the whole power
        expr, j = _parse_factor(poset, toks, i + 1)
        return -expr, j
    base, i = _parse_atom(poset, toks, i)
    while i < len(toks) and toks[i]["op"] == "^":
        negative = i + 1 < len(toks) and toks[i + 1]["op"] == "-"
        i += 2 + negative
        exponent = toks[i - 1]["num"] if i <= len(toks) else None
        if not exponent or not exponent.isdigit():
            raise AlgebraError("^ needs an integer exponent")
        n = int(exponent)
        if negative and n:
            base = _invert_scalar(base)
        acc = one(poset)
        while n:  # repeated squaring: the product is associative and exact
            if n & 1:
                acc = acc * base
            n >>= 1
            if n:
                base = base * base
        base = acc
    return base, i


def _invert_scalar(x: AlgElement) -> AlgElement:
    """Inverse of a scalar monomial element (negative powers are only legal
    on Laurent monomial scalars such as t3)."""
    for key, c in x.terms.items():
        if key.left or key.right or key.powers:
            raise AlgebraError("negative powers are only defined for scalars")
        if len(c.terms) != 1:
            raise AlgebraError("cannot invert a multi-term scalar")
    if len(set(x.terms.values())) != 1 or len(x.terms) != len(x.poset.elements):
        raise AlgebraError("negative powers are only defined for global scalars")
    return scalar_element(x.poset, RatFunc(c).inverse().num)


def _parse_atom(poset, toks, i):
    if i >= len(toks):
        raise AlgebraError("unexpected end of input")
    tok = toks[i]
    if tok["op"] == "(":
        expr, j = _parse_sum(poset, toks, i + 1)
        if j >= len(toks) or toks[j]["op"] != ")":
            raise AlgebraError("unbalanced parenthesis")
        return expr, j + 1
    if tok.lastgroup == "t":
        return generator(poset, "t", int(tok["t"])), i + 1
    if tok.lastgroup == "num":
        return generator(poset, "scalar", Fraction(tok["num"])), i + 1
    if tok.lastgroup == "gen":
        kind = {"a": "alpha", "A": "alphabar", "b": "beta", "B": "betabar"}[tok["arrow"]]
        return generator(poset, kind, tok["p"], tok["q"]), i + 1
    if tok.lastgroup == "e":
        if tok["e2"]:
            return generator(poset, "epq", tok["e1"], tok["e2"]), i + 1
        return generator(poset, "e", tok["e1"]), i + 1
    raise AlgebraError(f"unexpected token {tok.group().strip()!r}")


def format_element(x: AlgElement) -> str:
    if x.is_zero():
        return "0"
    parts = []
    for key in sorted(x.terms, key=lambda k: (k.mid, k.left, k.right, k.powers)):
        coeff = x.terms[key]
        factors = []
        for u, v, m in key.left:
            if m:
                factors.append(f"a[{u},{v}]^{m}" if m > 1 else f"a[{u},{v}]")
            factors.append(f"b[{u},{v}]")
        cs = poly_str(coeff)
        if cs != "1":
            factors.append(f"({cs})" if ("+" in cs or "- " in cs) else cs)
        for q, e in key.powers:
            sym = "a" if e > 0 else "A"
            ab = abs(e)
            factors.append(f"{sym}[{key.mid},{q}]" + (f"^{ab}" if ab > 1 else ""))
        for u, v, m in key.right:
            factors.append(f"B[{u},{v}]")
            if m:
                factors.append(f"A[{u},{v}]^{m}" if m > 1 else f"A[{u},{v}]")
        if not key.left and not key.right and not key.powers:
            # nothing else pins the corner of a pure scalar term
            factors.append(f"e[{key.mid}]")
        parts.append("*".join(factors))
    return " + ".join(parts)
