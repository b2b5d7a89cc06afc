"""Exact right action on the recursively built representation space.

The space attached to a poset is recursive: a minimal vertex carries the
scalar line, and a vertex p with lower covers q_1..q_k carries one branch
per cover, the branch along q_j being V(q_j) tensored with polynomials in
z_j over rational functions in the other z's of p.  A basis leaf is
addressed by a branch path (vertex, chosen slot) descending to a minimal
vertex, read from the labelled descent that also indexes the unfolding
and the maximal chains, and a vector assigns each leaf a rational-function
coefficient that is polynomial in every chosen-slot variable along its
path.

Operators act on the right.  alphabar multiplies by the slot variable,
alpha divides (off its own branch) or drops-and-shifts (on it), the pair
idempotent extracts the constant part, and the step maps substitute the
top-level slot variables by scalars.  The substitution direction is the
one forced by the twist relations: the slot variable z_l goes to the
INVERSE of the matching t (the alpha relations pair a positive t on one
side with a division by z on the other).

Inverses of the admissible polynomials (zero valuation in every slot) are
realized as truncated geometric series, exact on a stated degree window.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .poset import LabelledPoset, _descents, _reject_bare_string, _require_count, _require_cover, lower_covers
from .ratfunc import Poly, RatFunc, _ONE, _poly, _rat, mono_exponent, t_poly
from .leavitt import (
    AlgElement,
    AlgebraError,
    TermKey,
    _require_arity,
    _require_t_indices,
    sigma_j_index,
    sigma_p_poly,
    t_shift,
)


def zvar(vertex, slot):
    return ("z", vertex, slot)


class RepError(ValueError):
    pass


@dataclass(frozen=True)
class Space:
    """Leaf layout of the representation space of a poset."""

    poset: LabelledPoset
    leaves: dict  # vertex -> tuple of branch paths rooted there, in label order
    _leaf_sets: dict = field(init=False, repr=False, compare=False)  # vertex -> frozenset of them

    def __post_init__(self):
        object.__setattr__(self, "_leaf_sets", {v: frozenset(paths) for v, paths in self.leaves.items()})

    def all_leaves(self):
        return [path for v in self.poset.elements for path in self.leaves[v]]

    def check_path(self, path):
        try:
            found = path in self._leaf_sets[path[0][0]]
        except (IndexError, KeyError, TypeError):  # empty, foreign root, or not a tuple of pairs
            found = False
        if not found:
            raise RepError(f"branch path {path} does not belong to this space")


def build_space(poset: LabelledPoset) -> Space:
    """One leaf per descent from a vertex to a minimal one, in label order:
    the path u_0 > .. > u_m becomes ((u_0, slot of u_1), .., (u_m, 0))."""
    leaves = {
        v: tuple(
            tuple((u, poset.label_index(u, w)) for u, w in zip(path, path[1:])) + ((path[-1], 0),)
            for path in _descents(poset, v)
            if not poset.labels.get(path[-1])
        )
        for v in poset.elements
    }
    return Space(poset, leaves)


class RepVector:
    """Finite map from branch paths to rational-function coefficients."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: Space, coeffs=None):
        self.space = space
        self.coeffs = {}
        for path, c in (coeffs or {}).items():
            space.check_path(path)
            c = RatFunc.of(c)
            if not c.is_zero():
                self.coeffs[path] = c

    @classmethod
    def _trusted(cls, space, coeffs):
        """A vector from paths of ``space`` and RatFunc coefficients that
        are known valid; zero coefficients are dropped."""
        vec = cls.__new__(cls)
        vec.space = space
        vec.coeffs = {path: c for path, c in coeffs.items() if c}
        return vec

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, RepVector) or self.space is not other.space:
            return NotImplemented
        if set(self.coeffs) != set(other.coeffs):
            return False
        return all(self.coeffs[p] == other.coeffs[p] for p in self.coeffs)

    def __add__(self, other):
        _check_space(self.space, other)
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            s = out.get(p)
            out[p] = c if s is None else s + c
        return RepVector._trusted(self.space, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        c = RatFunc.of(c)
        return RepVector._trusted(self.space, {p: cc * c for p, cc in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "RepVector(0)"
        bits = ", ".join(f"{path}: {c!r}" for path, c in sorted(self.coeffs.items()))
        return f"RepVector({bits})"


def leaf_vector(space, path, coeff=1) -> RepVector:
    return RepVector(space, {path: RatFunc.of(coeff)})


# ---------------------------------------------------------------------------
# generator actions


def _slot_exponents(coeff: RatFunc, var):
    """(monomial, coefficient, exponent of var) over the primitive numerator,
    after checking that coeff is polynomial in var."""
    if coeff.den.degree_span(var) != (0, 0):
        raise RepError(f"denominator depends on the polynomial slot {var}")
    out = [(mono, c, mono_exponent(mono, var)) for mono, c in coeff.prim.terms.items()]
    if any(e < 0 for _, _, e in out):
        raise RepError(f"negative power of the polynomial slot {var}")
    return out


def _const_part(coeff: RatFunc, var) -> RatFunc:
    return coeff.with_prim({mono: c for mono, c, e in _slot_exponents(coeff, var) if e == 0})


def _drop_shift(coeff: RatFunc, var, times=1) -> RatFunc:
    """Drop the terms of slot degree below times and lower the rest by times."""
    out = {}
    for mono, c, d in _slot_exponents(coeff, var):
        if d > times:
            out[tuple((v, e - times) if v == var else (v, e) for v, e in mono)] = c
        elif d == times:
            out[tuple(kv for kv in mono if kv[0] != var)] = c
    return coeff.with_prim(out)


def _step_subst(poset, p, j):
    """The slot part of the step map along slot j at p: z_l ->
    t_{sigma_j(l)}^{-1} for l != j, a bijection onto t_1..t_{k-1}, so it
    has k - 1 entries."""
    k = poset.n_covers(p)
    return {zvar(p, ell): (("t", sigma_j_index(k, j, ell)), -1) for ell in range(1, k + 1) if ell != j}


def _apply_step(coeff: RatFunc, poset, p, j):
    """The step map: the slot substitution, with every t shifted by k - 1."""
    step = _step_subst(poset, p, j)
    return coeff.subst_monomials({**step, **t_shift(coeff, len(step))})


def _apply_step_inverse(coeff: RatFunc, poset, p, j):
    """The inverse substitution: t_{sigma_j(l)} -> z_l^{-1}, and every
    other t shifted back by k - 1."""
    step = _step_subst(poset, p, j)
    inverse = {t: (z, -1) for z, (t, _) in step.items()}
    return coeff.subst_monomials({**t_shift(coeff, -len(step)), **inverse})


def _check_space(space, vec):
    if vec.space is not space:
        raise RepError("vector belongs to a different space (context mismatch)")


def act(space: Space, gen, vec: RepVector) -> RepVector:
    """Right action of one generator; gen is a tuple such as ("e", p),
    ("epq", p, q), ("alpha", p, q), ("alphabar", p, q), ("beta", p, q),
    ("betabar", p, q), ("t", i) or ("scalar", value), the kinds that
    leavitt.generator takes apart from eprime."""
    _check_space(space, vec)
    _require_arity(gen, RepError)
    P = space.poset
    kind = gen[0]
    if kind in ("scalar", "t"):
        val = RatFunc.of(gen[1] if kind == "scalar" else t_poly(gen[1]))
        _require_t_indices(val, RepError)
        return RepVector._trusted(space, {path: c * val for path, c in vec.coeffs.items()})

    if kind == "e":
        p = gen[1]
        P.check(p)
        return RepVector._trusted(space, {path: c for path, c in vec.coeffs.items() if path[0][0] == p})
    if kind == "eprime":
        raise RepError(f"unknown generator {gen!r}")

    p, q = gen[1], gen[2]
    _require_cover(P, p, q, RepError)
    slot = P.label_index(p, q)
    z = zvar(p, slot)
    if kind in ("alpha", "alphabar"):  # z^-1 or z, a monomial already in normal form
        zpow = _rat(1, Poly.var(z, -1 if kind == "alpha" else 1), _ONE)

    # every path below is a path of vec, or one moved along a lower cover
    # of the space's poset, so the result skips the public checks; each
    # kind sends distinct paths to distinct paths, so nothing is summed
    out = {}
    for path, c in vec.coeffs.items():
        root, j0 = path[0]
        if kind == "epq":
            if root == p and j0 == slot:
                out[path] = _const_part(c, z)
        elif kind == "alphabar":
            if root == p:
                out[path] = c * zpow
        elif kind == "alpha":
            if root == p:
                out[path] = c * zpow if j0 != slot else _drop_shift(c, z)
        elif kind == "beta":
            if root == p and j0 == slot:
                out[path[1:]] = _apply_step(_const_part(c, z), P, p, slot)
        elif root == q:  # betabar
            out[((p, slot),) + path] = _apply_step_inverse(c, P, p, slot)
    return RepVector._trusted(space, out)


def _word_root(word):
    """The root of the only corner a word acts on: q for a leading betabar
    (p, q), else p of its first generator that is not a scalar or t.  None
    when there is no such generator, so the word acts on every root."""
    for gen in word:
        if gen[0] == "betabar":
            return gen[2]
        if gen[0] not in ("scalar", "t"):
            return gen[1]
    return None


def act_word(space, word, vec):
    for gen in word:
        vec = act(space, gen, vec)
    return vec


def act_expr(space, expr, vec):
    """expr is a list of (scalar coefficient, word); the actions add up."""
    total = RepVector(space)
    for coeff, word in expr:
        out = act_word(space, word, vec)
        total = total + (out if coeff == 1 else out.scale(coeff))
    return total


def act_element(space: Space, x: AlgElement, vec: RepVector) -> RepVector:
    """Fold the action over the canonical term structure.

    Every term lives in the corner at the start of its left path, so it
    acts only on the paths of vec with that root; a term whose corner
    holds no path gives zero, once its steps are checked."""
    if x.poset is not space.poset and x.poset != space.poset:
        raise RepError("element and space live over different posets")
    _check_space(space, vec)
    P = space.poset
    corners = {}
    for path, c in vec.coeffs.items():
        corners.setdefault(path[0][0], {})[path] = c
    total = RepVector(space)
    for (left, mid, powers, right), coeff in x.terms.items():
        root = left[0][0] if left else mid
        corner = corners.get(root)
        if corner is None:
            P.check(root)
            for u, v, _ in left:
                _require_cover(P, u, v, RepError)
            for q, _ in powers:
                _require_cover(P, mid, q, RepError)
            for u, v, _ in right:
                _require_cover(P, u, v, RepError)
            continue
        word = []
        for u, v, m in left:
            word += [("alpha", u, v)] * m
            word.append(("beta", u, v))
        word.append(("scalar", RatFunc(coeff)))
        for q, e in powers:
            word += [("alpha" if e > 0 else "alphabar", mid, q)] * abs(e)
        for u, v, m in right:
            word.append(("betabar", u, v))
            word += [("alphabar", u, v)] * m
        total = total + act_word(space, word, RepVector._trusted(space, corner))
    return total


# ---------------------------------------------------------------------------
# admissible polynomials and truncated inverses


@dataclass(frozen=True)
class SigmaPoly:
    """Polynomial in the commuting per-cover variables at a vertex, with
    Laurent-t coefficients; admissible when no variable divides it."""

    vertex: str
    poly: Poly

    def valuation(self, poset) -> int:
        """The largest power of a cover variable dividing the polynomial;
        AlgebraError names any variable that is neither a t nor the x of a
        lower cover of the vertex."""
        covers = lower_covers(poset, self.vertex)
        if covers and self.poly.is_zero():
            raise AlgebraError("zero polynomial has no valuation")
        allowed = {("x", q) for q in covers}
        foreign = sorted((v for v in self.poly.variables() if v not in allowed and v[0] != "t"), key=repr)
        if foreign:
            raise AlgebraError(f"variables {foreign} are neither t nor the x of a lower cover of {self.vertex!r}")
        lows = [self.poly.degree_span(("x", q))[0] for q in covers]
        if min(lows, default=0) < 0:
            raise AlgebraError("negative cover exponent is not a polynomial")
        return max(lows, default=0)

    def degree_at(self, var) -> int:
        return self.poly.degree_span(var)[1]

    def as_element(self, poset) -> AlgElement:
        terms = {}
        for mono, c in self.poly.terms.items():
            powers = tuple(sorted((v[1], e) for v, e in mono if v[0] == "x"))
            key = TermKey((), self.vertex, powers, ())
            scalar = _poly({tuple(kv for kv in mono if kv[0][0] != "x"): c})  # a canonical term
            terms[key] = terms.get(key, Poly()) + scalar
        return AlgElement(poset, terms)


def sigma_poly(poset, vertex, mapping) -> SigmaPoly:
    """Build an admissible polynomial from {monomial spec: coeff} where a
    monomial spec lists cover ids, one per unit of exponent, e.g.
    {(): 1, ("a",): -1}; Poly sums the repeats and merges the specs.  An
    unknown vertex raises PosetError, an id that is not one of its lower
    covers, or a spec given as one string, AlgebraError."""
    poset.check(vertex)
    for covers in mapping:
        _reject_bare_string(covers, "monomial spec", AlgebraError)
        for q in covers:
            _require_cover(poset, vertex, q, AlgebraError)
    return SigmaPoly(vertex, Poly({tuple((("x", q), 1) for q in covers): c for covers, c in mapping.items()}))


def invert_sigma(space: Space, f: SigmaPoly, vec: RepVector, depth: int) -> RepVector:
    """Truncated inverse of an admissible polynomial, applied on the right.

    Acts as the corner inverse at the polynomial's vertex (leaves rooted
    elsewhere are annihilated); exact on coefficients whose slot degree is
    at most depth minus the polynomial's slot degree.  No series term g_a
    holds the slot variable z, so coeff * g_a has the slot degrees of coeff
    and drop-shifting it by a > deg_z(coeff) gives zero: each slot's series
    stops at the top slot degree its coefficients reach, or at depth.
    """
    _require_count(depth, "depth", AlgebraError)
    P = space.poset
    if f.poly.is_zero():
        raise AlgebraError("cannot invert zero")
    if f.valuation(P) != 0:
        raise AlgebraError("valuation gate: some cover variable divides the polynomial")
    _check_space(space, vec)
    p = f.vertex
    corner = [(path, coeff) for path, coeff in vec.coeffs.items() if path[0][0] == p]
    need = {}
    for path, coeff in corner:
        j = path[0][1]
        top = max(e for _, _, e in _slot_exponents(coeff, zvar(p, j)))
        need[j] = max(need.get(j, 0), min(top, depth))
    series = {j: _inverse_series(P, f, j, n) for j, n in need.items()}
    out = {}
    for path, coeff in corner:
        j = path[0][1]
        gs = series[j]
        zeta = zvar(p, j)
        shifted = (_drop_shift(coeff * g, zeta, times=a) for a, g in enumerate(gs[1:], start=1))
        out[path] = sum(shifted, coeff * gs[0])
    return RepVector._trusted(space, out)


def _inverse_series(poset, f: SigmaPoly, j, depth):
    """Coefficients g_0..g_depth of the inverse power series along slot j;
    at a minimal vertex (slot 0) f is a Laurent scalar, inverted outright."""
    if not j:
        return [RatFunc(f.poly).inverse()]
    p = f.vertex
    covers = lower_covers(poset, p)
    mapping = {("x", q): (zvar(p, i), -1) for i, q in enumerate(covers, 1)}
    buckets = f.poly.split_by(("x", covers[j - 1]))
    fbar = {b: RatFunc(part.subst_monomials(mapping)) for b, part in buckets.items()}
    g0 = fbar[0].inverse()
    gs = [g0]
    maxdeg = max(fbar)
    for a in range(1, depth + 1):
        s = RatFunc.const(0)
        for b in range(1, min(a, maxdeg) + 1):
            if b in fbar:
                s = s + fbar[b] * gs[a - b]
        gs.append(-(g0 * s) if not s.is_zero() else RatFunc.const(0))
    return gs


def act_sigma(space, f: SigmaPoly, vec):
    """Forward action of an admissible polynomial (via its element form)."""
    return act_element(space, f.as_element(space.poset), vec)


# ---------------------------------------------------------------------------
# sample vectors and relation checking


def sample_vectors(space: Space, maxdeg: int = 3):
    """Deterministic probe family: each leaf with coefficient one, then
    each slot variable along its path raised to 1..maxdeg."""
    _require_count(maxdeg, "maxdeg", AlgebraError)
    out = []
    for path in space.all_leaves():
        out.append(leaf_vector(space, path))
        for u, j in path:
            if j >= 1:
                for d in range(1, maxdeg + 1):
                    out.append(leaf_vector(space, path, Poly.var(zvar(u, j), d)))
    return out


def check_relation(space, lhs, rhs, samples=None):
    """Apply both operator expressions (lists of (coeff, word)) to the
    samples (by default ``sample_vectors(space)``); None if they agree,
    else the first offending sample as (sample, lhs image, rhs image).

    Both sides act once on the zero vector first, so every generator and
    coefficient passes act's checks even when every sample is skipped.  A
    word is zero on every path outside its root's corner, so one pass keeps
    the samples with a path at some word's root (every sample when some
    word has no root), and the others, zero on both sides, are skipped; a
    sample from another space is kept at its place.  Each side then acts
    once on the generic combination of the kept samples, the sum of c_i v_i
    with a fresh indeterminate c_i per sample.  Every step of act is linear
    and leaves alone the variables it does not name, so the image of the
    sum is the sum of the c_i times each sample's image, and since the c_i
    are algebraically independent over the coefficients, the two sides
    agree on the sum exactly when they agree on every sample.  When the
    sums differ, the generic action raises or the samples admit no such
    indeterminate, the kept samples are walked one by one, so the first
    counterexample and every error are those of the sample loop."""
    if samples is None:
        samples = sample_vectors(space)
    for side in (lhs, rhs):
        act_expr(space, side, RepVector(space))
    roots = {_word_root(word) for _, word in lhs + rhs}
    every = None in roots
    kept = []
    for v in samples:
        if every or type(v) is not RepVector or v.space is not space:
            kept.append(v)
            continue
        for path in v.coeffs:
            if path[0][0] in roots:
                kept.append(v)
                break
    if _agrees_generically(space, lhs, rhs, kept):
        return None
    # defaults, not a closure: a closure would turn space into a cell, which
    # the selection loop reads more slowly
    return _first_disagreement(space, kept, lambda v, s=space, a=lhs, b=rhs: (act_expr(s, a, v), act_expr(s, b, v)))


def _first_disagreement(space, samples, images, agrees=operator.eq):
    """The first sample v, in order, whose images(v) = (lhs, *others) hold
    an other with agrees(lhs, other) false, as (v, lhs, other); None when
    there is none.  A sample from another space raises RepError."""
    for v in samples:
        _check_space(space, v)
        lhs, *others = images(v)
        for other in others:
            if not agrees(lhs, other):
                return (v, lhs, other)
    return None


def _fresh(var):
    """Whether a variable is none of check_relation's indeterminates
    ("", i) and sorts after each at its first entry: a tuple led by a
    non-empty str, since the empty str sorts first."""
    return type(var) is tuple and var and type(var[0]) is str and var[0] != ""


def _agrees_generically(space, lhs, rhs, samples):
    """True when both sides agree on the generic combination of the samples;
    False when they may not, when the shortcut does not apply (a sample of
    another space, a sample coefficient with a multi-term denominator, a
    variable not fresh for the indeterminates) or when its action raises."""
    scalars = [RatFunc.of(gen[1]) for _, word in lhs + rhs for gen in word if gen[0] == "scalar"]
    if not all(_fresh(var) for c in scalars for var in c.variables()):
        return False
    # sample i's terms, each led by the indeterminate ("", i); no two
    # samples' terms meet, so each coefficient is one term dict
    generic = {}
    for i, v in enumerate(samples):
        if type(v) is not RepVector or v.space is not space:
            return False  # the walk raises on it, or finds an earlier counterexample
        ci = ((("", i), 1),)
        for path, c in v.coeffs.items():
            if len(c.den.terms) > 1:
                return False
            terms = generic.setdefault(path, {})
            for mono, a in c.num.terms.items():
                if not all(_fresh(var) for var, _ in mono):
                    return False
                terms[ci + mono] = a
    vec = RepVector._trusted(space, {path: RatFunc(_poly(terms)) for path, terms in generic.items()})
    try:
        return act_expr(space, lhs, vec) == act_expr(space, rhs, vec)
    except Exception:  # the sample loop raises the error, or finds an earlier counterexample
        return False


def relation_suite(poset: LabelledPoset):
    """All defining-relation instances of the poset, as named operator
    expression pairs ready for check_relation."""
    rels = []

    def w(*gens):
        return [(Fraction(1), list(gens))]

    def minus(expr1, expr2):
        return expr1 + [(-c, word) for c, word in expr2]

    for p in poset.elements:
        covers = lower_covers(poset, p)
        k = len(covers)
        for q in covers:
            a, ab = ("alpha", p, q), ("alphabar", p, q)
            b, bb = ("beta", p, q), ("betabar", p, q)
            e, epq = ("e", p), ("epq", p, q)
            eq = ("e", q)
            rels.append((f"A.3a[{p},{q}]", w(a, e), w(a)))
            rels.append((f"A.3b[{p},{q}]", minus(w(e, a), w(epq, a)), w(a)))
            for lam, slam in ((t_poly(1), 1), (t_poly(2), 2)):
                shifted = RatFunc(sigma_p_poly(lam, k))
                rels.append(
                    (
                        f"A.8[{p},{q},t{slam}]",
                        w(("scalar", RatFunc(lam)), b),
                        w(b, ("scalar", shifted)),
                    )
                )
                rels.append(
                    (
                        f"A.16[{p},{q},t{slam}]",
                        w(bb, ("scalar", RatFunc(lam))),
                        w(("scalar", shifted), bb),
                    )
                )
            rels.append((f"A.10a[{p},{q}]", w(epq, b), w(b)))
            rels.append((f"A.10b[{p},{q}]", w(b), w(b, eq)))
            rels.append((f"A.13a[{p},{q}]", w(e, ab), w(ab)))
            rels.append((f"A.13b[{p},{q}]", w(ab), minus(w(ab, e), w(ab, epq))))
            rels.append((f"A.13c[{p},{q}]", w(ab, a), w(e)))
            rels.append((f"A.13d[{p},{q}]", w(a, ab), minus(w(e), w(epq))))
            rels.append((f"A.14a[{p},{q}]", w(eq, bb), w(bb)))
            rels.append((f"A.14b[{p},{q}]", w(bb), w(bb, epq)))
            rels.append((f"A.14c[{p},{q}]", w(bb, b), w(eq)))
            rels.append((f"A.14d[{p},{q}]", w(b, bb), w(epq)))
        for q, q2 in itertools.permutations(covers, 2):
            a, a2 = ("alpha", p, q), ("alpha", p, q2)
            ab, ab2 = ("alphabar", p, q), ("alphabar", p, q2)
            b, bb = ("beta", p, q), ("betabar", p, q)
            epq2 = ("epq", p, q2)
            j = poset.label_index(p, q)
            ell = poset.label_index(p, q2)
            tw = ("scalar", RatFunc(t_poly(sigma_j_index(k, j, ell))))
            twinv = ("scalar", RatFunc(t_poly(sigma_j_index(k, j, ell), -1)))
            rels.append((f"A.4[{p},{q},{q2}]", w(a, epq2), w(epq2, a)))
            rels.append((f"A.5[{p},{q},{q2}]", w(a, a2), w(a2, a)))
            rels.append((f"A.9[{p},{q2},{q}]", w(a2, b), w(b, tw)))
            rels.append((f"A.15a[{p},{q},{q2}]", w(epq2, ab), w(ab, epq2)))
            rels.append((f"A.15b[{p},{q},{q2}]", w(ab, ab2), w(ab2, ab)))
            rels.append((f"A.17[{p},{q},{q2}]", w(bb, a2), w(tw, bb)))
            rels.append((f"A.18[{p},{q},{q2}]", w(twinv, bb), w(bb, ab2)))
    return rels


def run_relation_suite(poset, maxdeg: int = 3):
    """Verdict list for every relation instance over the poset, with the
    offending sample vector when a relation fails."""
    space = build_space(poset)
    samples = sample_vectors(space, maxdeg)
    results = []
    for name, lhs, rhs in relation_suite(poset):
        bad = check_relation(space, lhs, rhs, samples)
        entry = {"relation": name, "ok": bad is None, "sample_degree": maxdeg}
        if bad is not None:
            v, left, right = bad
            entry["counterexample"] = {
                "vector": repr(v),
                "lhs": repr(left),
                "rhs": repr(right),
            }
        results.append(entry)
    return results


# ---------------------------------------------------------------------------
# the localized-idempotent identities at truncation


def _factor_bottom(f: SigmaPoly, poset, q):
    """Split f = f0 + x_q f1 + ... and factor f0 = w * f0' with w the
    monomial content of f0 in the other cover variables."""
    p = f.vertex
    xq = ("x", q)
    buckets = f.poly.split_by(xq)
    f0 = buckets.get(0, Poly())
    if f0.is_zero():
        raise AlgebraError("bottom coefficient vanishes (valuation gate)")
    others = [("x", q2) for q2 in lower_covers(poset, p) if q2 != q]
    w = {var: m for var in others if (m := f0.degree_span(var)[0]) > 0}
    f0p = f0 * Poly({tuple((var, -m) for var, m in w.items()): 1})
    rest = {b: part for b, part in buckets.items() if b > 0}
    return f0, w, SigmaPoly(p, f0p), rest


def _window_walk(space, f: SigmaPoly, q, depth, images):
    """The identities' walk over the degree-2 samples, with images(v, f0p,
    wbar, g) = (lhs, *others) for f = w f0' + x_q f1 + ...; a residual lhs -
    other passes when it sits at f's vertex with every coefficient's least
    slot degree above the exact window, depth - deg_j f."""
    P = space.poset
    p = f.vertex
    _, wmono, f0p, rest = _factor_bottom(f, P, q)
    wbar = [("alphabar", p, var[1]) for var, m in sorted(wmono.items()) for _ in range(m)]
    g = SigmaPoly(p, -sum((part * Poly.var(("x", q), b - 1) for b, part in rest.items()), Poly()))
    degrees = {j: f.degree_at(("x", c)) for j, c in enumerate(lower_covers(P, p), 1)}

    def above_window(lhs, other):
        for path, c in (lhs - other).coeffs.items():
            root, j = path[0]
            if root != p or c.num.degree_span(zvar(p, j))[0] <= depth - degrees[j]:
                return False
        return True

    return _first_disagreement(space, sample_vectors(space, 2), lambda v: images(v, f0p, wbar, g), above_window)


def check_corner_inverse_identity(space, f: SigmaPoly, q, depth):
    """e(p,q) f^{-1} = (f0')^{-1} wbar e(p,q) = e(p,q) (f0')^{-1} wbar,
    with truncated inverses; the residual must sit above the exact window.
    Returns None if every sample agrees on the window, else a triple."""
    epq = ("epq", f.vertex, q)

    def images(v, f0p, wbar, _):
        return (
            invert_sigma(space, f, act(space, epq, v), depth),
            act_word(space, wbar + [epq], invert_sigma(space, f0p, v, depth)),
            act_word(space, wbar, invert_sigma(space, f0p, act(space, epq, v), depth)),
        )

    return _window_walk(space, f, q, depth, images)


def check_alphabar_inverse_identity(space, f: SigmaPoly, q, depth):
    """alphabar_q f^{-1} = f^{-1} alphabar_q + f^{-1} (f0')^{-1} g wbar e(p,q)
    with g = -(f1 + x_q f2 + ...), at truncation."""
    epq, ab = ("epq", f.vertex, q), ("alphabar", f.vertex, q)

    def images(v, f0p, wbar, g):
        lhs = invert_sigma(space, f, act(space, ab, v), depth)
        inv = invert_sigma(space, f, v, depth)
        t2 = act_word(space, wbar + [epq], act_sigma(space, g, invert_sigma(space, f0p, inv, depth)))
        return lhs, act(space, ab, inv) + t2

    return _window_walk(space, f, q, depth, images)
