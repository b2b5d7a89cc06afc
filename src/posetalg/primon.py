"""Finitely generated primitive monoids M(P, rel).

A primitive monoid is presented by its primes P and a transitive
antisymmetric relation rel, with defining relations p = p + q whenever
(q, p) is in rel; a diagonal pair (q, q) makes q regular (q = 2q).  Elements
are kept in a canonical reduced form: absorbed primes are dropped and
regular primes carry coefficient one.  The natural tuple of counting maps
(one per prime, values in Z+ together with infinity) is an embedding and is
used as a cross-check on equality throughout the tests.

Verifiers (refinement by checked construction, separativity, a bounded
congruence oracle) live here too; every search bound is an explicit
parameter.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

from .poset import LabelledPoset, compute_lower_covers, relation_iso
from .poset import _automorphisms, _natural_relation, _order_masks

INF = float("inf")


class MonoidError(ValueError):
    pass


@dataclass(frozen=True)
class PrimePair:
    """A finite set of primes with a transitive antisymmetric relation.

    ``rel`` holds pairs (q, p) meaning q is absorbed by p; (q, q) marks a
    regular prime.
    """

    primes: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def __post_init__(self):
        ps = set(self.primes)
        if len(self.primes) != len(ps):
            raise MonoidError("duplicate primes")
        for q, p in self.rel:
            if q not in ps or p not in ps:
                raise MonoidError(f"relation pair ({q!r}, {p!r}) outside the prime set")
            if q != p and (p, q) in self.rel:
                raise MonoidError(f"antisymmetry violated on {q!r}, {p!r}")
        above = {}
        for q, p in self.rel:
            above.setdefault(q, set()).add(p)
        for q, p in self.rel:
            for r in above.get(p, ()):
                if r not in above[q]:
                    raise MonoidError(f"relation not transitive: ({q!r},{p!r}),({p!r},{r!r})")


def _rel_image(rel, pmap) -> frozenset:
    """The image of a relation under a prime map (prime -> prime or None),
    dropping every pair with an end the map omits or sends to None."""
    pairs = ((pmap.get(q), pmap.get(p)) for q, p in rel)
    return frozenset((q, p) for q, p in pairs if q is not None and p is not None)


@dataclass(frozen=True)
class MonElem:
    """Reduced word of a primitive monoid: sorted (prime, coeff>0) pairs."""

    coeffs: tuple[tuple[str, int], ...]

    def support(self):
        return tuple(p for p, _ in self.coeffs)

    def size(self):
        return sum(n for _, n in self.coeffs)

    def is_zero(self):
        return not self.coeffs

    def as_dict(self):
        return dict(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(p if n == 1 else f"{n}*{p}" for p, n in self.coeffs)


ZERO = MonElem(())


@dataclass(frozen=True)
class PhiTuple:
    """Value of the counting-map tuple; entries are ints or INF, by prime name.

    Tuples of one monoid are aligned, so ``add`` and ``leq`` work entry by
    entry."""

    values: tuple[tuple[str, int | float], ...]

    def __getitem__(self, p):
        for q, v in self.values:
            if q == p:
                return v
        raise KeyError(p)

    def add(self, other):
        return PhiTuple(tuple((p, v + w) for (p, v), (_, w) in zip(self.values, other.values)))

    def leq(self, other):
        return all(v <= w for (_, v), (_, w) in zip(self.values, other.values))


class PrimitiveMonoid:
    """The abelian monoid presented by a PrimePair.

    Elements live in one dense core: coefficient vectors over the primes
    sorted by name, reduced with one absorber bitmask per prime.  ``_elem``
    is the only way from a vector to the public MonElem, so every element
    lists its primes by name.
    """

    def __init__(self, pair: PrimePair):
        self.pair = pair
        self.primes = pair.primes
        above = {q: set() for q in pair.primes}
        below = {q: set() for q in pair.primes}
        for q, p in pair.rel:
            if q != p:
                above[q].add(p)
                below[p].add(q)
        # strictly_above[q] = primes p != q absorbing q; strictly_below[p]
        # = primes q != p that p absorbs
        self.strictly_above = {q: frozenset(ps) for q, ps in above.items()}
        self.strictly_below = {p: frozenset(qs) for p, qs in below.items()}
        self.regular = frozenset(q for q in pair.primes if (q, q) in pair.rel)
        self._names = tuple(sorted(pair.primes))
        self._bits = tuple(1 << i for i in range(len(self._names)))
        self._index = {p: i for i, p in enumerate(self._names)}
        self._absorbers = tuple(sum(1 << self._index[q] for q in self.strictly_above[p]) for p in self._names)
        self._regular_mask = sum(1 << self._index[p] for p in self.regular)

    def __repr__(self):
        return f"PrimitiveMonoid({len(self.primes)} primes)"

    def check_prime(self, p):
        if p not in self.strictly_above:
            raise MonoidError(f"unknown prime {p!r}")

    def is_free(self, p) -> bool:
        self.check_prime(p)
        return p not in self.regular

    def is_regular(self, p) -> bool:
        return not self.is_free(p)

    # -- the dense core ----------------------------------------------------

    def _vec(self, x: MonElem) -> tuple:
        """The coefficient vector of an element, summed by prime name."""
        vec = [0] * len(self._names)
        for p, n in x.coeffs:
            try:
                vec[self._index[p]] += n
            except KeyError:
                self.check_prime(p)
        return tuple(vec)

    def _support(self, vec) -> int:
        support = 0
        for bit, c in zip(self._bits, vec):
            if c:
                support |= bit
        return support

    def _reduced(self, vec) -> tuple:
        """Canonical form: absorbed coordinates to 0, regular ones to 1."""
        support = self._support(vec)
        regular = self._regular_mask
        return tuple(
            [
                0 if not c or up & support else (1 if bit & regular else c)
                for bit, up, c in zip(self._bits, self._absorbers, vec)
            ]
        )

    def _add_vec(self, u, v) -> tuple:
        return self._reduced(tuple(map(operator.add, u, v)))

    def _phi_vec(self, vec) -> tuple:
        """The counting maps of a vector, one per index."""
        support = self._support(vec)
        infinite = self._regular_mask & support
        return tuple(
            [
                INF if up & support or bit & infinite else c
                for bit, up, c in zip(self._bits, self._absorbers, vec)
            ]
        )

    def _elem(self, vec) -> MonElem:
        return MonElem(tuple([(p, c) for p, c in zip(self._names, vec) if c]))

    # -- elements ----------------------------------------------------------

    def reduce(self, word: dict) -> MonElem:
        """Canonical form: drop absorbed primes, clip regular coefficients."""
        vec = [0] * len(self._names)
        for p, n in word.items():
            self.check_prime(p)
            if n > 0:
                vec[self._index[p]] = n
        return self._elem(self._reduced(vec))

    def gen(self, p) -> MonElem:
        return self.reduce({p: 1})

    def add(self, x: MonElem, y: MonElem) -> MonElem:
        return self._elem(self._add_vec(self._vec(x), self._vec(y)))

    def phi(self, x: MonElem) -> PhiTuple:
        """The counting-map tuple of an element."""
        return PhiTuple(tuple(zip(self._names, self._phi_vec(self._vec(x)))))

    # -- enumeration -------------------------------------------------------

    def elements(self, max_size: int):
        """All reduced elements with total coefficient size <= max_size, by
        size and then coefficients."""
        out = []
        for support in range(1 << len(self._names)):
            slots = [i for i, bit in enumerate(self._bits) if bit & support]
            if any(self._absorbers[i] & support for i in slots):
                continue
            names = [self._names[i] for i in slots]
            ranges = [range(1, 2 if self._bits[i] & self._regular_mask else max_size + 1) for i in slots]
            out += (MonElem(tuple(zip(names, c))) for c in itertools.product(*ranges) if sum(c) <= max_size)
        out.sort(key=lambda e: (e.size(), e.coeffs))
        return out


def from_pair(pair: PrimePair) -> PrimitiveMonoid:
    return PrimitiveMonoid(pair)


def from_poset(poset: LabelledPoset) -> PrimitiveMonoid:
    """All primes free: the relation is the strict order of the poset."""
    rel = frozenset((q, p) for p in poset.elements for q in poset.strict[p])
    return PrimitiveMonoid(PrimePair(poset.elements, rel))


# ---------------------------------------------------------------------------
# order-ideals and quotients


@dataclass(frozen=True)
class OrderIdeal:
    """Order-ideal of a primitive monoid: the elements supported in a
    relation-lower set of primes."""

    monoid: PrimitiveMonoid
    prime_set: frozenset[str]

    def __post_init__(self):
        m = self.monoid
        for p in self.prime_set:
            m.check_prime(p)
            if not m.strictly_below[p] <= self.prime_set:
                raise MonoidError(f"prime set not lower at {p!r}")

    def __contains__(self, x: MonElem):
        return set(x.support()) <= self.prime_set

    def elements(self, max_size):
        return [e for e in self.monoid.elements(max_size) if e in self]


def order_ideal(m: PrimitiveMonoid, a: MonElem) -> OrderIdeal:
    """The order-ideal generated by a: downward closure of its support."""
    closure = set(a.support()).union(*(m.strictly_below.get(p, ()) for p in a.support()))
    return OrderIdeal(m, frozenset(closure))


def ideal_from_lower_set(m: PrimitiveMonoid, prime_set) -> OrderIdeal:
    return OrderIdeal(m, frozenset(prime_set))


def quotient(m: PrimitiveMonoid, ideal: OrderIdeal):
    """The ideal quotient, with the projection on elements.

    The quotient prime pair is the restriction to the surviving primes; the
    projection restricts a reduced word and re-reduces.
    """
    survivors = tuple(p for p in m.primes if p not in ideal.prime_set)
    keep = {p: p for p in survivors}
    mq = PrimitiveMonoid(PrimePair(survivors, _rel_image(m.pair.rel, keep)))

    def project(x: MonElem) -> MonElem:
        return mq.reduce({p: n for p, n in x.coeffs if p in keep})

    return mq, project


# ---------------------------------------------------------------------------
# verifiers


def check_refinement(m: PrimitiveMonoid, size_bound: int):
    """Check every x1 + x2 = y1 + y2 over elements of size <= size_bound for
    a 2x2 refinement; returns None once every equality is certified.

    Each equality gets a refinement matrix (z_ij) by construction, in phi
    coordinates, and the matrix counts only once ``add`` confirms its four
    sums z_i1 + z_i2 = x_i and z_1j + z_2j = y_j: the checked matrix is the
    certificate, so no verdict rests on phi being an embedding.  The primes
    are walked from the top down (a prime has more absorbers than any prime
    above it), and at prime h:

    - z_ij is forced to infinity iff it is nonzero at some prime above h;
    - at a regular h an unforced entry is infinite only where its row and
      its column are both infinite and one of them still lacks an infinite
      entry, else 0;
    - at a free h the unforced entries solve the finite 2x2 transport
      problem by the north-west-corner rule: in the order z11, z12, z21,
      z22 each takes min(rest of its row, rest of its column), or 0 when
      both are infinite.

    On a valid prime pair every step is solvable.  Forcing agrees with the
    sums: if z_ij is nonzero at some g > h, so are x_i and y_j, hence both
    are infinite at h.  At a free h an infinite x_i is nonzero at some
    g > h, so one entry of row i is nonzero at g and forced at h; columns
    likewise.  The unforced entries then only have to meet the finite rows
    and columns; since x1 + x2 = y1 + y2 at h, an infinite row implies an
    infinite column, and in each case the corner rule meets them.  Every
    entry is infinite at h whenever it is nonzero above h, and at a free h
    only then, so it lies in the image of phi: its reduced element keeps
    the unforced nonzero values, with coefficient 1 at regular primes.

    So a matrix that fails its check means the relation is not a valid
    pair (a PrimePair cannot hold one), and raises MonoidError naming the
    equality; no search follows.  Row and column swaps act on refinement
    matrices, so only ordered representatives of each equality are
    checked.  Sums are memoised for the call only.
    """
    n = len(m.primes)
    memo = {}

    def add(u, v):
        hit = memo.get((u, v))
        if hit is None:
            hit = memo[u, v] = m._add_vec(u, v)
        return hit

    elems = [m._reduced(m._vec(e)) for e in m.elements(size_bound)]
    phi = {v: m._phi_vec(v) for v in elems}  # aligned with the core's indices
    by_sum = {}
    for x1, x2 in itertools.product(elems, repeat=2):
        if x1 <= x2:
            by_sum.setdefault(add(x1, x2), []).append((x1, x2))

    # top down: a prime has more absorbers than any prime above it
    up = m._absorbers
    walk = [
        (h, 1 << h, up[h], m._regular_mask >> h & 1)
        for h in sorted(range(n), key=lambda h: bin(up[h]).count("1"))
    ]

    def construct(x1, x2, y1, y2):
        """The refinement matrix as reduced vectors z11, z12, z21, z22."""
        p1, p2, q1, q2 = phi[x1], phi[x2], phi[y1], phi[y2]
        z11, z12, z21, z22 = [0] * n, [0] * n, [0] * n, [0] * n
        nz11 = nz12 = nz21 = nz22 = 0  # primes where each entry is nonzero
        for h, bit, up, regular in walk:
            a1, a2, b1, b2 = p1[h], p2[h], q1[h], q2[h]
            f11, f12, f21, f22 = nz11 & up, nz12 & up, nz21 & up, nz22 & up
            if regular:
                r1, r2 = f11 or f12, f21 or f22  # row holds an infinite entry
                c1, c2 = f11 or f21, f12 or f22  # column likewise
                if not f11 and a1 == b1 == INF and not (r1 and c1):
                    z11[h] = 1
                    f11 = r1 = c1 = True
                if not f12 and a1 == b2 == INF and not (r1 and c2):
                    z12[h] = 1
                    f12 = r1 = c2 = True
                if not f21 and a2 == b1 == INF and not (r2 and c1):
                    z21[h] = 1
                    f21 = r2 = c1 = True
                if not f22 and a2 == b2 == INF and not (r2 and c2):
                    z22[h] = 1
                    f22 = True
            else:
                if not f11:
                    v = a1 if a1 < b1 else b1
                    if 0 < v < INF:
                        z11[h] = f11 = v
                        a1 -= v
                        b1 -= v
                if not f12:
                    v = a1 if a1 < b2 else b2
                    if 0 < v < INF:
                        z12[h] = f12 = v
                        b2 -= v
                if not f21:
                    v = a2 if a2 < b1 else b1
                    if 0 < v < INF:
                        z21[h] = f21 = v
                        a2 -= v
                if not f22:
                    v = a2 if a2 < b2 else b2
                    if 0 < v < INF:
                        z22[h] = f22 = v
            # from here f_ij means "z_ij is nonzero at h"
            if f11:
                nz11 |= bit
            if f12:
                nz12 |= bit
            if f21:
                nz21 |= bit
            if f22:
                nz22 |= bit
        return tuple(z11), tuple(z12), tuple(z21), tuple(z22)

    def term(x):
        return f"({x})" if len(x.coeffs) > 1 else str(x)

    for pairs in by_sum.values():
        for i, (x1, x2) in enumerate(pairs):
            for y1, y2 in pairs[i + 1 :]:
                z11, z12, z21, z22 = construct(x1, x2, y1, y2)
                if (
                    add(z11, z12) != x1
                    or add(z21, z22) != x2
                    or add(z11, z21) != y1
                    or add(z12, z22) != y2
                ):
                    x1, x2, y1, y2 = (term(m._elem(v)) for v in (x1, x2, y1, y2))
                    raise MonoidError(
                        f"the constructed refinement of {x1} + {x2} = {y1} + {y2} fails its check: "
                        "the prime pair is not valid"
                    )
    return None


def check_separative(m: PrimitiveMonoid, bound: int):
    """a+a = a+b = b+b implies a = b; None if ok, else the witness (a, b).

    A witness pair shares a+a = b+b, so b is only sought among the elements
    with the same double as a, in element order: the first witness is the
    one a scan over all ordered pairs would return.
    """
    elems = m.elements(bound)
    vecs = [m._vec(a) for a in elems]
    doubles = [m._add_vec(v, v) for v in vecs]
    by_double = {}
    for b, vb, bb in zip(elems, vecs, doubles):
        by_double.setdefault(bb, []).append((b, vb))
    for a, va, aa in zip(elems, vecs, doubles):
        for b, vb in by_double[aa]:
            if b != a and m._add_vec(va, vb) == aa:
                return (a, b)
    return None


def check_strongly_separative(m: PrimitiveMonoid, bound: int):
    """a+a = a+b implies a = b; None if ok, else the witness (a, b).

    A free prime p that survives in a + b has coefficient a_p + b_p there,
    so a + b = a + a forces b_p = (a + a)_p - a_p at every free prime p of
    a + a.  For each a, b is only sought among the elements that meet this,
    in element order: the first witness is the one a scan over all ordered
    pairs would return.
    """
    elems = m.elements(bound)
    vecs = [m._vec(a) for a in elems]
    by_free = {}  # free indices -> {their coefficients: elements}
    for a, va in zip(elems, vecs):
        aa = m._add_vec(va, va)
        free = tuple(i for i, c in enumerate(aa) if c and not m._regular_mask >> i & 1)
        if free not in by_free:
            groups = by_free[free] = {}
            for b, vb in zip(elems, vecs):
                groups.setdefault(tuple(vb[i] for i in free), []).append((b, vb))
        for b, vb in by_free[free].get(tuple(aa[i] - va[i] for i in free), ()):
            if b != a and m._add_vec(va, vb) == aa:
                return (a, b)
    return None


def apw_graph_shape(m: PrimitiveMonoid) -> bool:
    """True iff every free prime has at most one free lower cover.

    Lower covers are taken in the strict order induced on the primes by the
    absorption relation.
    """
    for p in m.primes:
        if not m.is_free(p):
            continue
        free_covers = [q for q in compute_lower_covers(m.strictly_below, p) if m.is_free(q)]
        if len(free_covers) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# bounded congruence oracle


def _bounded_words(k, bound):
    """All exponent vectors of length k and total degree <= bound, in
    lexicographic order."""
    if k == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in _bounded_words(k - 1, bound - head):
            yield (head,) + rest


class CongruenceOracle:
    """Equality decider for a commutative-monoid presentation, restricted to
    words of total degree <= bound.

    The congruence closure is computed by union-find over the bounded word
    set: every rewrite w = x + u ~ x + v with both sides inside the bound is
    an edge.  Equality verdicts are sound; inequality only means "not equal
    within the bound".
    """

    def __init__(self, generators, relations, bound: int):
        self.generators = tuple(generators)
        self.bound = bound
        index = {g: i for i, g in enumerate(self.generators)}
        rels = []
        for u, v in relations:
            rels.append((self._vec(u, index), self._vec(v, index)))
        words = list(_bounded_words(len(self.generators), bound))
        parent = {w: w for w in words}

        def find(w):
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for w in words:
            for u, v in rels:
                if all(wi >= ui for wi, ui in zip(w, u)):
                    x = tuple(wi - ui for wi, ui in zip(w, u))
                    img = tuple(xi + vi for xi, vi in zip(x, v))
                    if sum(img) <= bound:
                        union(w, img)
        self._find = find
        self._index = index

    @staticmethod
    def _vec(word, index):
        vec = [0] * len(index)
        for g, n in dict(word).items():
            vec[index[g]] += n
        return tuple(vec)

    def _as_vec(self, word):
        vec = self._vec(dict(word), self._index)
        if sum(vec) > self.bound:
            raise MonoidError(f"word exceeds oracle bound {self.bound}")
        return vec

    def equal(self, w1, w2) -> bool:
        return self._find(self._as_vec(w1)) == self._find(self._as_vec(w2))

    def classes(self):
        buckets = {}
        for w in _bounded_words(len(self.generators), self.bound):
            buckets.setdefault(self._find(w), []).append(w)
        return sorted(buckets.values())


def congruence_oracle(generators, relations, bound: int) -> CongruenceOracle:
    return CongruenceOracle(generators, relations, bound)


def presentation_of(m: PrimitiveMonoid):
    """Generators and defining relations p = p + q of a primitive monoid."""
    rels = []
    for q, p in sorted(m.pair.rel):
        if q == p:
            rels.append(({p: 1}, {p: 2}))
        else:
            rels.append(({p: 1}, {p: 1, q: 1}))
    return list(m.primes), rels


def monoid_iso(m1: PrimitiveMonoid, m2: PrimitiveMonoid):
    """Isomorphism as a prime bijection, or None; reduces to the pair search."""
    return relation_iso(m1.pair.primes, m1.pair.rel, m2.pair.primes, m2.pair.rel)


# ---------------------------------------------------------------------------
# prime-pair catalogue (small sizes, for the verification suites)


def enumerate_prime_pairs(max_primes: int) -> list[PrimePair]:
    """All prime pairs with <= max_primes primes up to isomorphism.

    A pair is a strict poset on primes g0..g{n-1} plus a subset of regular
    primes.  Its strict part is the poset ``enumerate_posets(n)`` gives for
    its class (least relation mask over the natural labellings); its
    regular subset, as a bitmask over the indices, is the least of its
    orbit under the automorphisms of that poset.  The pairs come out by
    number of primes, then in poset order, then by regular-subset mask.
    """
    out = []
    for n, masks in enumerate(_order_masks(max_primes)):
        ids = [f"g{i}" for i in range(n)]
        for mask in masks:
            rel = _natural_relation(n, mask)
            autos = _automorphisms(n, rel)
            seen = set()
            # ascending, so each orbit is first met at its least mask
            for regmask in range(1 << n):
                if regmask in seen:
                    continue
                seen.update(sum(1 << g[i] for i in range(n) if regmask >> i & 1) for g in autos)
                full = rel | {(i, i) for i in range(n) if regmask >> i & 1}
                out.append(PrimePair(tuple(ids), frozenset((ids[a], ids[b]) for a, b in full)))
    return out


def intro_mixed_pair() -> PrimePair:
    """q regular above p, which sits above the two incomparable a, b."""
    rel = {("q", "q"), ("p", "q"), ("a", "p"), ("b", "p"), ("a", "q"), ("b", "q")}
    return PrimePair(("a", "b", "p", "q"), frozenset(rel))


# ---------------------------------------------------------------------------
# JSON interface


def monoid_to_json(m: PrimitiveMonoid, elements=()):
    def phi_json(x):
        return {p: ("inf" if v == INF else v) for p, v in m.phi(x).values}

    return {
        "primes": list(m.primes),
        "rel": sorted([list(t) for t in m.pair.rel]),
        "free": {p: m.is_free(p) for p in m.primes},
        "phi": [{"element": str(x), "coeffs": x.as_dict(), "phi": phi_json(x)} for x in elements],
    }
