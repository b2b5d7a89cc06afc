"""Finitely generated primitive monoids M(P, rel).

A primitive monoid is presented by its primes P and a transitive
antisymmetric relation rel, with defining relations p = p + q whenever
(q, p) is in rel; a diagonal pair (q, q) makes q regular (q = 2q).  Elements
are kept in a canonical reduced form: absorbed primes are dropped and
regular primes carry coefficient one.  The natural tuple of counting maps
(one per prime, values in Z+ together with infinity) is an embedding and is
used as a cross-check on equality throughout the tests.

Verifiers (refinement by checked construction with a complete search as
fallback, separativity, a bounded congruence oracle) live here too; every
search bound is an explicit parameter.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from .poset import LabelledPoset, _automorphisms, _natural_relation, _order_masks, relation_iso

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
        for q, p in self.rel:
            for p2, r in self.rel:
                if p2 == p and (q, r) not in self.rel:
                    raise MonoidError(f"relation not transitive: ({q!r},{p!r}),({p!r},{r!r})")


def unchecked_pair(primes, rel) -> PrimePair:
    """Build a PrimePair skipping validation (corrupted inputs for tests)."""
    pp = object.__new__(PrimePair)
    object.__setattr__(pp, "primes", tuple(primes))
    object.__setattr__(pp, "rel", frozenset(rel))
    return pp


@dataclass(frozen=True)
class MonElem:
    """Reduced word of a primitive monoid: sorted (prime, coeff>0) pairs."""

    coeffs: tuple[tuple[str, int], ...]

    def support(self):
        return tuple(p for p, _ in self.coeffs)

    def coeff(self, p):
        for q, n in self.coeffs:
            if q == p:
                return n
        return 0

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
    """Value of the counting-map tuple; entries are ints or INF."""

    values: tuple[tuple[str, int | float], ...]

    def __getitem__(self, p):
        return dict(self.values)[p]

    def add(self, other):
        d1, d2 = dict(self.values), dict(other.values)
        return PhiTuple(tuple(sorted((p, d1[p] + d2[p]) for p in d1)))

    def leq(self, other):
        d2 = dict(other.values)
        return all(v <= d2[p] for p, v in self.values)


class PrimitiveMonoid:
    """The abelian monoid presented by a PrimePair."""

    def __init__(self, pair: PrimePair):
        self.pair = pair
        self.primes = pair.primes
        # strictly_above[q] = primes p != q absorbing q
        self.strictly_above = {
            q: frozenset(p for q2, p in pair.rel if q2 == q and p != q) for q in pair.primes
        }
        self.regular = frozenset(q for q in pair.primes if (q, q) in pair.rel)
        self._add_cache = {}

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

    # -- elements ----------------------------------------------------------

    def reduce(self, word: dict) -> MonElem:
        """Canonical form: drop absorbed primes, clip regular coefficients."""
        for p in word:
            self.check_prime(p)
        support = {p for p, n in word.items() if n > 0}
        survivors = {p for p in support if not (self.strictly_above[p] & support)}
        coeffs = []
        for p in sorted(survivors):
            n = 1 if p in self.regular else word[p]
            coeffs.append((p, n))
        return MonElem(tuple(coeffs))

    def gen(self, p) -> MonElem:
        return self.reduce({p: 1})

    def add(self, x: MonElem, y: MonElem) -> MonElem:
        key = (x.coeffs, y.coeffs)
        hit = self._add_cache.get(key)
        if hit is None:
            merged = x.as_dict()
            for p, n in y.coeffs:
                merged[p] = merged.get(p, 0) + n
            hit = self.reduce(merged)
            self._add_cache[key] = hit
        return hit

    def equal(self, x: MonElem, y: MonElem) -> bool:
        return x.coeffs == y.coeffs

    def leq(self, x: MonElem, y: MonElem, bound: int | None = None) -> bool:
        """Algebraic pre-order: some z with x + z = y, found by bounded search.

        z ranges over elements supported below y's support with per-prime
        coefficient at most (max coefficient of y) + 1, which suffices for
        free primes (absorbed coordinates never need more than one copy).
        """
        if bound is None:
            bound = max([n for _, n in y.coeffs], default=0) + 1
        prime_pool = set()
        for p, _ in y.coeffs:
            prime_pool.add(p)
            prime_pool |= {q for q in self.primes if p in self.strictly_above[q] or (q == p)}
        pool = sorted(prime_pool)
        for combo in itertools.product(range(bound + 1), repeat=len(pool)):
            z = dict(zip(pool, combo))
            if self.add(x, self.reduce(z)) == y:
                return True
        return False

    def phi(self, x: MonElem) -> PhiTuple:
        """The counting-map tuple of a reduced element."""
        supp = set(x.support())
        vals = []
        for g in self.primes:
            absorbed = any(q in self.strictly_above[g] for q in supp)
            if absorbed or (g in supp and g in self.regular):
                vals.append((g, INF))
            elif g in supp:
                vals.append((g, x.coeff(g)))
            else:
                vals.append((g, 0))
        return PhiTuple(tuple(sorted(vals)))

    def phi_bruteforce(self, g, x: MonElem, nmax=6, zbound=3):
        """sup{n <= nmax : n*g <= x} computed by the definition (test oracle)."""
        best = 0
        for n in range(1, nmax + 1):
            if self.leq(self.reduce({g: n}), x, bound=zbound):
                best = n
            else:
                return best
        return INF

    # -- enumeration -------------------------------------------------------

    def elements(self, max_size: int):
        """All reduced elements with total coefficient size <= max_size."""
        supports = []
        for k in range(len(self.primes) + 1):
            for combo in itertools.combinations(self.primes, k):
                s = set(combo)
                if all(not (self.strictly_above[p] & s) for p in combo):
                    supports.append(combo)
        out = []
        for supp in supports:
            ranges = []
            for p in supp:
                hi = 1 if p in self.regular else max_size
                ranges.append(range(1, hi + 1))
            for coeffs in itertools.product(*ranges):
                if sum(coeffs) <= max_size:
                    out.append(MonElem(tuple(zip(supp, coeffs))))
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
            below = {q for q in m.primes if p in m.strictly_above[q]}
            if not below <= self.prime_set:
                raise MonoidError(f"prime set not lower at {p!r}")

    def __contains__(self, x: MonElem):
        return set(x.support()) <= self.prime_set

    def elements(self, max_size):
        return [e for e in self.monoid.elements(max_size) if e in self]


def order_ideal(m: PrimitiveMonoid, a: MonElem) -> OrderIdeal:
    """The order-ideal generated by a: downward closure of its support."""
    closure = set(a.support())
    for p in a.support():
        closure |= {q for q in m.primes if p in m.strictly_above[q]}
    return OrderIdeal(m, frozenset(closure))


def ideal_from_lower_set(m: PrimitiveMonoid, prime_set) -> OrderIdeal:
    return OrderIdeal(m, frozenset(prime_set))


def quotient(m: PrimitiveMonoid, ideal: OrderIdeal):
    """The ideal quotient, with the projection on elements.

    The quotient prime pair is the restriction to the surviving primes; the
    projection restricts a reduced word and re-reduces.
    """
    survivors = tuple(p for p in m.primes if p not in ideal.prime_set)
    rel = frozenset((q, p) for q, p in m.pair.rel if q in set(survivors) and p in set(survivors))
    mq = PrimitiveMonoid(PrimePair(survivors, rel))

    def project(x: MonElem) -> MonElem:
        return mq.reduce({p: n for p, n in x.coeffs if p in set(survivors)})

    return mq, project


# ---------------------------------------------------------------------------
# verifiers


class _VecOps:
    """Coefficient-vector arithmetic for the verifiers.

    Reduction works on tuples aligned with the prime list, with absorber
    bitmasks; the absorber reach is the path closure, which coincides with
    the lower closure on valid pairs but stays sound on deliberately
    corrupted (non-transitive) relations.
    """

    def __init__(self, m: PrimitiveMonoid):
        self.m = m
        self.primes = m.primes
        n = len(m.primes)
        idx = {p: i for i, p in enumerate(m.primes)}
        self.absorbers = [0] * n
        for i, p in enumerate(m.primes):
            for q in m.strictly_above[p]:
                self.absorbers[i] |= 1 << idx[q]
        self.regular = [p in m.regular for p in m.primes]
        # reach[i] = bitmask of primes with an absorption path into prime i
        self.reach = []
        for i in range(n):
            mask = 1 << i
            frontier = [i]
            while frontier:
                j = frontier.pop()
                for k in range(n):
                    if not mask >> k & 1 and self.absorbers[k] >> j & 1:
                        mask |= 1 << k
                        frontier.append(k)
            self.reach.append(mask)
        self._add_cache = {}

    def reduce(self, vec):
        mask = 0
        for i, c in enumerate(vec):
            if c:
                mask |= 1 << i
        return tuple(
            (1 if self.regular[i] else c) if c and not (self.absorbers[i] & mask) else 0
            for i, c in enumerate(vec)
        )

    def add(self, u, v):
        key = (u, v)
        hit = self._add_cache.get(key)
        if hit is None:
            hit = self.reduce(tuple(a + b for a, b in zip(u, v)))
            self._add_cache[key] = hit
        return hit

    def to_vec(self, elem: MonElem):
        d = elem.as_dict()
        return tuple(d.get(p, 0) for p in self.primes)

    def to_elem(self, vec):
        return MonElem(tuple((p, c) for p, c in zip(self.primes, vec) if c))

    def support_reach(self, vec):
        mask = 0
        for i, c in enumerate(vec):
            if c:
                mask |= self.reach[i]
        return mask

    def candidates(self, caps, allowed_mask):
        """Reduced vectors supported inside the mask, coefficients capped
        (absorbed coordinates never need more than one copy)."""
        slots = [i for i in range(len(self.primes)) if allowed_mask >> i & 1]
        ranges = [range((1 if self.regular[i] else caps[i]) + 1) for i in slots]
        out = []
        for combo in itertools.product(*ranges):
            vec = [0] * len(self.primes)
            for i, c in zip(slots, combo):
                vec[i] = c
            vec = tuple(vec)
            if self.reduce(vec) == vec:
                out.append(vec)
        return out


def _uncertified(ops: _VecOps, size_bound: int):
    """Yield, per sum group in sorted order, the equalities x1 + x2 = y1 + y2
    over elements of size <= size_bound whose constructed refinement fails
    its ``add`` check (see ``check_refinement``); settled groups are skipped."""
    n = len(ops.primes)
    elems = []
    phi = {}  # reduced vector -> dense phi vector, aligned with ops.primes
    for e in ops.m.elements(size_bound):
        v = ops.to_vec(e)
        elems.append(v)
        values = dict(ops.m.phi(e).values)
        phi[v] = tuple(values[p] for p in ops.primes)
    by_sum = {}
    for x1, x2 in itertools.product(elems, repeat=2):
        if x1 <= x2:
            by_sum.setdefault(ops.add(x1, x2), []).append((x1, x2))

    # top down: a prime has more absorbers than any prime above it
    walk = [
        (h, 1 << h, ops.absorbers[h], ops.regular[h])
        for h in sorted(range(n), key=lambda h: bin(ops.absorbers[h]).count("1"))
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

    add = ops.add
    for s in sorted(by_sum):
        pairs = by_sum[s]
        todo = []
        for i, (x1, x2) in enumerate(pairs):
            for y1, y2 in pairs[i + 1 :]:
                z11, z12, z21, z22 = construct(x1, x2, y1, y2)
                if (
                    add(z11, z12) != x1
                    or add(z21, z22) != x2
                    or add(z11, z21) != y1
                    or add(z12, z22) != y2
                ):
                    todo.append((x1, x2, y1, y2))
        if todo:
            yield todo


def check_refinement(m: PrimitiveMonoid, size_bound: int):
    """Check every x1 + x2 = y1 + y2 over elements of size <= size_bound for
    a 2x2 refinement; returns None (ok) or the first counterexample.

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

    A sum group with an equality the construction does not settle (only
    possible on a relation that is not a valid pair) goes to the complete
    search, a decomposition table over a capped candidate pool; it finds
    the genuine counterexamples.  Row and column swaps act on refinement
    matrices, so only ordered representatives of each equality are checked.
    """
    ops = _VecOps(m)
    n = len(m.primes)
    for todo in _uncertified(ops, size_bound):
        members = {v for quad in todo for v in quad}
        caps = [max([1] + [v[i] for v in members]) for i in range(n)]
        mask = 0
        for v in members:
            mask |= ops.support_reach(v)
        pool = ops.candidates(caps, mask)
        decomp = {}
        complete = {}
        for u in pool:
            for v in pool:
                t = ops.add(u, v)
                if t in members:
                    decomp.setdefault(t, []).append((u, v))
                    complete.setdefault((t, u), []).append(v)
        for x1, x2, y1, y2 in todo:
            found = False
            for z11, z12 in decomp.get(x1, ()):
                for z21 in complete.get((y1, z11), ()):
                    for z22 in complete.get((y2, z12), ()):
                        if ops.add(z21, z22) == x2:
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                return tuple(ops.to_elem(v) for v in (x1, x2, y1, y2))
    return None


def check_separative(m: PrimitiveMonoid, bound: int):
    """a+a = a+b = b+b implies a = b; None if ok, else the witness (a, b).

    A witness pair shares a+a = b+b, so b is only sought among the elements
    with the same double as a, in element order: the first witness is the
    one a scan over all ordered pairs would return.
    """
    elems = m.elements(bound)
    doubles = [m.add(a, a) for a in elems]
    by_double = {}
    for b, bb in zip(elems, doubles):
        by_double.setdefault(bb, []).append(b)
    for a, aa in zip(elems, doubles):
        for b in by_double[aa]:
            if b != a and m.add(a, b) == aa:
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
    by_free = {}  # free primes -> {their coefficients: elements}
    for a in elems:
        aa = m.add(a, a)
        free = tuple(p for p, _ in aa.coeffs if p not in m.regular)
        if free not in by_free:
            groups = by_free[free] = {}
            for b in elems:
                groups.setdefault(tuple(b.coeff(p) for p in free), []).append(b)
        for b in by_free[free].get(tuple(aa.coeff(p) - a.coeff(p) for p in free), ()):
            if b != a and m.add(a, b) == aa:
                return (a, b)
    return None


def apw_graph_shape(m: PrimitiveMonoid) -> bool:
    """True iff every free prime has at most one free lower cover.

    Lower covers are taken in the strict order induced on the primes by the
    absorption relation.
    """
    above = m.strictly_above  # p -> primes strictly above p

    def lower_covers_of(p):
        below = {q for q in m.primes if p in above[q]}
        return {q for q in below if not any(r != q and r in above[q] for r in below)}

    for p in m.primes:
        if not m.is_free(p):
            continue
        free_covers = [q for q in lower_covers_of(p) if m.is_free(q)]
        if len(free_covers) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# bounded congruence oracle


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
        words = [w for w in self._all_words(len(self.generators), bound)]
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

    @staticmethod
    def _all_words(k, bound):
        if k == 0:
            yield ()
            return
        for head in range(bound + 1):
            for rest in CongruenceOracle._all_words(k - 1, bound - head):
                yield (head,) + rest

    def _as_vec(self, word):
        vec = self._vec(dict(word), self._index)
        if sum(vec) > self.bound:
            raise MonoidError(f"word exceeds oracle bound {self.bound}")
        return vec

    def equal(self, w1, w2) -> bool:
        return self._find(self._as_vec(w1)) == self._find(self._as_vec(w2))

    def classes(self):
        buckets = {}
        for w in self._all_words(len(self.generators), self.bound):
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


def pair_from_json(data) -> PrimePair:
    if isinstance(data, str):
        data = json.loads(data)
    return PrimePair(tuple(sorted(data["primes"])), frozenset(tuple(t) for t in data["rel"]))
