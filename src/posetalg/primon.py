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
parameter, a non-negative int, and the oracle's word count is capped by
ORACLE_WORD_LIMIT.
"""

from __future__ import annotations

import functools
import itertools
import numbers
import operator
from dataclasses import dataclass
from math import comb

from .poset import LabelledPoset, compute_lower_covers, relation_iso
from .poset import _automorphisms, _natural_relation, _order_masks, _reject_bare_string, _require_count

INF = float("inf")
ORACLE_WORD_LIMIT = 200_000  # words a CongruenceOracle may build


class MonoidError(ValueError):
    pass


class OracleLimitError(MonoidError):
    """A congruence oracle would need more words than ORACLE_WORD_LIMIT."""


def _count(n):
    """n as an int when it is an integral real number other than a bool,
    else None: a string, None or a list is not a count."""
    return int(n) if isinstance(n, numbers.Real) and not isinstance(n, bool) and not n % 1 else None


@dataclass(frozen=True)
class PrimePair:
    """A finite set of primes with a transitive antisymmetric relation.

    ``rel`` holds pairs (q, p) meaning q is absorbed by p; (q, q) marks a
    regular prime.  The constructor stores ``primes`` as a tuple and ``rel``
    as a frozenset, and raises MonoidError unless both are valid.
    """

    primes: tuple[str, ...]
    rel: frozenset[tuple[str, str]]

    def __post_init__(self):
        _reject_bare_string(self.primes, "primes", MonoidError)
        primes, rel = tuple(self.primes), tuple(self.rel)
        ps = set(primes)
        if len(primes) != len(ps):
            raise MonoidError("duplicate primes")
        for pair in rel:
            if not isinstance(pair, tuple) or len(pair) != 2:
                raise MonoidError(f"relation entry {pair!r} is not a pair")
            if not ps.issuperset(pair):
                raise MonoidError(f"relation pair {pair!r} outside the prime set")
        rel = frozenset(rel)
        above = {}
        for q, p in rel:
            if q != p and (p, q) in rel:
                raise MonoidError(f"antisymmetry violated on {q!r}, {p!r}")
            above.setdefault(q, set()).add(p)
        for q, p in rel:
            for r in above.get(p, ()):
                if r not in above[q]:
                    raise MonoidError(f"relation not transitive: ({q!r},{p!r}),({p!r},{r!r})")
        self.__dict__.update(primes=primes, rel=rel)

    @classmethod
    def _trusted(cls, primes, rel):
        """A pair from a tuple of distinct primes and a frozenset relation
        on them known to be transitive and antisymmetric; nothing is
        checked."""
        pair = object.__new__(cls)
        pair.__dict__.update(primes=primes, rel=rel)
        return pair


def _rel_image(rel, pmap) -> frozenset:
    """The image of a relation under a prime map (prime -> prime or None),
    dropping every pair with an end the map omits or sends to None."""
    pairs = ((pmap.get(q), pmap.get(p)) for q, p in rel)
    return frozenset((q, p) for q, p in pairs if q is not None and p is not None)


def map_elem(dst: PrimitiveMonoid, pmap: dict, x: MonElem) -> MonElem:
    """The image in dst of a reduced element under a prime map (prime ->
    prime or None), the element rule of _rel_image: a prime sent to None
    drops out, and a prime the map omits raises MonoidError naming it."""
    word = {}
    for p, n in x.coeffs:
        if p not in pmap:
            raise MonoidError(f"prime {p!r} is outside the prime map")
        q = pmap[p]
        if q is not None:
            word[q] = word.get(q, 0) + n
    return dst.reduce(word)


def _aligned(names, x, kind):
    """x's vector if x is a kind (MonElem or PhiTuple) over these prime
    names (this tuple or an equal one), else MonoidError."""
    if not isinstance(x, kind):
        raise MonoidError(f"expected a {kind.__name__}, got {type(x).__name__}")
    if x.names is names or x.names == names:
        return x.vec
    raise MonoidError("element of another monoid" if kind is MonElem else "counting tuples of different monoids")


@dataclass(frozen=True)
class MonElem:
    """Reduced element of a primitive monoid: its coefficient vector over
    the monoid's primes sorted by name, ``names``."""

    names: tuple[str, ...]
    vec: tuple[int, ...]

    @property
    def coeffs(self):  # the sorted (prime, coeff>0) pairs
        return tuple(itertools.compress(zip(self.names, self.vec), self.vec))

    def support(self):
        return tuple(itertools.compress(self.names, self.vec))

    def size(self):
        return sum(self.vec)

    def is_zero(self):
        return not any(self.vec)

    def as_dict(self):
        return dict(itertools.compress(zip(self.names, self.vec), self.vec))

    def __str__(self):
        if self.is_zero():
            return "0"
        return " + ".join(p if n == 1 else f"{n}*{p}" for p, n in self.coeffs)


@dataclass(frozen=True)
class PhiTuple:
    """Value of the counting-map tuple; entries are ints or INF, by prime name.

    Tuples of one monoid are aligned, so ``add`` and ``leq`` work entry by
    entry; they raise MonoidError on tuples of different prime names."""

    names: tuple[str, ...]
    vec: tuple[int | float, ...]

    @property
    def values(self):  # the (prime, value) pairs by prime name
        return tuple(zip(self.names, self.vec))

    def __getitem__(self, p):
        return dict(self.values)[p]

    def add(self, other):
        w = _aligned(self.names, other, PhiTuple)
        return PhiTuple(self.names, tuple(map(operator.add, self.vec, w)))

    def leq(self, other):
        w = _aligned(self.names, other, PhiTuple)
        return all(map(operator.le, self.vec, w))


class PrimitiveMonoid:
    """The abelian monoid presented by a PrimePair.

    An element is one dense vector: its coefficients over the primes
    sorted by name, reduced with one absorber bitmask per prime.  Every
    MonElem and PhiTuple of the monoid holds its name tuple, so ``add`` and
    ``phi`` read the vector of an element whose names are equal and raise
    MonoidError on one of another prime set.

    The constructor keeps only ``pair`` and ``primes``.  The order maps,
    ``regular`` and the dense core are each built on first use and then
    held as plain attributes, so a monoid that is only compared with
    ``monoid_iso``, which reads the pair, builds none of them.
    """

    def __init__(self, pair: PrimePair):
        self.pair = pair
        self.primes = pair.primes

    @functools.cached_property
    def strictly_above(self):
        """strictly_above[q] = primes p != q absorbing q."""
        above = {q: set() for q in self.primes}
        for q, p in self.pair.rel:
            if q != p:
                above[q].add(p)
        return {q: frozenset(ps) for q, ps in above.items()}

    @functools.cached_property
    def strictly_below(self):
        """strictly_below[p] = primes q != p that p absorbs."""
        below = {p: set() for p in self.primes}
        for q, p in self.pair.rel:
            if q != p:
                below[p].add(q)
        return {p: frozenset(qs) for p, qs in below.items()}

    @functools.cached_property
    def regular(self):
        return frozenset(q for q in self.primes if (q, q) in self.pair.rel)

    @functools.cached_property
    def _names(self):
        return tuple(sorted(self.primes))

    @functools.cached_property
    def _bits(self):
        return tuple(1 << i for i in range(len(self._names)))

    @functools.cached_property
    def _index(self):
        return {p: i for i, p in enumerate(self._names)}

    @functools.cached_property
    def _absorbers(self):
        index, above = self._index, self.strictly_above
        return tuple(sum(1 << index[q] for q in above[p]) for p in self._names)

    @functools.cached_property
    def _regular_mask(self):
        return sum(1 << self._index[p] for p in self.regular)

    def __repr__(self):
        return f"PrimitiveMonoid({len(self.primes)} primes)"

    def check_prime(self, p):
        if p not in self.strictly_above:
            raise MonoidError(f"unknown prime {p!r}")

    def is_free(self, p) -> bool:
        self.check_prime(p)
        return p not in self.regular

    # -- the dense core ----------------------------------------------------
    #
    # The hot paths read each table once per call into a local: CPython
    # does not specialize the read of an instance attribute that a class
    # attribute (here the cached_property) shadows, so each read costs a
    # full lookup.  The bits are distinct, so their sum is their union.

    def _reduced(self, vec) -> tuple:
        """Canonical form: absorbed coordinates to 0, regular ones to 1."""
        bits, absorbers, regular = self._bits, self._absorbers, self._regular_mask
        support = sum(itertools.compress(bits, vec))
        return tuple(
            [
                0 if not c or up & support else (1 if bit & regular else c)
                for bit, up, c in zip(bits, absorbers, vec)
            ]
        )

    def _add_vec(self, u, v) -> tuple:
        return self._reduced(tuple(map(operator.add, u, v)))

    def _phi_vec(self, vec) -> tuple:
        """The counting maps of a vector, one per index."""
        bits, absorbers = self._bits, self._absorbers
        support = sum(itertools.compress(bits, vec))
        infinite = self._regular_mask & support
        return tuple(
            [
                INF if up & support or bit & infinite else c
                for bit, up, c in zip(bits, absorbers, vec)
            ]
        )

    # -- elements ----------------------------------------------------------

    def reduce(self, word: dict) -> MonElem:
        """Canonical form: drop absorbed primes, clip regular coefficients.
        An integral count of another type is stored as its int, so an
        element has one rendering; a bool is not a count."""
        names, index = self._names, self._index
        vec = [0] * len(names)
        for p, n in word.items():
            self.check_prime(p)
            c = n if type(n) is int else _count(n)
            if c is None:
                raise MonoidError(f"coefficient {n!r} of prime {p!r} is not an integer")
            if c < 0:
                raise MonoidError(f"negative coefficient {n!r} of prime {p!r}")
            if c > 0:
                vec[index[p]] = c
        return MonElem(names, self._reduced(vec))

    def gen(self, p) -> MonElem:
        return self.reduce({p: 1})

    def add(self, x: MonElem, y: MonElem) -> MonElem:
        names = self._names
        return MonElem(names, self._add_vec(_aligned(names, x, MonElem), _aligned(names, y, MonElem)))

    def phi(self, x: MonElem) -> PhiTuple:
        """The counting-map tuple of an element."""
        names = self._names
        return PhiTuple(names, self._phi_vec(_aligned(names, x, MonElem)))

    # -- enumeration -------------------------------------------------------

    def elements(self, max_size: int):
        """All reduced elements with total coefficient size <= max_size, by
        size and then coefficients; MonoidError unless max_size is a
        non-negative int, which checks every verifier's bound."""
        _require_count(max_size, "bound", MonoidError)
        names, bits, absorbers, regular = self._names, self._bits, self._absorbers, self._regular_mask
        out, n = [], len(names)
        for k in range(min(max_size, n) + 1):  # a support prime has coefficient >= 1
            for slots in itertools.combinations(range(n), k):
                support = sum(bits[i] for i in slots)
                if any(absorbers[i] & support for i in slots):
                    continue
                top = max_size - k + 2  # 0 off the support: the product yields whole vectors
                ranges = [range(1, 2 if b & regular else top) if b & support else (0,) for b in bits]
                out += (MonElem(names, c) for c in itertools.product(*ranges) if sum(c) <= max_size)
        out.sort(key=lambda e: (e.size(), e.coeffs))
        return out


def from_poset(poset: LabelledPoset) -> PrimitiveMonoid:
    """All primes free: the relation is the strict order of the poset."""
    rel = frozenset((q, p) for p in poset.elements for q in poset.strict[p])
    return PrimitiveMonoid(PrimePair._trusted(poset.elements, rel))


# ---------------------------------------------------------------------------
# order-ideals and quotients


@dataclass(frozen=True)
class OrderIdeal:
    """Order-ideal of a primitive monoid: the elements supported in a
    relation-lower set of primes; ``prime_set`` is stored as a frozenset."""

    monoid: PrimitiveMonoid
    prime_set: frozenset[str]

    def __post_init__(self):
        _reject_bare_string(self.prime_set, "prime set", MonoidError)
        self.__dict__.update(prime_set=frozenset(self.prime_set))
        m = self.monoid
        for p in self.prime_set:
            m.check_prime(p)
            if not m.strictly_below[p] <= self.prime_set:
                raise MonoidError(f"prime set not lower at {p!r}")

    def __contains__(self, x: MonElem):
        _aligned(self.monoid._names, x, MonElem)
        return set(x.support()) <= self.prime_set

    def elements(self, max_size):
        return [e for e in self.monoid.elements(max_size) if e in self]


def order_ideal(m: PrimitiveMonoid, a: MonElem) -> OrderIdeal:
    """The order-ideal generated by a: downward closure of its support."""
    _aligned(m._names, a, MonElem)
    closure = set(a.support()).union(*(m.strictly_below.get(p, ()) for p in a.support()))
    return OrderIdeal(m, closure)


def quotient(ideal: OrderIdeal):
    """The quotient of the ideal's monoid by it, with the projection on
    elements: both are images under the prime map that sends the ideal's
    primes to None and fixes the rest.
    """
    m = ideal.monoid
    pmap = {p: None if p in ideal.prime_set else p for p in m.primes}
    survivors = tuple(p for p in m.primes if pmap[p] is not None)
    mq = PrimitiveMonoid(PrimePair(survivors, _rel_image(m.pair.rel, pmap)))
    return mq, functools.partial(map_elem, mq, pmap)


# ---------------------------------------------------------------------------
# verifiers


def _components(m: PrimitiveMonoid) -> list:
    """The connected components of the strict relation, as tuples of
    primes by name, in order of least name; a regular self-pair joins
    nothing."""
    out, seen = [], set()
    for p in m._names:
        if p not in seen:
            comp, stack = {p}, [p]
            while stack:
                q = stack.pop()
                for r in (m.strictly_above[q] | m.strictly_below[q]) - comp:
                    comp.add(r)
                    stack.append(r)
            seen |= comp
            out.append(tuple(sorted(comp)))
    return out


def _split_pair(items, key1, key2):
    """None when key1 and key2 partition the items alike, else a pair
    (x, y), x first, that one key joins and the other separates.  One pass:
    the partitions agree iff each item meets the same first class member
    under both keys; where they first differ, the earlier one and the item split."""
    first1, first2 = {}, {}
    for i, item in enumerate(items):
        j, k = first1.setdefault(key1(item), i), first2.setdefault(key2(item), i)
        if j != k:
            return items[min(j, k)], item
    return None


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

    A pair whose strict relation is disconnected presents the product of
    its components' monoids, and each component is checked on its own, on
    the pair restricted to it, in order of least prime name.  This is
    exact.  Every absorber mask lies inside its prime's component, so
    reduction is componentwise, and _phi_vec at h reads only h's
    component.  At h, construct reads only phi at h and the nonzero masks
    of the primes above h, all in h's component, so the matrix it builds
    for an equality of m is, factor by factor, the matrices built for the
    equality's projections, and its four ``add`` checks split the same
    way.  An equality of size <= size_bound projects to equalities of the
    same bound in each factor (one that is trivial or a swap there is
    refined by the same symmetry), and an equality of a factor, padded
    with 0 in the others, is one of m.  So the checked factor certificates
    make up the whole certificate, and a failing factor names an equality
    of m.
    """
    factors = _components(m)
    if len(factors) > 1:
        for primes in factors:
            factor = PrimePair._trusted(primes, _rel_image(m.pair.rel, {p: p for p in primes}))
            check_refinement(PrimitiveMonoid(factor), size_bound)
        return None
    n = len(m.primes)
    add = functools.cache(m._add_vec)
    elems = [e.vec for e in m.elements(size_bound)]
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
                    x1, x2, y1, y2 = (term(MonElem(m._names, v)) for v in (x1, x2, y1, y2))
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
    doubles = [m._add_vec(a.vec, a.vec) for a in elems]
    by_double = {}
    for b, bb in zip(elems, doubles):
        by_double.setdefault(bb, []).append(b)
    for a, aa in zip(elems, doubles):
        for b in by_double[aa]:
            if b != a and m._add_vec(a.vec, b.vec) == aa:
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
    by_free = {}  # free indices -> {their coefficients: elements}
    for a in elems:
        aa = m._add_vec(a.vec, a.vec)
        free = tuple(i for i, c in enumerate(aa) if c and not m._regular_mask >> i & 1)
        if free not in by_free:
            groups = by_free[free] = {}
            for b in elems:
                groups.setdefault(tuple(b.vec[i] for i in free), []).append(b)
        for b in by_free[free].get(tuple(aa[i] - a.vec[i] for i in free), ()):
            if b != a and m._add_vec(a.vec, b.vec) == aa:
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
    lexicographic order.  The word steps as an odometer: its last place
    counts up while the degree allows, else its last nonzero place falls
    to 0 and the place before it counts up."""
    if k == 0:
        yield ()
        return
    word, degree = [0] * k, 0
    while degree <= bound:
        yield tuple(word)
        if degree < bound:
            word[-1] += 1
            degree += 1
            continue
        j = k - 1
        while j and not word[j]:
            j -= 1
        if not j:
            return
        degree += 1 - word[j]
        word[j], word[j - 1] = 0, word[j - 1] + 1


class CongruenceOracle:
    """Equality decider for a commutative-monoid presentation, restricted to
    words of total degree <= bound.

    The congruence closure is computed by union-find over the bounded word
    set: for each relation (u, v), every rewrite x + u ~ x + v with both
    sides inside the bound is an edge, and each class is represented by its
    least word.  Equality verdicts are sound; inequality only means "not
    equal within the bound".  The generators are distinct, and a word, in a
    relation or a query, names only generators and gives each a
    non-negative integer count (not a bool; an integral float or Fraction
    is read as its int), or MonoidError is raised.  The bound must
    be a non-negative int, and an oracle that would need more than
    ORACLE_WORD_LIMIT words raises OracleLimitError before it builds any.
    """

    def __init__(self, generators, relations, bound: int):
        _reject_bare_string(generators, "generators", MonoidError)
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise MonoidError("duplicate generators")
        _require_count(bound, "bound", MonoidError)
        need = comb(len(self.generators) + bound, bound)
        if need > ORACLE_WORD_LIMIT:
            raise OracleLimitError(
                f"an oracle of bound {bound} on {len(self.generators)} generators needs {need} words, "
                f"over the limit of {ORACLE_WORD_LIMIT}"
            )
        self.bound = bound
        index = {g: i for i, g in enumerate(self.generators)}
        rels = [(self._vec(u, index), self._vec(v, index)) for u, v in relations]
        parent = {w: w for w in _bounded_words(len(self.generators), bound)}

        def find(w):
            while parent[w] != w:
                parent[w] = parent[parent[w]]
                w = parent[w]
            return w

        # the least word of a class stays its root, whatever the join order
        for u, v in rels:
            for x in _bounded_words(len(self.generators), bound - max(sum(u), sum(v))):
                ra = find(tuple(map(operator.add, x, u)))
                rb = find(tuple(map(operator.add, x, v)))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        self._find = find
        self._index = index

    @staticmethod
    def _vec(word, index):
        vec = [0] * len(index)
        for g, n in dict(word).items():
            try:
                i = index[g]
            except KeyError:
                raise MonoidError(f"unknown generator {g!r}") from None
            c = n if type(n) is int else _count(n)
            if c is None or c < 0:
                raise MonoidError(f"count {n!r} of generator {g!r} is not a non-negative integer")
            vec[i] += c
        return tuple(vec)

    def _as_vec(self, word):
        vec = self._vec(word, self._index)
        if sum(vec) > self.bound:
            raise MonoidError(f"word exceeds oracle bound {self.bound}")
        return vec

    def class_of(self, word):
        """The least word of the class, which ``equal`` compares."""
        return self._find(self._as_vec(word))

    def equal(self, w1, w2) -> bool:
        return self.class_of(w1) == self.class_of(w2)

    def classes(self):
        buckets = {}
        for w in _bounded_words(len(self.generators), self.bound):
            buckets.setdefault(self._find(w), []).append(w)
        return sorted(buckets.values())


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
    """Isomorphism as a prime bijection, or None; reduces to the pair
    search, which reads only the pairs, so neither monoid builds its tables."""
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
