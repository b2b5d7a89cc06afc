"""Categorical surgery on primitive monoids and the unfolding pipeline.

Three constructions operate directly on prime pairs: the amalgamated
pushout (gluing two monoids along isomorphic order-ideals), the crowned
pushout (identifying two disjoint isomorphic order-ideals inside one
monoid), and the pullback of two monoids over a common ideal quotient.
Each carries a bounded brute-force verifier of its universal property.

The unfolding pipeline takes a maximal element p of a poset, unfolds its
down-set into the tree of saturated descending paths (every upper interval
a chain), and then reconstructs the down-set monoid by a recorded sequence
of crowned pushouts; assembling the per-maximal reconstructions and gluing
shared lower parts recovers the monoid of the whole poset.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .poset import (
    LabelledPoset,
    LowerSet,
    PosetError,
    _depths,
    _descents,
    _require_count,
    compute_lower_covers,
)
from .primon import (
    CongruenceOracle,
    MonElem,
    MonoidError,
    OrderIdeal,
    PrimePair,
    PrimitiveMonoid,
    _rel_image,
    _split_pair,
    from_poset,
    map_elem,
    monoid_iso,
    presentation_of,
    quotient,
)


def _check_ideal_iso(m_src, src_primes, m_dst, dst_primes, phi):
    if set(phi) != set(src_primes) or set(phi.values()) != set(dst_primes):
        raise MonoidError("ideal map is not a bijection between the prime sets")
    if len(set(phi.values())) != len(phi):
        raise MonoidError("ideal map is not injective")
    if _rel_image(m_src.pair.rel, phi) != _rel_image(m_dst.pair.rel, {p: p for p in dst_primes}):
        raise MonoidError("ideal map does not preserve the relation")


# ---------------------------------------------------------------------------
# crowned pushout


@dataclass
class CrownedPushout:
    monoid: PrimitiveMonoid
    projection: dict  # prime map P -> Q
    ideal: OrderIdeal  # the surviving copy Z of I inside Q

    def project(self, x: MonElem) -> MonElem:
        return map_elem(self.monoid, self.projection, x)


def crowned_pushout(ideal: OrderIdeal, ideal2: OrderIdeal, phi: dict) -> CrownedPushout:
    """Coequalizer identifying ideal with ideal2, ideals of one monoid m, through phi.

    The result lives on the primes of m minus ideal2's.  Its relation is the
    image of m's under the projection, which sends phi[x] to x and fixes the
    rest: as the ideals are lower, disjoint and related by phi, that is the
    inherited relation plus (x, y) whenever x is an ideal prime, y is outside
    both and (phi[x], y) holds in m.  Freeness of surviving primes is untouched.
    """
    m = ideal.monoid
    if ideal2.monoid is not m:
        raise MonoidError("crowned pushout needs two ideals of one monoid")
    pi_set, pi2_set = ideal.prime_set, ideal2.prime_set
    if pi_set & pi2_set:
        raise MonoidError("crowned pushout needs disjoint ideals")
    _check_ideal_iso(m, pi_set, m, pi2_set, phi)
    survivors = tuple(p for p in m.primes if p not in pi2_set)
    inv = {v: k for k, v in phi.items()}
    pmap = {p: inv.get(p, p) for p in m.primes}
    q_mon = PrimitiveMonoid(PrimePair(survivors, _rel_image(m.pair.rel, pmap)))
    return CrownedPushout(q_mon, pmap, OrderIdeal(q_mon, pi_set))


def verify_coequalizer(ideal: OrderIdeal, phi: dict, pushout: CrownedPushout, bound: int):
    """Check the coequalizer property within a size bound.

    (a) the projection agrees on i and phi(i) for ideal elements <= bound;
    (b) the kernel of the projection equals the congruence generated by the
        pairs (x+i, x+phi(i)), computed by the bounded congruence oracle.
    Returns None if ok, else (i, reason) for (a), or for (b) a pair (x, y),
    x first in element order, that one side joins and the other separates.
    A phi that is not a relation-preserving bijection from the ideal's primes
    raises MonoidError, as in crowned_pushout.
    """
    m, pi = ideal.monoid, pushout.project
    _check_ideal_iso(m, ideal.prime_set, m, frozenset(phi.values()), phi)
    phi_map = {p: phi.get(p, p) for p in m.primes}
    for i in ideal.elements(bound):
        if pi(i) != pi(map_elem(m, phi_map, i)):
            return (i, "projection does not equalize the ideal identification")
    gens, rels = presentation_of(m)
    rels += [({g: 1}, {phi[g]: 1}) for g in sorted(ideal.prime_set)]
    oracle = CongruenceOracle(gens, rels, bound)
    return _split_pair(m.elements(bound), pi, lambda x: oracle.class_of(x.as_dict()))


# ---------------------------------------------------------------------------
# amalgamated pushout


@dataclass
class AmalgamPushout:
    monoid: PrimitiveMonoid
    inj1: dict  # prime map M -> P
    inj2: dict  # prime map N -> P
    ideal: OrderIdeal  # common image of the glued ideals

    def i1(self, x):
        return map_elem(self.monoid, self.inj1, x)

    def i2(self, x):
        return map_elem(self.monoid, self.inj2, x)


def amalgam_pushout(ideal: OrderIdeal, n: PrimitiveMonoid, phi: dict) -> AmalgamPushout:
    """Pushout of the ideal's monoid m and n along an isomorphism phi onto an ideal of n.

    inj1 tags m's primes @1; inj2 tags n's primes @2, except that an image
    prime goes to its partner's @1 tag.  The relation is the union of the
    two images: the crowned pushout of the tagged disjoint union.
    """
    m = ideal.monoid
    image = frozenset(phi.values())
    _check_ideal_iso(m, ideal.prime_set, n, image, phi)
    OrderIdeal(n, image)  # validates the image is an order-ideal of n

    inj1 = {p: f"{p}@1" for p in m.primes}
    inv = {v: k for k, v in phi.items()}
    inj2 = {q: (inj1[inv[q]] if q in image else f"{q}@2") for q in n.primes}
    primes = tuple(sorted({*inj1.values(), *inj2.values()}))
    glued = PrimitiveMonoid(PrimePair(primes, _rel_image(m.pair.rel, inj1) | _rel_image(n.pair.rel, inj2)))
    return AmalgamPushout(glued, inj1, inj2, OrderIdeal(glued, {inj1[p] for p in ideal.prime_set}))


# ---------------------------------------------------------------------------
# pullback


@dataclass
class PullbackPrimitive:
    monoid: PrimitiveMonoid
    m1: PrimitiveMonoid
    m2: PrimitiveMonoid
    proj1: dict  # prime map P -> M1 (None kills a prime)
    proj2: dict
    ideal: OrderIdeal  # N1 x N2 inside P
    quotient_iso: dict  # P(M1/N1) -> P(M2/N2)

    def p1(self, x):
        return map_elem(self.m1, self.proj1, x)

    def p2(self, x):
        return map_elem(self.m2, self.proj2, x)


def pullback_primitive(n1: OrderIdeal, n2: OrderIdeal, iso: dict | None = None) -> PullbackPrimitive:
    """Pullback of m1 -> S <- m2, the monoids of n1 and n2, over their common ideal quotient S.

    Requires every ideal prime to sit below every non-ideal prime in its
    monoid (validated); the primes of the result are the disjoint union of
    the quotient's and the two ideals', with every ideal prime below every
    quotient prime.
    """
    m1, m2 = n1.monoid, n2.monoid
    for m, n in ((m1, n1), (m2, n2)):
        for p in n.prime_set:
            for q in set(m.primes) - n.prime_set:
                if (p, q) not in m.pair.rel:
                    raise MonoidError(f"pullback hypothesis fails: ideal prime {p!r} not below {q!r}")
    s1, _ = quotient(n1)
    s2, _ = quotient(n2)
    if iso is None:
        iso = monoid_iso(s1, s2)
        if iso is None:
            raise MonoidError("the ideal quotients are not isomorphic")
    else:
        try:
            _check_ideal_iso(s1, s1.primes, s2, s2.primes, iso)
        except MonoidError:
            raise MonoidError("supplied quotient isomorphism is invalid") from None

    tag_s = {p: f"{p}@s" for p in s1.primes}
    tag1 = {p: f"{p}@1" for p in n1.prime_set}
    tag2 = {p: f"{p}@2" for p in n2.prime_set}
    below = [*tag1.values(), *tag2.values()]
    rel = _rel_image(s1.pair.rel, tag_s) | _rel_image(m1.pair.rel, tag1) | _rel_image(m2.pair.rel, tag2)
    rel |= {(q, p) for q in below for p in tag_s.values()}
    pb = PrimitiveMonoid(PrimePair(tuple(sorted([*tag_s.values(), *below])), rel))

    proj1 = {t: p for p, t in (tag_s | tag1).items()} | dict.fromkeys(tag2.values())
    proj2 = {t: iso[p] for p, t in tag_s.items()} | {t: p for p, t in tag2.items()}
    proj2 |= dict.fromkeys(tag1.values())
    ideal = OrderIdeal(pb, below)
    return PullbackPrimitive(pb, m1, m2, proj1, proj2, ideal, iso)


def verify_pullback_universal(pb: PullbackPrimitive, n1: OrderIdeal, n2: OrderIdeal, bound: int):
    """Every compatible pair of elements has exactly one preimage (<= bound).

    Returns None if ok, else ((x1, x2), count); each fibre is counted once.
    """
    _, pr1 = quotient(n1)
    s2, pr2 = quotient(n2)
    by_image = {}
    for x2 in n2.monoid.elements(bound):
        by_image.setdefault(pr2(x2), []).append(x2)
    fibres = Counter((pb.p1(z), pb.p2(z)) for z in pb.monoid.elements(2 * bound))
    for x1 in n1.monoid.elements(bound):
        for x2 in by_image.get(map_elem(s2, pb.quotient_iso, pr1(x1)), ()):
            if fibres[x1, x2] != 1:
                return ((x1, x2), fibres[x1, x2])
    return None


# ---------------------------------------------------------------------------
# the unfolding F(p)


@dataclass
class MappedPoset:
    """A poset together with an element map into a base poset."""

    poset: LabelledPoset
    psi: dict


@dataclass
class Unfolding:
    """The unfolding of the down-set of a maximal element."""

    result: MappedPoset  # the unfolded tree with its surjection onto the down-set


def build_F(base: LabelledPoset, top: str) -> Unfolding:
    """Unfold the down-set of a maximal element into its path tree: the
    poset of the descending cover paths from top, in which every upper
    interval is a chain.  The copies of a base element b reached by several
    paths are ``b~0``, ``b~1``, .. in descent order, so no id may hold ``~``.
    """
    _reject_reserved(base, "~")
    base.check(top)
    if top not in base.maximal():
        raise PosetError(f"{top!r} is not maximal")
    paths = list(_descents(base, top))
    fibers = {}
    for path in paths:
        fibers.setdefault(path[-1], []).append(path)
    names = {}
    for b, fiber in fibers.items():
        names.update((path, b if len(fiber) == 1 else f"{b}~{k}") for k, path in enumerate(fiber))
    labels = {}
    for path in paths[1:]:
        labels.setdefault(names[path[:-1]], []).append(names[path])
    below = {}
    for path in reversed(paths):  # each path after all its extensions
        kids = labels.get(names[path], ())
        below[names[path]] = frozenset(kids).union(*(below[c] for c in kids))
    elements = tuple(sorted(below))
    labels = {e: tuple(labels[e]) for e in elements if e in labels}
    poset = LabelledPoset._trusted(elements, {e: below[e] for e in elements}, labels)
    return Unfolding(MappedPoset(poset, {names[s]: s[-1] for s in paths}))


def _reject_reserved(base, chars):
    """Raise PosetError on the first base id that contains one of chars."""
    for e in base.elements:
        for c in chars:
            if c in e:
                raise PosetError(f"element id {e!r} contains the reserved character {c!r}")


# ---------------------------------------------------------------------------
# reconstruction by crowned pushouts


def sub_poset(base: LabelledPoset, members) -> LabelledPoset:
    """Restriction of a poset to a lower subset (covers and labels persist)."""
    elements = LowerSet(base, members).sorted()
    labels = {p: base.labels[p] for p in elements if p in base.labels}
    return LabelledPoset._trusted(elements, {p: base.strict[p] for p in elements}, labels)


def _merge_lower_parts(poset: LabelledPoset, psi: dict, mu: dict):
    """Poset-level crowned pushout along the element map mu.

    mu sends each element of a dropped part z2 to its partner in z1 and
    fixes every other element (one map may carry several gluings of
    disjoint parts); each survivor's down-set becomes the image of its old
    down-set under mu.  That image is the inherited order plus x < y
    whenever x is in z1, y is outside z1 and mu^-1(x) < y: both parts are
    down-closed, so once z1 and z2 are disjoint no z1 element lies above a z2
    element.  Label order ranks a cover by its old position, else by the old
    position of the cover it replaced.  A survivor whose down-set misses z2
    keeps its down-set and labels as they are: mu fixes that down-set, whose
    elements keep theirs too.  Returns (new poset, new psi).
    """
    moved = {e for e in poset.elements if mu[e] != e}
    survivors = tuple(e for e in poset.elements if e not in moved)
    touched = {p for p in survivors if not moved.isdisjoint(poset.strict[p])}
    strict = {p: poset.strict[p] for p in survivors}
    strict.update((p, frozenset(mu[q] for q in strict[p])) for p in touched)
    labels = {p: poset.labels[p] for p in survivors if p in poset.labels}
    for p in touched:
        old = labels[p]
        rank = {mu[c]: i for i, c in enumerate(old)} | {c: i for i, c in enumerate(old)}
        labels[p] = tuple(sorted(compute_lower_covers(strict, p), key=lambda c: (rank.get(c, len(old)), c)))
    return LabelledPoset._trusted(survivors, strict, labels), {e: psi[e] for e in survivors}


@dataclass
class Reconstruction:
    """Stages M^0(p) .. M^r(p) of the crowned-pushout reconstruction."""

    unfolding: Unfolding
    stages: list  # MappedPoset per stage
    step_maps: list  # step_maps[i]: stage-i element -> stage-(i+1) element

    def monoids(self):
        return [from_poset(s.poset) for s in self.stages]

    def stage_map(self, j: int, i: int) -> dict:
        """The composite element map from stage i to stage j; PosetError
        unless both are int indices with 0 <= i <= j < len(stages)."""
        for k in (i, j):
            _require_count(k, "stage index", PosetError)
        if not i <= j < len(self.stages):
            raise PosetError(f"no stage map from {i} to {j} over {len(self.stages)} stages")
        out = {e: e for e in self.stages[i].poset.elements}
        for k in range(i, j):
            out = {e: self.step_maps[k][v] for e, v in out.items()}
        return out


def _by_image(psi, part, name):
    """The inverse of psi on part; PosetError if psi is not injective there."""
    by_image = {}
    for x in sorted(part):
        if psi[x] in by_image:
            raise PosetError(f"projection map is not injective on the {name} part")
        by_image[psi[x]] = x
    return by_image


def _glue_overlap(psi, covered: set, fresh: set, mu: dict):
    """Record in mu one gluing of the psi-overlap of two lower parts: each fresh
    element over it (the dropped part z2) goes to the covered one with its
    image.  Returns the merged part, covered | (fresh - z2)."""
    common = {psi[x] for x in covered} & {psi[x] for x in fresh}
    z1 = {x for x in covered if psi[x] in common}
    z2 = {x for x in fresh if psi[x] in common}
    _by_image(psi, z2, "fresh")
    partner = _by_image(psi, z1, "covered")
    if z1 & z2:
        raise PosetError("the lower parts to glue overlap")
    mu.update((e, partner[psi[e]]) for e in z2)
    return covered | (fresh - z2)


def reconstruct_down(base: LabelledPoset, top: str) -> Reconstruction:
    """Rebuild the down-set monoid of a maximal element from its unfolding.

    Step i processes the elements of depth d = r-i-2: the overlaps of the
    images of their covers' down-sets are identified two at a time by
    crowned pushouts, in cover-label order.  A step records its gluings in
    one map and merges once, if it glued anything.  That is exact: the parts
    below distinct depth-(d+1) elements are disjoint, as deeper steps glue
    only under one node, which has a single chain above it; so the gluings
    touch disjoint survivors, their maps compose as a union, and no cover moves.
    """
    unf = build_F(base, top)
    poset, psi = unf.result.poset, dict(unf.result.psi)
    # The tree's depths serve every stage.  Stage i glues only under its
    # depth-d elements, so z1 and z2 have depth >= d + 1; a gluing raises
    # depths only on z1 and what lies below it, so an element of depth <= d
    # keeps its tree depth through every later stage.  Each maximal chain of
    # the down-set is a root-to-leaf path of the tree: r is its height.
    depths = _depths(poset)
    r = max(depths.values())
    stages, step_maps = [MappedPoset(poset, dict(psi))], []
    for d in range(r - 2, -1, -1):
        mu = {}
        for first, *rest in (covers for q, covers in poset.labels.items() if depths[q] == d and len(covers) > 1):
            covered = poset.strict[first] | {first}
            for v in rest:
                covered = _glue_overlap(psi, covered, poset.strict[v] | {v}, mu)
        step_maps.append({e: mu.get(e, e) for e in poset.elements})
        if mu:
            poset, psi = _merge_lower_parts(poset, psi, step_maps[-1])
        stages.append(MappedPoset(poset, dict(psi)))
    # the last stage must be isomorphic to the down-set through psi
    target = sub_poset(base, base.strict[top] | {top})
    if sorted(psi.values()) != sorted(target.elements) or len(poset.elements) != len(target.elements):
        raise PosetError("reconstruction did not converge onto the down-set")
    if any({psi[q] for q in poset.strict[p]} != target.strict[psi[p]] for p in psi):
        raise PosetError("reconstruction projection is not an order isomorphism")
    if poset.elements != target.elements:
        stages.append(MappedPoset(target, {e: e for e in target.elements}))
        step_maps.append(dict(psi))
    return Reconstruction(unf, stages, step_maps)


# ---------------------------------------------------------------------------
# full assembly


@dataclass
class Assembly:
    monoid: PrimitiveMonoid
    poset: LabelledPoset
    psi: dict  # assembled element -> base element (a bijection when sound)
    reconstructions: dict
    gluings: int


def assemble(base: LabelledPoset) -> Assembly:
    """Product of the reconstructed down-set monoids of the maximal
    elements, glued along shared lower parts by crowned pushouts.

    The copy of e in the reconstruction of the maximal element m is named
    ``e@m``, so no base id may contain ``~`` or ``@``.  The parts are
    disjoint down-sets, so one merge after all gluings is their composite.
    """
    _reject_reserved(base, "~@")
    recs = {m: reconstruct_down(base, m) for m in sorted(base.maximal())}
    parts, strict, labels, psi = [], {}, {}, {}
    for m, rec in recs.items():
        last = rec.stages[-1]
        tag = {e: f"{e}@{m}" for e in last.poset.elements}
        parts.append(set(tag.values()))
        strict.update((tag[p], frozenset(tag[q] for q in below)) for p, below in last.poset.strict.items())
        labels.update((tag[p], tuple(tag[q] for q in kids)) for p, kids in last.poset.labels.items())
        psi.update((tag[e], last.psi[e]) for e in tag)
    elements = tuple(sorted(strict))
    labels = {p: labels[p] for p in elements if p in labels}
    poset = LabelledPoset._trusted(elements, {p: strict[p] for p in elements}, labels)

    covered, mu = set(), {}
    for fresh in parts:
        covered = _glue_overlap(psi, covered, fresh, mu)
    if mu:
        poset, psi = _merge_lower_parts(poset, psi, {e: mu.get(e, e) for e in elements})
    gluings = sum(not mu.keys().isdisjoint(fresh) for fresh in parts)
    return Assembly(from_poset(poset), poset, psi, recs, gluings)
