"""Seeded inputs, items and work counters of the four benchmark workloads.

A workload object is built from the imported package ``pa`` and a seed;
building it generates every input (that is the set-up the benchmark
times).  ``items()`` then yields ``(item_id, kind, run)`` triples; ``run``
takes the span function ``call`` and returns ``(verdict_ok, raw)``.  Each
call into a package layer goes through ``call(layer_name, fn, *args)``, so a
traced run records one span per public call.  ``counters(pa, kind, raw)``
turns an item's raw results into deterministic work counts; the runner
calls it after the item, outside the timed and traced regions.

Item verdicts are checked against known truths: enumeration counts,
refinement and separativity facts, phi being an additive embedding, oracle
agreement with reduced words, isomorphism with the ``from_poset`` monoid,
and the algebra relations, homomorphism property and inverse round trips.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import operator
import random
from fractions import Fraction
from math import comb
from pathlib import Path

# OEIS A000112 (posets on n points) and prime pairs with exactly n primes.
POSET_COUNTS = (1, 1, 2, 5, 16, 63, 318)
PRIME_PAIR_COUNTS = (1, 2, 7, 32, 192, 1490)

REFINEMENT_BOUND = 3  # the size bound of acceptance criterion 03
ORACLE_BOUND = 4
ER_BOUND = 4
# The strict orders on 3, 4 and 5 points up to isomorphism (the posets of
# enumerate_posets(n), as index pairs i < j).  Each monoids item puts one
# on 5 points with 0 or 1 regular prime; algebra uses those on 3 and 4
# points and every fourth on 5.
POSETS_FILE = Path(__file__).resolve().parent / "posets.json"
REGULAR_COUNTS = (0, 1)
# The layer widths of the surgery posets, in the proportions of drawing
# 3-5 layers of width 3-4 and keeping those with 12-20 elements: (4, 4, 4)
# four times, each 4-layer profile twice and each 5-layer profile once.
SURGERY_PROFILES = (
    [(4, 4, 4)] * 4
    + list(itertools.product((3, 4), repeat=4)) * 2
    + list(itertools.product((3, 4), repeat=5))
)
SURGERY_ROUNDS = 9  # 612 posets
# Algebra sizes: the inverse depth is set so that the round trips take
# about half of the batch.
ALGEBRA_EVERY_5 = 4
ALGEBRA_PRODUCTS = 375
ALGEBRA_INVERSES = 800
INVERSE_DEPTH = 5

# Per-layer metric names, in report order.  A layer's ``busy_s`` is the
# self time of its spans per batch; the rest are work counts per batch.
LAYER_TIMES = (
    "poset.enumerate_posets",
    "primon.enumerate_prime_pairs",
    "primon.PrimitiveMonoid",
    "primon.check_refinement",
    "primon.check_separative",
    "primon.check_strongly_separative",
    "primon.arith",
    "primon.CongruenceOracle.build",
    "primon.CongruenceOracle.equal",
    "graphmon.check_Er_equals_chain",
    "primon.monoid_iso",
    "constructions.assemble",
    "constructions.reconstruct_down",
    "leavitt.mul",
    "toeplitz.check_relation",
    "toeplitz.act_element",
    "toeplitz.invert_sigma",
)
COUNTER_NAMES = (
    "poset.enumerate_posets.items",
    "primon.enumerate_prime_pairs.items",
    "primon.PrimitiveMonoid.calls",
    "primon.check_refinement.calls",
    "primon.check_refinement.elements",
    "primon.check_refinement.equalities",
    "primon.arith.ops",
    "primon.CongruenceOracle.words",
    "primon.CongruenceOracle.queries",
    "graphmon.check_Er_equals_chain.word_pairs",
    "primon.monoid_iso.calls",
    "constructions.assemble.calls",
    "constructions.assemble.primes",
    "constructions.reconstruct_down.calls",
    "constructions.reconstruct_down.unfolded_nodes",
    "constructions.reconstruct_down.stages",
    "leavitt.mul.calls",
    "leavitt.mul.terms_out",
    "toeplitz.check_relation.calls",
    "toeplitz.check_relation.samples",
    "toeplitz.act_element.calls",
    "toeplitz.invert_sigma.calls",
    "toeplitz.invert_sigma.coeff_terms",
)


def busy_metric(layer):
    if layer.startswith("primon.CongruenceOracle."):
        return layer + "_s"  # build_s, equal_s
    return layer + ".busy_s"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pair_key(pair):
    return (pair.primes, tuple(sorted(pair.rel)))


def _poset_key(poset):
    covers = tuple((q, p) for p in poset.elements for q in sorted(poset.labels.get(p, ())))
    return (poset.elements, covers, tuple(sorted(poset.labels.items())))


def _iso_item(pa, got, base, call):
    """The monoid ``got`` is isomorphic to ``from_poset(base)``."""
    want = call("primon.PrimitiveMonoid", pa.primon.from_poset, base)
    return call("primon.monoid_iso", pa.primon.monoid_iso, got, want) is not None


# ---------------------------------------------------------------------------
# catalogue: enumeration dominates


class Catalogue:
    """All posets with n <= 6 and all prime pairs with at most 5 primes,
    then ``assemble`` with its iso verdict on every poset.  Deterministic:
    the seed is accepted and unused.

    Its items are the three phases, each with one verdict.  Per-poset
    items would last about a millisecond each and run within half a
    second of a ten-second batch, so their percentiles would sample the
    shared machine's speed at one moment rather than the program."""

    name = "catalogue"

    def __init__(self, pa, seed, toy=False):
        self.pa = pa
        self.max_points = 3 if toy else 6
        self.max_primes = 3 if toy else 5
        self.fingerprint = _digest(f"catalogue {self.max_points} {self.max_primes}")

    def items(self):
        pa = self.pa
        posets = []

        def enum_posets(call):
            ok = True
            for n in range(self.max_points + 1):
                got = call("poset.enumerate_posets", pa.poset.enumerate_posets, n)
                ok &= len(got) == POSET_COUNTS[n]
                posets.extend(got)
            return ok, len(posets)

        def enum_pairs(call):
            got = call("primon.enumerate_prime_pairs", pa.primon.enumerate_prime_pairs, self.max_primes)
            counts = [0] * (self.max_primes + 1)
            for pair in got:
                counts[len(pair.primes)] += 1
            return tuple(counts) == PRIME_PAIR_COUNTS[: self.max_primes + 1], len(got)

        def assemble_all(call):
            ok, assemblies = True, []
            for base in posets:
                asm = call("constructions.assemble", pa.constructions.assemble, base)
                ok &= _iso_item(pa, asm.monoid, base, call)
                assemblies.append(asm)
            return ok, assemblies

        yield "posets", "enumerate_posets", enum_posets
        yield "pairs", "enumerate_prime_pairs", enum_pairs
        yield "assemble", "assemble", assemble_all


# ---------------------------------------------------------------------------
# monoids: the brute-force verifiers dominate


def shape_pair(pa, index, shape, regular):
    """The strict order ``shape`` (index pairs i < j) on 5 primes, with
    ``regular`` regular primes.  The prime names (a permutation of g0..g4)
    and the places of the regular primes are a fixed random draw per shape
    index, the same for every seed."""
    draw = random.Random(index)
    ids = draw.sample([f"g{i}" for i in range(5)], 5)
    rel = {(ids[i], ids[j]) for i, j in shape}
    rel |= {(ids[i], ids[i]) for i in draw.sample(range(5), regular)}
    return pa.primon.PrimePair(tuple(sorted(ids)), frozenset(rel))


def _phi_embedding(m):
    """phi is injective on elements of size <= 4 and additive on size <= 2."""
    seen = set()
    for x in m.elements(4):
        key = m.phi(x).values
        if key in seen:
            return False
        seen.add(key)
    els = m.elements(2)
    phis = [m.phi(x) for x in els]
    for (x, px), (y, py) in itertools.product(list(zip(els, phis)), repeat=2):
        if m.phi(m.add(x, y)).values != px.add(py).values:
            return False
    return True


def _oracle_of(pa, m):
    gens, rels = pa.primon.presentation_of(m)
    return pa.primon.CongruenceOracle(gens, rels, ORACLE_BOUND)


def _oracle_agrees(oracle, m):
    """Oracle equality on words of size <= 2 matches reduced-word equality."""
    els = m.elements(2)
    return all(
        oracle.equal(x.as_dict(), y.as_dict()) == (x == y)
        for x, y in itertools.product(els, repeat=2)
    )


class Monoids:
    """Prime pairs on 5 primes, each run through the refinement,
    separativity, phi-embedding and oracle checks, plus a small phase of
    loop-chain graph-monoid checks.

    The mix is stratified: every strict order shape on 5 points appears
    once with 0 and once with 1 regular prime, under a fixed naming of
    its primes and a fixed place of the regular prime.  The seed orders
    the items.  The verifiers' cost swings up to 10x with the naming and
    the regular prime's place (one naming of the star with four primes
    below one costs 3.5 s, the others a fraction of that), so seeded
    names or places made the tail of the item times, and item_p90_ms,
    swing by a fifth between seeds."""

    name = "monoids"

    def __init__(self, pa, seed, toy=False):
        self.pa = pa
        shapes = json.loads(POSETS_FILE.read_text())["5"][: 2 if toy else None]
        self.pairs = [
            shape_pair(pa, i, shape, regular)
            for i, shape in enumerate(shapes)
            for regular in REGULAR_COUNTS
        ]
        random.Random(seed).shuffle(self.pairs)
        self.er_ranks = tuple(range(3 if toy else 5))
        self.fingerprint = _digest(repr([_pair_key(p) for p in self.pairs]))

    def items(self):
        pa = self.pa
        P = pa.primon
        for i, pair in enumerate(self.pairs):

            def monoid(call, pair=pair):
                m = call("primon.PrimitiveMonoid", P.PrimitiveMonoid, pair)
                ok = call("primon.check_refinement", P.check_refinement, m, REFINEMENT_BOUND) is None
                ok &= call("primon.check_separative", P.check_separative, m, REFINEMENT_BOUND) is None
                strong = call(
                    "primon.check_strongly_separative", P.check_strongly_separative, m, REFINEMENT_BOUND
                )
                ok &= (strong is None) == (not m.regular)  # strongly separative iff all free
                ok &= call("primon.arith", _phi_embedding, m)
                oracle = call("primon.CongruenceOracle.build", _oracle_of, pa, m)
                ok &= call("primon.CongruenceOracle.equal", _oracle_agrees, oracle, m)
                return ok, pair

            yield f"pair{i}", "monoid", monoid
        for r in self.er_ranks:

            def er_chain(call, r=r):
                got = call("graphmon.check_Er_equals_chain", pa.graphmon.check_Er_equals_chain, r, ER_BOUND)
                return got is None, r

            yield f"er{r}", "er_chain", er_chain


def _monoid_counts(pa, pair):
    m = pa.primon.PrimitiveMonoid(pair)  # fresh: keeps the timed monoid's caches out of it
    els = m.elements(REFINEMENT_BOUND)
    sums = {}
    for i, x in enumerate(els):
        for y in els[i:]:
            s = m.add(x, y).coeffs
            sums[s] = sums.get(s, 0) + 1
    n2, n4 = len(m.elements(2)), len(m.elements(4))
    return {
        "primon.PrimitiveMonoid.calls": 1,
        "primon.check_refinement.calls": 1,
        "primon.check_refinement.elements": len(els),
        "primon.check_refinement.equalities": sum(comb(g, 2) for g in sums.values()),
        # phi on each element of size <= 4 and <= 2, then add, phi and
        # PhiTuple.add per ordered pair of size <= 2
        "primon.arith.ops": n4 + n2 + 3 * n2 * n2,
        "primon.CongruenceOracle.words": comb(len(pair.primes) + ORACLE_BOUND, ORACLE_BOUND),
        "primon.CongruenceOracle.queries": n2 * n2,
    }


# ---------------------------------------------------------------------------
# surgery: unfolding, reconstruction and assembly dominate


def layered_poset(pa, rng, widths):
    """Layers of the given widths, random covers between adjacent layers,
    random label orders."""
    layers = [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    covers = []
    for lower, upper in zip(layers, layers[1:]):
        for p in upper:
            covers += [(q, p) for q in rng.sample(lower, rng.randint(1, 2))]
    elements = [e for layer in layers for e in layer]
    plain = pa.poset.make_poset(elements, covers)
    labels = {p: tuple(rng.sample(qs, len(qs))) for p, qs in plain.labels.items()}
    return pa.poset.make_poset(elements, covers, labels)


class Surgery:
    """Seeded layered posets; each item reconstructs every maximal
    element's down-set, assembles the whole poset and checks both against
    ``from_poset`` by isomorphism.

    The layer widths are stratified: each profile of SURGERY_PROFILES
    appears SURGERY_ROUNDS times, in seeded order; the seed draws the
    covers and label orders.  Seeded widths made the mix of poset sizes,
    and item_p50_ms with it, swing by a tenth between seeds."""

    name = "surgery"

    def __init__(self, pa, seed, toy=False):
        self.pa = pa
        rng = random.Random(seed)
        profiles = SURGERY_PROFILES * (1 if toy else SURGERY_ROUNDS)
        rng.shuffle(profiles)
        self.posets = []
        for widths in profiles[: 3 if toy else None]:
            base = layered_poset(pa, rng, widths)
            downs = [
                (top, pa.constructions.sub_poset(base, base.strict[top] | {top}))
                for top in sorted(base.maximal())
            ]
            self.posets.append((base, downs))
        self.fingerprint = _digest(repr([_poset_key(b) for b, _ in self.posets]))

    def items(self):
        pa = self.pa
        C = pa.constructions
        for i, (base, downs) in enumerate(self.posets):

            def surgery(call, base=base, downs=downs):
                ok, recs = True, []
                for top, down in downs:
                    rec = call("constructions.reconstruct_down", C.reconstruct_down, base, top)
                    recs.append(rec)
                    got = call("primon.PrimitiveMonoid", pa.primon.from_poset, rec.stages[-1].poset)
                    ok &= _iso_item(pa, got, down, call)
                asm = call("constructions.assemble", C.assemble, base)
                ok &= _iso_item(pa, asm.monoid, base, call)
                return ok, (recs, asm)

            yield f"poset{i}", "surgery", surgery


def _surgery_counts(raw):
    recs, asm = raw
    return {
        "constructions.reconstruct_down.calls": len(recs),
        "constructions.reconstruct_down.unfolded_nodes": sum(
            len(r.unfolding.result.poset.elements) for r in recs
        ),
        "constructions.reconstruct_down.stages": sum(len(r.stages) for r in recs),
        "constructions.assemble.calls": 1,
        "constructions.assemble.primes": len(asm.monoid.primes),
        "primon.PrimitiveMonoid.calls": 2 * len(recs) + 1,
        "primon.monoid_iso.calls": len(recs) + 1,
    }


# ---------------------------------------------------------------------------
# algebra: the representation and its rational-function arithmetic dominate


def labelled_shape(pa, rng, n, shape):
    """The strict order ``shape`` (index pairs i < j) on n points, with
    random element names and label orders."""
    ids = [f"u{i}" for i in range(n)]
    rng.shuffle(ids)
    pairs = [(ids[i], ids[j]) for i, j in shape]
    plain = pa.poset.make_poset(ids, pairs)
    labels = {p: tuple(rng.sample(qs, len(qs))) for p, qs in plain.labels.items()}
    return pa.poset.make_poset(ids, pairs, labels)


def diamond(pa):
    return pa.poset.make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


COEFFS = (Fraction(-2), Fraction(-1), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3))


def random_admissible(pa, rng, poset, vertex, branch):
    """c0 + c1 x_j + c2 x_j^2 + c3 x_k with x_j the branch's cover variable,
    x_k another cover's and random small rational coefficients.  The
    constant term makes the valuation zero; x_k puts a non-monomial
    denominator into the series, so the coefficients grow with the depth
    at a rate that varies little between draws."""
    covers = pa.poset.lower_covers(poset, vertex)
    qj = covers[branch - 1]
    qk = rng.choice([q for q in covers if q != qj])
    mapping = {
        (): rng.choice((1, 2, 3, Fraction(1, 2))),
        (qj,): rng.choice(COEFFS),
        (qj, qj): rng.choice(COEFFS),
        (qk,): rng.choice(COEFFS),
    }
    return pa.toeplitz.sigma_poly(poset, vertex, mapping)


class Algebra:
    """Relation instances, homomorphism checks and truncated-inverse round
    trips on small labelled posets, the Fig.-2 poset and the diamond.

    The poset shapes are fixed (every shape on 3 and 4 points, every
    fourth on 5) and the seed draws their element names and label orders.
    The inverses go round the vertices with several lower covers, each
    taking the degrees 0 to depth - 2 in turn; the seed draws the leaf and
    the coefficients.  Seeded shapes, vertices and degrees made the mix of
    item costs, and the item percentiles with it, swing by a tenth
    between seeds."""

    name = "algebra"

    def __init__(self, pa, seed, toy=False):
        self.pa = pa
        T, L = pa.toeplitz, pa.leavitt
        rng = random.Random(seed)
        self.depth = 3 if toy else INVERSE_DEPTH
        spaces, self.relations = [], []
        catalogue = json.loads(POSETS_FILE.read_text())
        shapes = [(n, s) for n in (3, 4) for s in catalogue[str(n)]]
        shapes += [(5, s) for s in catalogue["5"][::ALGEBRA_EVERY_5]]
        posets = [pa.poset.fig2_poset(), diamond(pa)]
        posets += [labelled_shape(pa, rng, n, s) for n, s in shapes[: 2 if toy else None]]
        for poset in posets:
            space = T.build_space(poset)
            samples = T.sample_vectors(space, 3)
            spaces.append((poset, space, samples))
            self.relations += [(space, samples, *rel) for rel in T.relation_suite(poset)]
        covered = [s for s in spaces if s[0].labels]
        self.products = []
        for _ in range(4 if toy else ALGEBRA_PRODUCTS):
            poset, space, samples = rng.choice(covered)
            gens = [("e", p) for p in poset.elements] + [("t", 1), ("t", 2)]
            for p, qs in poset.labels.items():
                gens += [(k, p, q) for q in qs for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
            x, y = (
                sum(
                    (_word_element(L, poset, [rng.choice(gens) for _ in range(rng.randint(1, 3))]) for _ in range(3)),
                    L.AlgElement(poset),
                )
                for _ in range(2)
            )
            self.products.append((space, samples, x, y))
        forks = [(poset, space, p) for poset, space, _ in spaces for p, qs in poset.labels.items() if len(qs) > 1]
        self.inverses = []
        for i in range(4 if toy else ALGEBRA_INVERSES):
            poset, space, vertex = forks[i % len(forks)]
            path = rng.choice(space.leaves[vertex])
            branch = path[0][1]
            f = random_admissible(pa, rng, poset, vertex, branch)
            degree = i // len(forks) % (self.depth - 1)  # the exact window: depth - deg_j(f)
            v = T.leaf_vector(space, path, pa.ratfunc.Poly.var(T.zvar(vertex, branch), degree))
            self.inverses.append((space, f, v))
        self.fingerprint = _digest(
            repr(
                [_poset_key(p) for p, _, _ in spaces]
                + [(repr(x), repr(y)) for _, _, x, y in self.products]
                + [(f.vertex, repr(f.poly), repr(v)) for _, f, v in self.inverses]
            )
        )

    def items(self):
        T = self.pa.toeplitz
        for i, (space, samples, name, lhs, rhs) in enumerate(self.relations):

            def relation(call, space=space, samples=samples, lhs=lhs, rhs=rhs):
                bad = call("toeplitz.check_relation", T.check_relation, space, lhs, rhs, samples)
                return bad is None, len(samples)

            yield f"rel{i}:{name}", "relation", relation
        for i, (space, samples, x, y) in enumerate(self.products):

            def homomorphism(call, space=space, samples=samples, x=x, y=y):
                """v(xy) == (vx)y on every sample vector v."""
                xy = call("leavitt.mul", operator.mul, x, y)
                ok = True
                for v in samples:
                    lhs = call("toeplitz.act_element", T.act_element, space, xy, v)
                    vx = call("toeplitz.act_element", T.act_element, space, x, v)
                    ok &= lhs == call("toeplitz.act_element", T.act_element, space, y, vx)
                return ok, (xy, len(samples))

            yield f"hom{i}", "homomorphism", homomorphism
        for i, (space, f, v) in enumerate(self.inverses):

            def inverse(call, space=space, f=f, v=v):
                inv = call("toeplitz.invert_sigma", T.invert_sigma, space, f, v, self.depth)
                back = call("toeplitz.act_element", T.act_sigma, space, f, inv)
                return back == v, inv

            yield f"inv{i}", "inverse", inverse


def _word_element(L, poset, word):
    x = L.one(poset)
    for g in word:
        x = x * L.generator(poset, *g)
    return x


# ---------------------------------------------------------------------------


def counters(pa, kind, raw):
    """Deterministic work counts of one item, from its raw result."""
    if kind == "enumerate_posets":
        return {"poset.enumerate_posets.items": raw}
    if kind == "enumerate_prime_pairs":
        return {"primon.enumerate_prime_pairs.items": raw}
    if kind == "assemble":
        return {
            "constructions.assemble.calls": len(raw),
            "constructions.assemble.primes": sum(len(asm.monoid.primes) for asm in raw),
            "primon.PrimitiveMonoid.calls": len(raw),
            "primon.monoid_iso.calls": len(raw),
        }
    if kind == "monoid":
        return _monoid_counts(pa, raw)
    if kind == "er_chain":
        words = comb(raw + 1 + ER_BOUND, ER_BOUND)
        return {"graphmon.check_Er_equals_chain.word_pairs": comb(words, 2)}
    if kind == "surgery":
        return _surgery_counts(raw)
    if kind == "relation":
        return {"toeplitz.check_relation.calls": 1, "toeplitz.check_relation.samples": raw}
    if kind == "homomorphism":
        xy, samples = raw
        return {"leavitt.mul.calls": 1, "leavitt.mul.terms_out": len(xy.terms), "toeplitz.act_element.calls": 3 * samples}
    if kind == "inverse":
        return {
            "toeplitz.invert_sigma.calls": 1,
            "toeplitz.invert_sigma.coeff_terms": sum(
                len(c.num.terms) + len(c.den.terms) for c in raw.coeffs.values()
            ),
            "toeplitz.act_element.calls": 1,
        }
    raise ValueError(f"unknown item kind {kind!r}")


WORKLOADS = {w.name: w for w in (Catalogue, Monoids, Surgery, Algebra)}
