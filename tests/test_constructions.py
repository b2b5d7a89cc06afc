import contextlib
import hashlib
import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import (
    LabelledPoset,
    LowerSet,
    PosetError,
    Quiver,
    _depths,
    compute_lower_covers,
    enumerate_posets,
    fig2_poset,
    height,
    lower_covers,
    make_poset,
    maximal_chains,
    parse_poset,
    poset_iso,
    relation_iso,
)
from posetalg.primon import (
    CongruenceOracle,
    MonoidError,
    OrderIdeal,
    PrimePair,
    PrimitiveMonoid,
    _rel_image,
    enumerate_prime_pairs,
    from_poset,
    monoid_iso,
    presentation_of,
    quotient,
)
import posetalg.constructions as constructions
from posetalg.constructions import (
    CrownedPushout,
    _glue_overlap,
    amalgam_pushout,
    assemble,
    build_F,
    crowned_pushout,
    map_elem,
    pullback_primitive,
    reconstruct_down,
    sub_poset,
    verify_coequalizer,
    verify_pullback_universal,
)


def diamond():
    return make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


def w_poset():
    return make_poset(["b", "p1", "p2"], [("b", "p1"), ("b", "p2")])


def zplus():
    return from_poset(make_poset(["g"], []))


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: LowerSet(fig2_poset(), "ab"), PosetError),
        (lambda: Quiver("ab", ()), PosetError),
        (lambda: sub_poset(fig2_poset(), "ab"), PosetError),
        (lambda: OrderIdeal(from_poset(fig2_poset()), "ab"), MonoidError),
        (lambda: PrimePair("ab", frozenset()), MonoidError),
        (lambda: CongruenceOracle("ab", [], 2), MonoidError),
    ],
    ids=["LowerSet", "Quiver", "sub_poset", "OrderIdeal", "PrimePair", "CongruenceOracle"],
)
def test_bare_string_is_not_split_into_names(build, error):
    # "ab" would read as the names "a" and "b"
    with pytest.raises(error, match="bare string"):
        build()


# -- amalgamated pushout --------------------------------------------------------


def test_amalgam_full_gluing_is_identity_like():
    m = zplus()
    ideal = OrderIdeal(m, {"g"})
    out = amalgam_pushout(ideal, m, {"g": "g"})
    assert monoid_iso(out.monoid, m) is not None


def test_amalgam_trivial_ideal_gives_product():
    m = zplus()
    ideal = OrderIdeal(m, set())
    out = amalgam_pushout(ideal, m, {})
    free2 = from_poset(make_poset(["x", "y"], []))
    assert monoid_iso(out.monoid, free2) is not None


def test_amalgam_two_chains_glued_along_bottoms():
    chain = from_poset(make_poset(["a", "p"], [("a", "p")]))
    ideal = OrderIdeal(chain, {"a"})
    out = amalgam_pushout(ideal, chain, {"a": "a"})
    # bottoms identified: three primes, the shared one below both tops
    expected = from_poset(w_poset())
    assert monoid_iso(out.monoid, expected) is not None
    # injections are monoid homomorphisms and agree on the glued ideal
    for x, y in itertools.product(chain.elements(2), repeat=2):
        assert out.i1(chain.add(x, y)) == out.monoid.add(out.i1(x), out.i1(y))
        assert out.i2(chain.add(x, y)) == out.monoid.add(out.i2(x), out.i2(y))
    assert out.i1(chain.gen("a")) == out.i2(chain.gen("a"))
    # injectivity within a bound
    seen1 = {out.i1(x).coeffs for x in chain.elements(3)}
    assert len(seen1) == len(chain.elements(3))
    seen2 = {out.i2(x).coeffs for x in chain.elements(3)}
    assert len(seen2) == len(chain.elements(3))
    # P / glued ideal is the product of the two quotients
    q, _ = quotient(out.ideal)
    prod = from_poset(make_poset(["x", "y"], []))
    assert monoid_iso(q, prod) is not None


def test_amalgam_rejects_bad_map():
    chain = from_poset(make_poset(["a", "p"], [("a", "p")]))
    ideal = OrderIdeal(chain, {"a"})
    with pytest.raises(MonoidError):
        amalgam_pushout(ideal, chain, {"a": "p"})  # image not an ideal


def _parent_amalgam_pushout(ideal, n, phi):
    """amalgam_pushout through the product monoid and a crowned pushout
    along the two tagged ideal copies, kept as the reference."""
    m = ideal.monoid
    image = frozenset(phi.values())
    constructions._check_ideal_iso(m, ideal.prime_set, n, image, phi)
    OrderIdeal(n, image)
    inj1 = {p: f"{p}@1" for p in m.primes}
    tag2 = {q: f"{q}@2" for q in n.primes}
    primes = tuple(sorted([*inj1.values(), *tag2.values()]))
    prod = PrimitiveMonoid(PrimePair(primes, _rel_image(m.pair.rel, inj1) | _rel_image(n.pair.rel, tag2)))
    left = OrderIdeal(prod, {inj1[p] for p in ideal.prime_set})
    right = OrderIdeal(prod, {tag2[q] for q in image})
    pushed = crowned_pushout(left, right, {inj1[p]: tag2[phi[p]] for p in ideal.prime_set})
    inv = {v: k for k, v in phi.items()}
    inj2 = {q: (inj1[inv[q]] if q in image else tag2[q]) for q in n.primes}
    return pushed.monoid, inj1, inj2, pushed.ideal


def test_amalgam_matches_the_crowned_pushout_route():
    # every bijection between equal-sized lower prime sets of two catalogue
    # monoids with at most 3 primes; those that are not ideal isomorphisms
    # must raise the same error
    monoids = [PrimitiveMonoid(pair) for pair in enumerate_prime_pairs(3)]
    verdicts = Counter()
    for m, n in itertools.product(monoids, repeat=2):
        for low in lower_prime_sets(m):
            src = sorted(low)
            for image in lower_prime_sets(n):
                if len(image) != len(low):
                    continue
                for dst in itertools.permutations(sorted(image)):
                    phi = dict(zip(src, dst))
                    try:
                        mon, inj1, inj2, ideal = _parent_amalgam_pushout(OrderIdeal(m, low), n, phi)
                    except MonoidError as exc:
                        with pytest.raises(MonoidError) as new:
                            amalgam_pushout(OrderIdeal(m, low), n, phi)
                        assert str(new.value) == str(exc)
                        verdicts["error"] += 1
                        continue
                    out = amalgam_pushout(OrderIdeal(m, low), n, phi)
                    assert (out.monoid.primes, out.monoid.pair.rel) == (mon.primes, mon.pair.rel)
                    assert (out.inj1, out.inj2) == (inj1, inj2)
                    assert out.ideal.monoid is out.monoid and out.ideal.prime_set == ideal.prime_set
                    verdicts[len(low)] += 1
    assert verdicts["error"] and all(verdicts[k] for k in range(4))


# -- crowned pushout --------------------------------------------------------------


def two_disjoint_chains():
    return from_poset(
        make_poset(["b1", "q1", "b2", "q2"], [("b1", "q1"), ("b2", "q2")])
    )


def test_crowned_pushout_bottom_merge():
    p2 = two_disjoint_chains()
    i1 = OrderIdeal(p2, {"b1"})
    i2 = OrderIdeal(p2, {"b2"})
    out = crowned_pushout(i1, i2, {"b1": "b2"})
    assert set(out.monoid.primes) == {"b1", "q1", "q2"}
    assert ("b1", "q2") in out.monoid.pair.rel
    assert monoid_iso(out.monoid, from_poset(w_poset())) is not None
    # prime count and freeness per the structure result
    assert len(out.monoid.primes) == len(p2.primes) - len(i2.prime_set)
    for p in out.monoid.primes:
        assert out.monoid.is_free(p) == p2.is_free(p)
    # Q/Z iso P/(I+I')
    qz, _ = quotient(out.ideal)
    pii, _ = quotient(OrderIdeal(p2, {"b1", "b2"}))
    assert monoid_iso(qz, pii) is not None


def test_crowned_pushout_trivial():
    p2 = two_disjoint_chains()
    empty = OrderIdeal(p2, set())
    out = crowned_pushout(empty, empty, {})
    assert monoid_iso(out.monoid, p2) is not None


def test_crowned_pushout_product_factors():
    prod = from_poset(make_poset(["x", "y"], []))
    ix = OrderIdeal(prod, {"x"})
    iy = OrderIdeal(prod, {"y"})
    out = crowned_pushout(ix, iy, {"x": "y"})
    assert monoid_iso(out.monoid, zplus()) is not None
    assert verify_coequalizer(ix, {"x": "y"}, out, 4) is None


def test_verify_coequalizer_rejects_a_phi_off_the_ideal():
    m = from_poset(fig2_poset())
    ideal = OrderIdeal(m, {"b"})
    out = crowned_pushout(ideal, OrderIdeal(m, {"a"}), {"b": "a"})
    for phi in ({"a": "b"}, {}, {"b": "a", "a": "b"}):
        with pytest.raises(MonoidError, match="ideal map is not a bijection"):
            verify_coequalizer(ideal, phi, out, 3)
    assert verify_coequalizer(ideal, {"b": "a"}, out, 3) is None


def test_verify_coequalizer_catches_a_projection_that_does_not_equalize():
    # the pushout glues a to c and b to d; the swapped bijection sends a to
    # d, which the projection sends to b
    m = from_poset(make_poset(["a", "b", "c", "d"], []))
    ideal, ideal2 = OrderIdeal(m, {"a", "b"}), OrderIdeal(m, {"c", "d"})
    out = crowned_pushout(ideal, ideal2, {"a": "c", "b": "d"})
    assert verify_coequalizer(ideal, {"a": "c", "b": "d"}, out, 3) is None
    i, reason = verify_coequalizer(ideal, {"a": "d", "b": "c"}, out, 3)
    assert i.coeffs == (("a", 1),) and reason == "projection does not equalize the ideal identification"


def test_crowned_pushout_rejects_ideals_of_two_monoids():
    chain = from_poset(make_poset(["a", "p"], [("a", "p")]))
    anti = from_poset(make_poset(["a", "p"], []))
    with pytest.raises(MonoidError, match="two ideals of one monoid"):
        crowned_pushout(OrderIdeal(chain, {"a"}), OrderIdeal(anti, {"p"}), {"a": "p"})
    out = crowned_pushout(OrderIdeal(anti, {"a"}), OrderIdeal(anti, {"p"}), {"a": "p"})
    assert out.monoid.primes == ("a",) and out.monoid.is_free("a")


def test_map_elem_rejects_a_prime_outside_its_map():
    m = two_disjoint_chains()
    x = m.add(m.gen("b1"), m.gen("q2"))
    with pytest.raises(MonoidError, match="prime 'q2' is outside the prime map"):
        map_elem(m, {"b1": "b1", "q1": "q1"}, x)
    assert map_elem(m, {"b1": "b1", "q2": None}, x) == m.gen("b1")


def test_crowned_pushout_rejects_overlap():
    p2 = two_disjoint_chains()
    i1 = OrderIdeal(p2, {"b1"})
    with pytest.raises(MonoidError):
        crowned_pushout(i1, i1, {"b1": "b1"})


def test_verify_coequalizer():
    p2 = two_disjoint_chains()
    i1 = OrderIdeal(p2, {"b1"})
    i2 = OrderIdeal(p2, {"b2"})
    phi = {"b1": "b2"}
    out = crowned_pushout(i1, i2, phi)
    assert verify_coequalizer(i1, phi, out, 4) is None
    # trivial case
    empty = OrderIdeal(p2, set())
    triv = crowned_pushout(empty, empty, {})
    assert verify_coequalizer(empty, {}, triv, 4) is None
    # a deliberately wrong pushout (missing the added relation) is caught
    from posetalg.constructions import CrownedPushout

    wrong_monoid = PrimitiveMonoid(
        PrimePair(("b1", "q1", "q2"), frozenset({("b1", "q1")}))
    )
    wrong = CrownedPushout(
        wrong_monoid,
        {"b1": "b1", "q1": "q1", "q2": "q2", "b2": "b1"},
        OrderIdeal(wrong_monoid, frozenset({"b1"})),
    )
    assert verify_coequalizer(i1, phi, wrong, 4) is not None


# -- pullback ---------------------------------------------------------------------


def test_pullback_fig2():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p"], [("b", "p")]))
    n1 = OrderIdeal(m1, {"a"})
    n2 = OrderIdeal(m2, {"b"})
    pb = pullback_primitive(n1, n2)
    assert monoid_iso(pb.monoid, from_poset(fig2_poset())) is not None
    assert verify_pullback_universal(pb, n1, n2, 3) is None
    # composing either projection with the quotient map gives the same map
    s1, pr1 = quotient(n1)
    s2, pr2 = quotient(n2)
    for z in pb.monoid.elements(4):
        left = map_elem(s2, pb.quotient_iso, pr1(pb.p1(z)))
        assert left == pr2(pb.p2(z))


def test_pullback_trivial_ideals():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    n0 = OrderIdeal(m1, set())
    pb = pullback_primitive(n0, n0)
    assert monoid_iso(pb.monoid, m1) is not None
    assert verify_pullback_universal(pb, n0, n0, 3) is None


def test_pullback_diamond_reconstruction():
    c1 = from_poset(make_poset(["b1", "q1", "p"], [("b1", "q1"), ("q1", "p")]))
    c2 = from_poset(make_poset(["b2", "q2", "p"], [("b2", "q2"), ("q2", "p")]))
    n1 = OrderIdeal(c1, {"b1", "q1"})
    n2 = OrderIdeal(c2, {"b2", "q2"})
    pb = pullback_primitive(n1, n2)
    tree = make_poset(
        ["b1", "q1", "b2", "q2", "p"],
        [("b1", "q1"), ("b2", "q2"), ("q1", "p"), ("q2", "p")],
    )
    assert monoid_iso(pb.monoid, from_poset(tree)) is not None
    assert verify_pullback_universal(pb, n1, n2, 3) is None


def test_pullback_hypothesis_validated():
    # N's primes must sit below every outside prime
    m1 = from_poset(make_poset(["a", "p", "x"], [("a", "p")]))
    n1 = OrderIdeal(m1, {"a"})
    m2 = from_poset(make_poset(["b", "p", "x"], [("b", "p")]))
    n2 = OrderIdeal(m2, {"b"})
    with pytest.raises(MonoidError):
        pullback_primitive(n1, n2)


def test_pullback_rejects_nonisomorphic_quotients():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p", "r"], [("b", "p"), ("b", "r")]))
    n1 = OrderIdeal(m1, {"a"})
    n2 = OrderIdeal(m2, {"b"})
    with pytest.raises(MonoidError):
        pullback_primitive(n1, n2)


def test_pullback_rejects_supplied_iso_that_is_not_a_bijection():
    # both quotient primes sent to a: keys and relation image look right
    m = from_poset(make_poset(["a", "b", "z"], [("z", "a"), ("z", "b")]))
    n = OrderIdeal(m, {"z"})
    with pytest.raises(MonoidError, match="supplied quotient isomorphism is invalid"):
        pullback_primitive(n, n, iso={"a": "a", "b": "a"})
    swap = {"a": "b", "b": "a"}
    assert pullback_primitive(n, n, iso=swap).quotient_iso == swap


def test_pullback_universal_detects_corruption():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p"], [("b", "p")]))
    n1 = OrderIdeal(m1, {"a"})
    n2 = OrderIdeal(m2, {"b"})
    pb = pullback_primitive(n1, n2)
    # drop a prime from the pullback: universality must fail
    from posetalg.constructions import PullbackPrimitive

    broken = PrimitiveMonoid(
        PrimePair(("a@1", "p@s"), frozenset({("a@1", "p@s")}))
    )
    crippled = PullbackPrimitive(
        broken,
        m1,
        m2,
        {"a@1": "a", "p@s": "p"},
        {"a@1": None, "p@s": "p"},
        OrderIdeal(broken, frozenset({"a@1"})),
        pb.quotient_iso,
    )
    assert verify_pullback_universal(crippled, n1, n2, 2) is not None


# -- the verifiers against the pairwise loops they replaced -----------------------


def coequalizer_pairwise(m, ideal, phi, pushout, bound):
    """verify_coequalizer as it was before the class-map comparison: the
    projection and the oracle asked about every pair, kept as the oracle."""
    pi = pushout.project
    for i in ideal.elements(bound):
        if pi(i) != pi(map_elem(m, {**{p: p for p in m.primes}, **phi}, i)):
            return (i, "projection does not equalize the ideal identification")
    gens, rels = presentation_of(m)
    rels += [({g: 1}, {phi[g]: 1}) for g in sorted(ideal.prime_set)]
    oracle = CongruenceOracle(gens, rels, bound)
    for x, y in itertools.combinations(m.elements(bound), 2):
        if (pi(x) == pi(y)) != oracle.equal(x.as_dict(), y.as_dict()):
            return (x, y)
    return None


def pullback_pairwise(pb, m1, n1, m2, n2, bound):
    """verify_pullback_universal as it was before the fibre count: every
    element of the pullback rescanned for each compatible pair."""
    s1, pr1 = quotient(n1)
    s2, pr2 = quotient(n2)
    iso = pb.quotient_iso
    p_elems = pb.monoid.elements(2 * bound)
    for x1 in m1.elements(bound):
        for x2 in m2.elements(bound):
            if map_elem(s2, iso, pr1(x1)) != pr2(x2):
                continue
            count = sum(1 for z in p_elems if pb.p1(z) == x1 and pb.p2(z) == x2)
            if count != 1:
                return ((x1, x2), count)
    return None


def lower_prime_sets(m):
    subsets = (frozenset(c) for k in range(len(m.primes) + 1) for c in itertools.combinations(m.primes, k))
    return [s for s in subsets if all(m.strictly_below[p] <= s for p in s)]


def coequalizer_cases(max_primes):
    """Each crowned pushout of a catalogue monoid along two disjoint
    isomorphic lower prime sets, and copies of it whose relation lacks one
    pair."""
    for pair in enumerate_prime_pairs(max_primes):
        m = PrimitiveMonoid(pair)
        for low1, low2 in itertools.permutations(lower_prime_sets(m), 2):
            if low1 & low2 or len(low1) != len(low2):
                continue
            rel1, rel2 = (_rel_image(pair.rel, {p: p for p in low}) for low in (low1, low2))
            phi = relation_iso(tuple(sorted(low1)), rel1, tuple(sorted(low2)), rel2)
            if phi is None:
                continue
            i1, i2 = OrderIdeal(m, low1), OrderIdeal(m, low2)
            good = crowned_pushout(i1, i2, phi)
            yield m, i1, phi, good
            q = good.monoid
            for drop in sorted(q.pair.rel):
                with contextlib.suppress(MonoidError):
                    yield m, i1, phi, replace(good, monoid=PrimitiveMonoid(PrimePair(q.primes, q.pair.rel - {drop})))


def test_verify_coequalizer_gives_the_pairwise_verdicts():
    verdicts = Counter()
    for m, ideal, phi, pushout in coequalizer_cases(3):
        for bound in (2, 3):
            split = verify_coequalizer(ideal, phi, pushout, bound)
            assert (split is None) == (coequalizer_pairwise(m, ideal, phi, pushout, bound) is None)
            if split is not None and split[1] != "projection does not equalize the ideal identification":
                x, y = split
                gens, rels = presentation_of(m)
                oracle = CongruenceOracle(gens, rels + [({g: 1}, {phi[g]: 1}) for g in ideal.prime_set], bound)
                assert (pushout.project(x) == pushout.project(y)) != oracle.equal(x.as_dict(), y.as_dict())
                elems = m.elements(bound)
                assert elems.index(x) < elems.index(y)
            verdicts[split is None] += 1
    assert verdicts[True] and verdicts[False]


def pullback_cases(max_primes):
    """Each pullback of two catalogue monoids over ideals below every other
    prime, and copies of it with one prime of its second projection
    killed."""
    sides = []
    for pair in enumerate_prime_pairs(max_primes):
        m = PrimitiveMonoid(pair)
        for low in lower_prime_sets(m):
            if all((p, q) in pair.rel for p in low for q in set(m.primes) - low):
                sides.append((m, OrderIdeal(m, low)))
    for (m1, n1), (m2, n2) in itertools.product(sides, repeat=2):
        try:
            pb = pullback_primitive(n1, n2)
        except MonoidError:
            continue  # the quotients are not isomorphic
        yield pb, m1, n1, m2, n2
        for t in sorted(t for t, p in pb.proj2.items() if p is not None):
            yield replace(pb, proj2={**pb.proj2, t: None}), m1, n1, m2, n2


def test_verify_pullback_universal_gives_the_pairwise_results():
    verdicts = Counter()
    for pb, m1, n1, m2, n2 in pullback_cases(2):
        got = verify_pullback_universal(pb, n1, n2, 2)
        assert got == pullback_pairwise(pb, m1, n1, m2, n2, 2)
        verdicts[got is None] += 1
    assert verdicts[True] and verdicts[False]


# -- unfolding -------------------------------------------------------------------


def test_build_F_fig2_is_identity():
    fig2 = fig2_poset()
    unf = build_F(fig2, "p")
    assert poset_iso(unf.result.poset, fig2) is not None
    assert unf.result.psi == {e: e for e in fig2.elements}


def test_build_F_chain():
    chain = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    unf = build_F(chain, "c")
    assert unf.result.poset == chain


def test_build_F_diamond():
    unf = build_F(diamond(), "p")
    tree = make_poset(
        ["x", "y", "q1", "q2", "p"],
        [("x", "q1"), ("y", "q2"), ("q1", "p"), ("q2", "p")],
    )
    assert poset_iso(unf.result.poset, tree) is not None
    fibers = {}
    for e, base in unf.result.psi.items():
        fibers.setdefault(base, []).append(e)
    assert len(fibers["b"]) == 2


def test_build_F_requires_maximal():
    with pytest.raises(PosetError):
        build_F(fig2_poset(), "a")


def test_build_F_rejects_tilde_in_ids():
    # the fiber copies of b would be named b~0, b~1 and collide with b~0
    base = parse_poset("elems b b~0 q1 q2 p; covers b<q1 b<q2 q1<p q2<p b~0<q1")
    for build in (lambda: build_F(base, "p"), lambda: assemble(base)):
        with pytest.raises(PosetError, match="'b~0'"):
            build()


@pytest.mark.parametrize(
    "members, message",
    [({"zz"}, "unknown element 'zz'"), ({"p"}, "not downward closed at 'p'")],
    ids=["unknown", "not-down-closed"],
)
def test_sub_poset_rejects_unknown_members(members, message):
    with pytest.raises(PosetError, match=message):
        sub_poset(fig2_poset(), members)


def test_build_F_postconditions_on_catalogue():
    for poset in enumerate_posets(5):
        for top in poset.maximal():
            unf = build_F(poset, top)
            F, psi = unf.result.poset, unf.result.psi
            down = {q for q in poset.elements if poset.leq(q, top)}
            # surjective onto the down-set, order preserving
            assert set(psi.values()) == down
            for a, b in itertools.permutations(F.elements, 2):
                if F.lt(a, b):
                    assert poset.lt(psi[a], psi[b])
            # upper intervals are chains
            for t in F.elements:
                interval = [x for x in F.elements if F.leq(t, x)]
                for x, y in itertools.combinations(interval, 2):
                    assert F.leq(x, y) or F.leq(y, x)
            # chain counts agree and map bijectively
            chains_f = maximal_chains(F, _top_of(F))
            chains_p = maximal_chains(poset, top)
            assert len(chains_f) == len(chains_p)
            assert sorted(tuple(psi[x] for x in ch) for ch in chains_f) == sorted(
                chains_p
            )
            # distinct elements have distinct upper-interval images
            sigs = set()
            for t in F.elements:
                sig = tuple(
                    psi[x] for x in sorted(
                        (x for x in F.elements if F.leq(t, x)),
                        key=lambda x: len([y for y in F.elements if F.leq(x, y)]),
                    )
                )
                assert sig not in sigs
                sigs.add(sig)
            # cover bijection
            for t in F.elements:
                assert sorted(psi[c] for c in lower_covers(F, t)) == sorted(
                    lower_covers(poset, psi[t])
                )


def _top_of(F):
    return F.maximal()[0]


# -- reconstruction ---------------------------------------------------------------


def test_reconstruct_chain_trivial():
    chain = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    rec = reconstruct_down(chain, "c")
    assert rec.stages[0].poset == chain
    assert monoid_iso(rec.monoids()[-1], from_poset(chain)) is not None


def test_reconstruct_fig2_trivial():
    rec = reconstruct_down(fig2_poset(), "p")
    assert monoid_iso(rec.monoids()[-1], from_poset(fig2_poset())) is not None


def test_reconstruct_diamond():
    d = diamond()
    rec = reconstruct_down(d, "p")
    assert len(rec.stages[0].poset.elements) == 5
    assert monoid_iso(rec.monoids()[-1], from_poset(d)) is not None
    # psi maps compose through the stages
    for i in range(len(rec.stages) - 1):
        comp = rec.stage_map(len(rec.stages) - 1, i)
        for e in rec.stages[i].poset.elements:
            assert rec.stages[i].psi[e] == rec.stages[-1].psi[comp[e]]


@pytest.mark.parametrize("j, i", [(0, 1), (-1, 0), (1, -2), (3, 0), (2, True), (2.0, 0), ("2", 0)])
def test_stage_map_rejects_indices_it_cannot_map(j, i):
    rec = reconstruct_down(diamond(), "p")
    assert len(rec.stages) == 3
    with pytest.raises(PosetError, match="stage"):
        rec.stage_map(j, i)


def test_reconstruct_stage_maps_compose():
    d = diamond()
    rec = reconstruct_down(d, "p")
    n = len(rec.stages) - 1
    for i in range(n):
        for k in range(i + 1, n):
            direct = rec.stage_map(n, i)
            via = {
                e: rec.stage_map(n, k)[rec.stage_map(k, i)[e]]
                for e in rec.stages[i].poset.elements
            }
            assert direct == via


# -- assembly ---------------------------------------------------------------------


def test_assemble_named_examples():
    for poset in [fig2_poset(), diamond(), w_poset()]:
        asm = assemble(poset)
        assert monoid_iso(asm.monoid, from_poset(poset)) is not None


def test_assemble_antichain_is_product():
    anti = make_poset(["x", "y", "z"], [])
    asm = assemble(anti)
    assert asm.gluings == 0
    assert monoid_iso(asm.monoid, from_poset(anti)) is not None


def test_assemble_w_glues_once():
    asm = assemble(w_poset())
    assert asm.gluings == 1


def test_assemble_rejects_at_in_ids():
    # a tagged under the maximal b@c and a@b tagged under c both give a@b@c
    base = make_poset(["a", "b@c", "a@b", "c"], [("a", "b@c"), ("a@b", "c")])
    with pytest.raises(PosetError, match="'a@b'"):
        assemble(base)


def test_assemble_empty():
    asm = assemble(make_poset([]))
    assert asm.monoid.primes == ()


# -- behaviour guards ---------------------------------------------------------------


def _poset_key(poset):
    return (
        poset.elements,
        sorted((p, sorted(below)) for p, below in poset.strict.items()),
        sorted(poset.labels.items()),
    )


@pytest.mark.hashseed
def test_surgery_outputs_digest_over_catalogue():
    # Pins every reconstruct_down stage, step map and assemble output over
    # all posets with n <= 6, so a rewrite of the surgery code must keep
    # element names, label orders and gluing counts byte for byte.
    h = hashlib.sha256()
    for n in range(7):
        for base in enumerate_posets(n):
            for top in sorted(base.maximal()):
                rec = reconstruct_down(base, top)
                for stage in rec.stages:
                    h.update(repr((_poset_key(stage.poset), sorted(stage.psi.items()))).encode())
                for step in rec.step_maps:
                    h.update(repr(sorted(step.items())).encode())
            asm = assemble(base)
            out = (asm.monoid.primes, sorted(asm.monoid.pair.rel), _poset_key(asm.poset))
            h.update(repr((out, sorted(asm.psi.items()), asm.gluings)).encode())
    assert h.hexdigest() == "7822850676a4d4e812f00ae11763e710ebc6d138c759bb9464169b629745e6be"


def test_glue_overlap_rejects_overlapping_parts():
    poset = fig2_poset()
    psi = {e: e for e in poset.elements}
    with pytest.raises(PosetError, match="overlap"):
        _glue_overlap(psi, {"a"}, {"a", "b"}, {})


@st.composite
def layered_posets(draw):
    """Layers of 2-4 elements, 8-14 in all; each element above the bottom
    layer covers one or two of the layer below, in a drawn label order."""
    widths = draw(st.lists(st.integers(2, 4), min_size=3, max_size=4).filter(lambda w: 8 <= sum(w) <= 14))
    layers = [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    covers = []
    for lower, upper in zip(layers, layers[1:]):
        for p in upper:
            kids = draw(st.permutations(lower))[: draw(st.integers(1, 2))]
            covers += [(q, p) for q in kids]
    elements = [e for layer in layers for e in layer]
    plain = make_poset(elements, covers)
    labels = {p: tuple(draw(st.permutations(qs))) for p, qs in plain.labels.items()}
    return make_poset(elements, covers, labels)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(layered_posets())
def test_surgery_on_random_layered_posets(base):
    assert monoid_iso(assemble(base).monoid, from_poset(base)) is not None
    for top in base.maximal():
        down = sub_poset(base, base.strict[top] | {top})
        # stages only shrink, so each one as small as the down-set is fully
        # glued (the last may be the down-set itself, under its own names)
        stages = reconstruct_down(base, top).stages
        glued = [s.poset for s in stages if len(s.poset.elements) == len(down.elements)]
        assert glued and all(poset_iso(p, down) is not None for p in glued)


@contextlib.contextmanager
def public_rebuilds():
    """Wrap both trusted constructors so that every value they build is
    also rebuilt through the public constructor, which must give an equal
    value with the same key order (the public one keys its maps in element
    order).  Yields the count of values built, by class."""
    built = Counter()
    poset_trusted, pair_trusted = LabelledPoset._trusted.__func__, PrimePair._trusted.__func__

    def poset(cls, elements, strict, labels):
        public = LabelledPoset(elements, strict, labels)
        value = poset_trusted(cls, elements, strict, labels)
        assert value == public and type(value.elements) is tuple
        assert list(value.strict) == list(public.strict) and list(value.labels) == list(public.labels)
        built["poset"] += 1
        return value

    def pair(cls, primes, rel):
        value = pair_trusted(cls, primes, rel)
        assert value == PrimePair(primes, rel) and type(primes) is tuple and type(rel) is frozenset
        built["pair"] += 1
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LabelledPoset, "_trusted", classmethod(poset))
        mp.setattr(PrimePair, "_trusted", classmethod(pair))
        yield built


def _surgery_through(base):
    for top in sorted(base.maximal()):
        build_F(base, top)
        sub_poset(base, base.strict[top] | {top})
        reconstruct_down(base, top).monoids()
    assemble(base)
    from_poset(base)


@pytest.mark.hashseed
def test_trusted_values_pass_the_public_constructors():
    with public_rebuilds() as built:
        for n in range(7):
            for base in enumerate_posets(n):
                _surgery_through(base)
    assert built["poset"] > 406 and built["pair"] > 406


@pytest.mark.hashseed
@settings(max_examples=25, derandomize=True, deadline=None)
@given(layered_posets())
def test_trusted_values_pass_the_public_constructors_on_layered_posets(base):
    with public_rebuilds() as built:
        _surgery_through(base)
    assert built["poset"] and built["pair"]


def full_rebuild_merge(poset, psi, mu):
    """The poset-level crowned pushout as it was before untouched survivors
    kept their down-sets: every survivor's down-set, covers and labels are
    rebuilt.  Kept as the reference."""
    survivors = [e for e in poset.elements if mu[e] == e]
    strict = {p: frozenset(mu[q] for q in poset.strict[p]) for p in survivors}
    labels = {}
    for p in survivors:
        covers = compute_lower_covers(strict, p)
        if covers:
            old = poset.labels[p]
            rank = {mu[c]: i for i, c in enumerate(old)} | {c: i for i, c in enumerate(old)}
            labels[p] = tuple(sorted(covers, key=lambda c: (rank.get(c, len(old)), c)))
    return LabelledPoset._trusted(tuple(survivors), strict, labels), {e: psi[e] for e in survivors}


def seeded_layered_posets(count):
    """Layers of width 3-4 with 12-20 elements in all, as the surgery
    benchmark draws them: each element above the bottom layer covers one
    or two of the layer below, in a random label order."""
    rng = random.Random(104729)
    out = []
    while len(out) < count:
        widths = [rng.randint(3, 4) for _ in range(rng.randint(3, 5))]
        if not 12 <= sum(widths) <= 20:
            continue
        layers = [[f"v{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
        covers = []
        for lower, upper in zip(layers, layers[1:]):
            for p in upper:
                covers += [(q, p) for q in rng.sample(lower, rng.randint(1, 2))]
        elements = [e for layer in layers for e in layer]
        plain = make_poset(elements, covers)
        labels = {p: tuple(rng.sample(qs, len(qs))) for p, qs in plain.labels.items()}
        out.append(make_poset(elements, covers, labels))
    return out


def surgery_bases():
    return [base for n in range(7) for base in enumerate_posets(n)] + seeded_layered_posets(50)


def _ordered(poset):
    return poset.elements, list(poset.strict.items()), list(poset.labels.items())


def surgery_record(base):
    """Every reconstruct_down and assemble output of base, with the key
    order of each map."""
    out = []
    for top in sorted(base.maximal()):
        rec = reconstruct_down(base, top)
        out.append([(_ordered(s.poset), list(s.psi.items())) for s in rec.stages])
        out.append([list(step.items()) for step in rec.step_maps])
    asm = assemble(base)
    out.append((_ordered(asm.poset), list(asm.psi.items()), asm.gluings))
    return out


@contextlib.contextmanager
def merges_that_keep_untouched_survivors():
    """Wrap the merge so that every survivor whose down-set misses the
    moved elements must come back with the very frozenset and label tuple
    it had.  Yields the count of such survivors seen."""
    kept = Counter()
    merge = constructions._merge_lower_parts

    def checked(poset, psi, mu):
        new, new_psi = merge(poset, psi, mu)
        moved = {e for e in poset.elements if mu[e] != e}
        for p in new.elements:
            if moved.isdisjoint(poset.strict[p]):
                assert new.strict[p] is poset.strict[p] and new.labels.get(p) is poset.labels.get(p)
                kept["survivors"] += 1
        return new, new_psi

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_merge_lower_parts", checked)
        yield kept


def assert_merge_matches_full_rebuild(bases):
    with merges_that_keep_untouched_survivors() as kept:
        got = [surgery_record(base) for base in bases]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(constructions, "_merge_lower_parts", full_rebuild_merge)
        assert got == [surgery_record(base) for base in bases]
    return kept["survivors"]


@pytest.mark.hashseed
def test_merge_matches_the_full_rebuild():
    assert assert_merge_matches_full_rebuild(surgery_bases()) > 0


@pytest.mark.hashseed
@settings(max_examples=40, derandomize=True, deadline=None)
@given(layered_posets())
def test_merge_matches_the_full_rebuild_on_layered_posets(base):
    assert_merge_matches_full_rebuild([base])


def per_glue_overlap(poset, psi, covered, fresh):
    """One gluing as it was before each stage merged once: the poset is
    merged at once and the glued poset, psi, element map and merged part
    come back.  Kept with the two functions below as the reference."""
    common = {psi[x] for x in covered} & {psi[x] for x in fresh}
    if not common:
        return poset, psi, {e: e for e in poset.elements}, covered | fresh
    z1 = {x for x in covered if psi[x] in common}
    z2 = {x for x in fresh if psi[x] in common}
    constructions._by_image(psi, z2, "fresh")
    partner = constructions._by_image(psi, z1, "covered")
    if z1 & z2:
        raise PosetError("the lower parts to glue overlap")
    mu = {e: partner[psi[e]] if e in z2 else e for e in poset.elements}
    new_poset, new_psi = constructions._merge_lower_parts(poset, psi, mu)
    return new_poset, new_psi, mu, {mu[x] for x in covered | fresh}


def per_glue_reconstruct_down(base, top):
    unf = build_F(base, top)
    poset, psi = unf.result.poset, dict(unf.result.psi)
    depths = _depths(poset)
    r = max(depths.values())
    stages = [constructions.MappedPoset(poset, dict(psi))]
    step_maps = []
    for i in range(max(r - 1, 0)):
        d = r - i - 2
        total_mu = {e: e for e in poset.elements}
        for q in sorted(e for e in poset.elements if depths[e] == d):
            covers = lower_covers(poset, q)
            if len(covers) < 2:
                continue
            covered = poset.strict[covers[0]] | {covers[0]}
            for v in covers[1:]:
                fresh = poset.strict[v] | {v}
                poset, psi, mu, covered = per_glue_overlap(poset, psi, covered, fresh)
                total_mu = {e: mu[x] for e, x in total_mu.items()}
        stages.append(constructions.MappedPoset(poset, dict(psi)))
        step_maps.append(total_mu)
    target = sub_poset(base, base.strict[top] | {top})
    if poset.elements != target.elements:
        stages.append(constructions.MappedPoset(target, {e: e for e in target.elements}))
        step_maps.append(dict(psi))
    return stages, step_maps


def per_glue_assemble(base):
    constructions._reject_reserved(base, "~@")
    parts, strict, labels, psi = [], {}, {}, {}
    for m in sorted(base.maximal()):
        stages, _ = per_glue_reconstruct_down(base, m)
        last = stages[-1]
        tag = {e: f"{e}@{m}" for e in last.poset.elements}
        parts.append(set(tag.values()))
        strict.update((tag[p], frozenset(tag[q] for q in below)) for p, below in last.poset.strict.items())
        labels.update((tag[p], tuple(tag[q] for q in kids)) for p, kids in last.poset.labels.items())
        psi.update((tag[e], last.psi[e]) for e in tag)
    elements = tuple(sorted(strict))
    labels = {p: labels[p] for p in elements if p in labels}
    poset = LabelledPoset._trusted(elements, {p: strict[p] for p in elements}, labels)
    gluings, covered = 0, set()
    for fresh in parts:
        before = len(poset.elements)
        poset, psi, _, covered = per_glue_overlap(poset, psi, covered, fresh)
        gluings += len(poset.elements) != before
    return poset, psi, gluings


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _staged(stages, step_maps):
    return [(_ordered(s.poset), list(s.psi.items())) for s in stages], [list(m.items()) for m in step_maps]


def assert_stage_merges_match_the_per_glue_reference(base):
    for top in sorted(base.maximal()):
        rec = reconstruct_down(base, top)
        assert _staged(rec.stages, rec.step_maps) == _staged(*per_glue_reconstruct_down(base, top))
    asm = assemble(base)
    poset, psi, gluings = per_glue_assemble(base)
    assert (_ordered(asm.poset), list(asm.psi.items()), asm.gluings) == (_ordered(poset), list(psi.items()), gluings)
    return asm.gluings


@pytest.mark.hashseed
def test_stage_merges_match_the_per_glue_reference():
    assert sum(assert_stage_merges_match_the_per_glue_reference(base) for base in surgery_bases()) > 0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(layered_posets())
def test_stage_merges_match_the_per_glue_reference_on_layered_posets(base):
    assert_stage_merges_match_the_per_glue_reference(base)


def test_stage_merges_fail_like_the_per_glue_reference():
    tilde = make_poset(["a~1", "b"], [("a~1", "b")])
    at = make_poset(["a@1", "b"], [("a@1", "b")])
    for base, top in [(tilde, "b"), (fig2_poset(), "a"), (fig2_poset(), "zz"), (at, "b")]:
        got = _outcome(lambda: reconstruct_down(base, top).stages)
        want = _outcome(lambda: per_glue_reconstruct_down(base, top)[0])
        assert got == want
        assert _outcome(lambda: assemble(base).gluings) == _outcome(lambda: per_glue_assemble(base)[2])
    # the glue's own checks, on parts of the Fig. 2 poset
    fig2 = fig2_poset()
    one_image = {e: "a" for e in fig2.elements}
    cases = [
        (one_image, {"p"}, {"a", "b"}),
        (one_image, {"a", "b"}, {"p"}),
        ({e: e for e in fig2.elements}, {"a"}, {"a", "b"}),
    ]
    messages = set()
    for psi, covered, fresh in cases:
        got = _outcome(_glue_overlap, psi, covered, fresh, {})
        assert got == _outcome(per_glue_overlap, fig2, psi, covered, fresh) and got[0] is PosetError
        messages.add(got[1])
    assert len(messages) == 3


def assert_tree_depths_hold(base):
    """At each gluing stage of depth d, the current poset's depths agree
    with the tree's on every element of depth <= d, and the tree's
    deepest element gives the height of the down-set; reconstruct_down
    reads the depths once."""
    calls = Counter()

    def counted(poset):
        calls["depths"] += 1
        return _depths(poset)

    for top in sorted(base.maximal()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "_depths", counted)
            rec = reconstruct_down(base, top)
        tree = _depths(rec.stages[0].poset)
        r = max(tree.values())
        assert r == height(base, top)
        for i in range(max(r - 1, 0)):
            d = r - i - 2
            current = _depths(rec.stages[i].poset)
            assert {e: k for e, k in current.items() if k <= d} == {e: tree[e] for e in current if tree[e] <= d}
    assert calls["depths"] == len(base.maximal())


def test_tree_depths_serve_every_stage():
    for base in surgery_bases():
        assert_tree_depths_hold(base)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(layered_posets())
def test_tree_depths_serve_every_stage_on_layered_posets(base):
    assert_tree_depths_hold(base)
