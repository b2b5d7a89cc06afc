import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import (
    PosetError,
    enumerate_posets,
    fig2_poset,
    lower_covers,
    make_poset,
    maximal_chains,
    parse_poset,
    poset_iso,
)
from posetalg.primon import (
    MonoidError,
    PrimePair,
    ZERO,
    from_pair,
    from_poset,
    ideal_from_lower_set,
    monoid_iso,
    quotient,
)
from posetalg.constructions import (
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


# -- amalgamated pushout --------------------------------------------------------


def test_amalgam_full_gluing_is_identity_like():
    m = zplus()
    ideal = ideal_from_lower_set(m, {"g"})
    out = amalgam_pushout(m, m, ideal, {"g": "g"})
    assert monoid_iso(out.monoid, m) is not None


def test_amalgam_trivial_ideal_gives_product():
    m = zplus()
    ideal = ideal_from_lower_set(m, set())
    out = amalgam_pushout(m, m, ideal, {})
    free2 = from_poset(make_poset(["x", "y"], []))
    assert monoid_iso(out.monoid, free2) is not None


def test_amalgam_two_chains_glued_along_bottoms():
    chain = from_poset(make_poset(["a", "p"], [("a", "p")]))
    ideal = ideal_from_lower_set(chain, {"a"})
    out = amalgam_pushout(chain, chain, ideal, {"a": "a"})
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
    q, _ = quotient(out.monoid, out.ideal)
    prod = from_poset(make_poset(["x", "y"], []))
    assert monoid_iso(q, prod) is not None


def test_amalgam_rejects_bad_map():
    chain = from_poset(make_poset(["a", "p"], [("a", "p")]))
    ideal = ideal_from_lower_set(chain, {"a"})
    with pytest.raises(MonoidError):
        amalgam_pushout(chain, chain, ideal, {"a": "p"})  # image not an ideal


# -- crowned pushout --------------------------------------------------------------


def two_disjoint_chains():
    return from_poset(
        make_poset(["b1", "q1", "b2", "q2"], [("b1", "q1"), ("b2", "q2")])
    )


def test_crowned_pushout_bottom_merge():
    p2 = two_disjoint_chains()
    i1 = ideal_from_lower_set(p2, {"b1"})
    i2 = ideal_from_lower_set(p2, {"b2"})
    out = crowned_pushout(p2, i1, i2, {"b1": "b2"})
    assert set(out.monoid.primes) == {"b1", "q1", "q2"}
    assert ("b1", "q2") in out.monoid.pair.rel
    assert monoid_iso(out.monoid, from_poset(w_poset())) is not None
    # prime count and freeness per the structure result
    assert len(out.monoid.primes) == len(p2.primes) - len(i2.prime_set)
    for p in out.monoid.primes:
        assert out.monoid.is_free(p) == p2.is_free(p)
    # Q/Z iso P/(I+I')
    qz, _ = quotient(out.monoid, out.ideal)
    pii, _ = quotient(p2, ideal_from_lower_set(p2, {"b1", "b2"}))
    assert monoid_iso(qz, pii) is not None


def test_crowned_pushout_trivial():
    p2 = two_disjoint_chains()
    empty = ideal_from_lower_set(p2, set())
    out = crowned_pushout(p2, empty, empty, {})
    assert monoid_iso(out.monoid, p2) is not None


def test_crowned_pushout_product_factors():
    prod = from_poset(make_poset(["x", "y"], []))
    ix = ideal_from_lower_set(prod, {"x"})
    iy = ideal_from_lower_set(prod, {"y"})
    out = crowned_pushout(prod, ix, iy, {"x": "y"})
    assert monoid_iso(out.monoid, zplus()) is not None
    assert verify_coequalizer(prod, ix, iy, {"x": "y"}, out, 4) is None


def test_crowned_pushout_rejects_overlap():
    p2 = two_disjoint_chains()
    i1 = ideal_from_lower_set(p2, {"b1"})
    with pytest.raises(MonoidError):
        crowned_pushout(p2, i1, i1, {"b1": "b1"})


def test_verify_coequalizer():
    p2 = two_disjoint_chains()
    i1 = ideal_from_lower_set(p2, {"b1"})
    i2 = ideal_from_lower_set(p2, {"b2"})
    phi = {"b1": "b2"}
    out = crowned_pushout(p2, i1, i2, phi)
    assert verify_coequalizer(p2, i1, i2, phi, out, 4) is None
    # trivial case
    empty = ideal_from_lower_set(p2, set())
    triv = crowned_pushout(p2, empty, empty, {})
    assert verify_coequalizer(p2, empty, empty, {}, triv, 4) is None
    # a deliberately wrong pushout (missing the added relation) is caught
    from posetalg.constructions import CrownedPushout
    from posetalg.primon import OrderIdeal, PrimitiveMonoid

    wrong_monoid = PrimitiveMonoid(
        PrimePair(("b1", "q1", "q2"), frozenset({("b1", "q1")}))
    )
    wrong = CrownedPushout(
        wrong_monoid,
        {"b1": "b1", "q1": "q1", "q2": "q2", "b2": "b1"},
        OrderIdeal(wrong_monoid, frozenset({"b1"})),
    )
    assert verify_coequalizer(p2, i1, i2, phi, wrong, 4) is not None


# -- pullback ---------------------------------------------------------------------


def test_pullback_fig2():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p"], [("b", "p")]))
    n1 = ideal_from_lower_set(m1, {"a"})
    n2 = ideal_from_lower_set(m2, {"b"})
    pb = pullback_primitive(m1, n1, m2, n2)
    assert monoid_iso(pb.monoid, from_poset(fig2_poset())) is not None
    assert verify_pullback_universal(pb, m1, n1, m2, n2, 3) is None
    # composing either projection with the quotient map gives the same map
    s1, pr1 = quotient(m1, n1)
    s2, pr2 = quotient(m2, n2)
    for z in pb.monoid.elements(4):
        left = map_elem(s2, pb.quotient_iso, pr1(pb.p1(z)))
        assert left == pr2(pb.p2(z))


def test_pullback_trivial_ideals():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    n0 = ideal_from_lower_set(m1, set())
    pb = pullback_primitive(m1, n0, m1, n0)
    assert monoid_iso(pb.monoid, m1) is not None
    assert verify_pullback_universal(pb, m1, n0, m1, n0, 3) is None


def test_pullback_diamond_reconstruction():
    c1 = from_poset(make_poset(["b1", "q1", "p"], [("b1", "q1"), ("q1", "p")]))
    c2 = from_poset(make_poset(["b2", "q2", "p"], [("b2", "q2"), ("q2", "p")]))
    n1 = ideal_from_lower_set(c1, {"b1", "q1"})
    n2 = ideal_from_lower_set(c2, {"b2", "q2"})
    pb = pullback_primitive(c1, n1, c2, n2)
    tree = make_poset(
        ["b1", "q1", "b2", "q2", "p"],
        [("b1", "q1"), ("b2", "q2"), ("q1", "p"), ("q2", "p")],
    )
    assert monoid_iso(pb.monoid, from_poset(tree)) is not None
    assert verify_pullback_universal(pb, c1, n1, c2, n2, 3) is None


def test_pullback_hypothesis_validated():
    # N's primes must sit below every outside prime
    m1 = from_poset(make_poset(["a", "p", "x"], [("a", "p")]))
    n1 = ideal_from_lower_set(m1, {"a"})
    m2 = from_poset(make_poset(["b", "p", "x"], [("b", "p")]))
    n2 = ideal_from_lower_set(m2, {"b"})
    with pytest.raises(MonoidError):
        pullback_primitive(m1, n1, m2, n2)


def test_pullback_rejects_nonisomorphic_quotients():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p", "r"], [("b", "p"), ("b", "r")]))
    n1 = ideal_from_lower_set(m1, {"a"})
    n2 = ideal_from_lower_set(m2, {"b"})
    with pytest.raises(MonoidError):
        pullback_primitive(m1, n1, m2, n2)


def test_pullback_rejects_supplied_iso_that_is_not_a_bijection():
    # both quotient primes sent to a: keys and relation image look right
    m = from_poset(make_poset(["a", "b", "z"], [("z", "a"), ("z", "b")]))
    n = ideal_from_lower_set(m, {"z"})
    with pytest.raises(MonoidError, match="supplied quotient isomorphism is invalid"):
        pullback_primitive(m, n, m, n, iso={"a": "a", "b": "a"})
    swap = {"a": "b", "b": "a"}
    assert pullback_primitive(m, n, m, n, iso=swap).quotient_iso == swap


def test_pullback_universal_detects_corruption():
    m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
    m2 = from_poset(make_poset(["b", "p"], [("b", "p")]))
    n1 = ideal_from_lower_set(m1, {"a"})
    n2 = ideal_from_lower_set(m2, {"b"})
    pb = pullback_primitive(m1, n1, m2, n2)
    # drop a prime from the pullback: universality must fail
    from posetalg.constructions import PullbackPrimitive
    from posetalg.primon import OrderIdeal, PrimitiveMonoid

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
    assert verify_pullback_universal(crippled, m1, n1, m2, n2, 2) is not None


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


def test_sub_poset_rejects_unknown_members():
    with pytest.raises(PosetError, match="unknown element 'zz'"):
        sub_poset(fig2_poset(), {"zz"})


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
        _glue_overlap(poset, psi, {"a"}, {"a", "b"})


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
