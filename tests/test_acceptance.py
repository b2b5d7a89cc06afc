"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line; stated runtime budgets are
asserted where the criterion carries one.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from posetalg.poset import (
    enumerate_posets,
    fig2_poset,
    lower_covers,
    lower_sets,
    make_poset,
)
from posetalg.primon import (
    OrderIdeal,
    PrimitiveMonoid,
    check_refinement,
    check_separative,
    check_strongly_separative,
    enumerate_prime_pairs,
    from_poset,
    intro_mixed_pair,
    monoid_iso,
    quotient,
)
from posetalg.constructions import (
    assemble,
    crowned_pushout,
    pullback_primitive,
    verify_coequalizer,
    verify_pullback_universal,
)
from posetalg.graphmon import build_Er, check_Er_equals_chain, hereditary_saturated
from posetalg.ratfunc import Poly, RatFunc, t_poly
from posetalg.leavitt import generator, grade, in_ideal, one
from posetalg import toeplitz as tp


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL  {title}")
        raise
    print(f"criterion {number:2d}: PASS  {title}")


def diamond():
    return make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


def w_poset():
    return make_poset(["b", "p1", "p2"], [("b", "p1"), ("b", "p2")])


def chain(n):
    ids = [f"c{i}" for i in range(n + 1)]
    return make_poset(ids, [(ids[i], ids[i + 1]) for i in range(n)])


def test_criterion_01_pullback_reproduces_fig2():
    with criterion(1, "pullback of the two chain monoids is the Fig.-2 monoid"):
        t0 = time.monotonic()
        m1 = from_poset(make_poset(["a", "p"], [("a", "p")]))
        m2 = from_poset(make_poset(["b", "p"], [("b", "p")]))
        n1 = OrderIdeal(m1, {"a"})
        n2 = OrderIdeal(m2, {"b"})
        pb = pullback_primitive(n1, n2)
        witness = monoid_iso(pb.monoid, from_poset(fig2_poset()))
        assert witness is not None
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, f"took {elapsed:.2f}s (budget 1s)"


def test_criterion_02_pipeline_soundness_catalogue():
    with criterion(2, "assemble == from_poset on every poset with <= 5 elements"):
        t0 = time.monotonic()
        posets = [p for n in range(6) for p in enumerate_posets(n)]
        posets += [diamond(), w_poset()]
        for poset in posets:
            asm = assemble(poset)
            assert monoid_iso(asm.monoid, from_poset(poset)) is not None, poset.elements
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"took {elapsed:.1f}s (budget 120s)"


def test_criterion_03_refinement_and_separativity():
    with criterion(3, "refinement and separativity across the <=5-prime catalogue"):
        catalogue = enumerate_prime_pairs(5)
        for pair in catalogue:
            m = PrimitiveMonoid(pair)
            assert check_refinement(m, 3) is None, pair
            all_free = all(m.is_free(p) for p in m.primes)
            assert (check_strongly_separative(m, 3) is None) == all_free, pair
            assert check_separative(m, 3) is None, pair
        mixed = PrimitiveMonoid(intro_mixed_pair())
        witness = check_strongly_separative(mixed, 4)
        assert witness is not None
        a, b = witness
        assert mixed.add(a, a) == mixed.add(a, b) and a != b
        assert check_separative(mixed, 4) is None


def test_criterion_04_phi_embedding():
    with criterion(4, "equality coincides with the counting tuple; additivity exact"):
        for pair in enumerate_prime_pairs(5):
            m = PrimitiveMonoid(pair)
            seen = {}
            for x in m.elements(4):
                key = m.phi(x).values
                assert key not in seen, (pair, x, seen[key])
                seen[key] = x
            els = m.elements(2)
            for x, y in itertools.product(els, repeat=2):
                assert m.phi(m.add(x, y)).values == m.phi(x).add(m.phi(y)).values


def test_criterion_05_crowned_pushout():
    with criterion(5, "crowned pushout of the disjoint chains: structure and coequalizer"):
        p2 = from_poset(
            make_poset(["b1", "q1", "b2", "q2"], [("b1", "q1"), ("b2", "q2")])
        )
        i1 = OrderIdeal(p2, {"b1"})
        i2 = OrderIdeal(p2, {"b2"})
        phi = {"b1": "b2"}
        out = crowned_pushout(i1, i2, phi)
        assert len(out.monoid.primes) == len(p2.primes) - len(i2.prime_set)
        for p in out.monoid.primes:
            assert out.monoid.is_free(p) == p2.is_free(p)
        qz, _ = quotient(out.ideal)
        pii, _ = quotient(OrderIdeal(p2, {"b1", "b2"}))
        assert monoid_iso(qz, pii) is not None
        assert verify_coequalizer(i1, phi, out, 4) is None


def test_criterion_06_graph_monoids():
    with criterion(6, "loop-chain monoids match chain posets; lattice size r+2"):
        for r in range(4):
            assert check_Er_equals_chain(r, 4) is None
            assert len(hereditary_saturated(build_Er(r))) == r + 2


def _suite_sample_vectors(space, depth):
    return tp.sample_vectors(space, depth)


@pytest.mark.hashseed
def test_criterion_07_algebra_relations():
    with criterion(7, "all defining relations hold in the representation at depth 6"):
        t0 = time.monotonic()
        for poset in [fig2_poset(), chain(1), chain(2), chain(3), diamond()]:
            space = tp.build_space(poset)
            samples = _suite_sample_vectors(space, 6)
            for name, lhs, rhs in tp.relation_suite(poset):
                bad = tp.check_relation(space, lhs, rhs, samples)
                assert bad is None, (poset.elements, name)
        baby = make_poset(["q", "p"], [("q", "p")])
        bspace = tp.build_space(baby)
        one_ = Fraction(1)
        assert (
            tp.check_relation(
                bspace,
                [(one_, [("alphabar", "p", "q"), ("alpha", "p", "q")])],
                [(one_, [("e", "p")])],
            )
            is None
        )
        assert (
            tp.check_relation(
                bspace,
                [(one_, [("alpha", "p", "q"), ("alphabar", "p", "q")])],
                [(one_, [("e", "p")])],
            )
            is not None
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"took {elapsed:.1f}s (budget 300s)"


def _twenty_sample_vectors(space):
    base = tp.sample_vectors(space, 3)
    out = list(base)
    t1 = RatFunc(t_poly(1))
    for v in base:
        out.append(v.scale(t1))
        if len(out) >= 20:
            break
    return out[:20]


def test_criterion_08_oracle_equivalence():
    with criterion(8, "200 random elements act identically via both routes"):
        poset = fig2_poset()
        space = tp.build_space(poset)
        gens = [("e", p) for p in poset.elements]
        for p in poset.elements:
            for q in lower_covers(poset, p):
                gens += [
                    (k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")
                ]
        gens += [("t", 1), ("t", 2)]
        rng = random.Random(20240901)
        samples = _twenty_sample_vectors(space)
        assert len(samples) == 20
        for _ in range(200):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            x = one(poset)
            for g in word:
                x = x * generator(poset, *g)
            top = [
                ("scalar", RatFunc(t_poly(g[1]))) if g[0] == "t" else g for g in word
            ]
            for v in samples:
                assert tp.act_word(space, top, v) == tp.act_element(space, x, v)
        # exhaustive sandwich identities over exponent range [-2, 2]
        covers = lower_covers(poset, "p")
        for exps in itertools.product(range(-2, 3), repeat=len(covers)):
            mono = one(poset)
            for q, e in zip(covers, exps):
                kind = "alpha" if e > 0 else "alphabar"
                for _ in range(abs(e)):
                    mono = mono * generator(poset, kind, "p", q)
            for q1, q2 in itertools.product(covers, repeat=2):
                res = (
                    generator(poset, "betabar", "p", q1)
                    * mono
                    * generator(poset, "beta", "p", q2)
                )
                if q1 != q2:
                    assert res.is_zero()
                else:
                    for key in res.terms:
                        assert not key.left and not key.right and not key.powers
                        assert key.mid == q1


def test_criterion_09_truncated_inverses():
    with criterion(9, "truncated inverses exact up to their depth; gate rejects"):
        poset = fig2_poset()
        space = tp.build_space(poset)
        half = Fraction(1, 2)
        fs = [
            tp.sigma_poly(poset, "p", {(): 1}),
            tp.sigma_poly(poset, "p", {(): 3}),
            tp.sigma_poly(poset, "p", {(): 1, ("a",): -1}),
            tp.sigma_poly(poset, "p", {(): 1, ("b",): 1}),
            tp.sigma_poly(poset, "p", {(): 1, ("a",): 1, ("b",): -1}),
            tp.sigma_poly(poset, "p", {(): 1, ("a", "b"): 1}),
            tp.sigma_poly(poset, "p", {(): 1, ("a", "a"): half}),
            tp.sigma_poly(poset, "p", {(): 2, ("b", "b"): -1}),
            tp.sigma_poly(poset, "p", {(): 1, ("a",): half, ("b",): half}),
            tp.sigma_poly(poset, "p", {(): 1, ("a", "b"): -2, ("a",): 1}),
        ]
        assert len(fs) == 10
        depth = 6
        for f in fs:
            assert f.valuation(poset) == 0
            for branch, leaf in ((1, (("p", 1), ("a", 0))), (2, (("p", 2), ("b", 0)))):
                zeta = tp.zvar("p", branch)
                for d in range(0, depth + 1):
                    v = tp.leaf_vector(space, leaf, Poly.var(zeta, d))
                    inv = tp.invert_sigma(space, f, v, depth)
                    assert tp.act_sigma(space, f, inv) == v, (f.poly, branch, d)
        for bad in [
            tp.sigma_poly(poset, "p", {("a",): 1}),
            tp.sigma_poly(poset, "p", {("a",): 1, ("a", "b"): 1}),
        ]:
            with pytest.raises(Exception):
                tp.invert_sigma(
                    space, bad, tp.leaf_vector(space, (("p", 1), ("a", 0))), depth
                )


def test_criterion_10_ideal_lattice_graded_components():
    with criterion(10, "lower sets embed as ideals at the graded-component level"):
        poset = fig2_poset()

        def component_pairs(lower):
            members = set(lower)
            gens = []
            for p in poset.elements:
                gens.append(generator(poset, "e", p))
                for q in lower_covers(poset, p):
                    gens.append(generator(poset, "beta", p, q))
                    gens.append(generator(poset, "betabar", p, q))
                    gens.append(generator(poset, "epq", p, q))
            pairs = set()
            for x in gens:
                for pair, comp in grade(x).items():
                    if pair[0][-1] in members:
                        pairs.add(pair)
                        assert in_ideal(comp, members)
            return pairs

        lowers = [frozenset(ls.members) for ls in lower_sets(poset)]
        seen = {}
        for low in lowers:
            key = frozenset(component_pairs(low))
            assert key not in seen or seen[key] == low  # injective
            seen[key] = low
        assert len(seen) == len(lowers)
        for a, b in itertools.combinations(lowers, 2):
            pa, pb = component_pairs(a), component_pairs(b)
            assert component_pairs(a | b) == pa | pb
            assert component_pairs(a & b) == pa & pb
        # and the membership predicate respects meets and joins on elements
        x_a = generator(poset, "beta", "p", "a")
        x_b = generator(poset, "e", "b")
        assert in_ideal(x_a, {"a"}) and in_ideal(x_b, {"b"})
        assert in_ideal(x_a + x_b, {"a", "b"})
        assert not in_ideal(x_a + x_b, {"a"})
        assert not in_ideal(generator(poset, "e", "p"), {"a", "b"})
