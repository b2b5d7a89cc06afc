import functools
import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import (
    _above_masks,
    _automorphisms,
    _canonical_mask,
    _natural_relation,
    enumerate_posets,
    fig2_poset,
    make_poset,
    relation_iso,
    transitive_closure,
)
from posetalg.primon import (
    INF,
    MonoidError,
    PrimePair,
    PrimitiveMonoid,
    ZERO,
    apw_graph_shape,
    check_refinement,
    check_separative,
    check_strongly_separative,
    congruence_oracle,
    enumerate_prime_pairs,
    from_pair,
    from_poset,
    ideal_from_lower_set,
    intro_mixed_pair,
    monoid_iso,
    monoid_to_json,
    order_ideal,
    presentation_of,
    quotient,
)


def unchecked_pair(primes, rel) -> PrimePair:
    """A PrimePair built around its validation, for a corrupted relation."""
    pp = object.__new__(PrimePair)
    object.__setattr__(pp, "primes", tuple(primes))
    object.__setattr__(pp, "rel", frozenset(rel))
    return pp


def pair_from_json(text) -> PrimePair:
    data = json.loads(text)
    return PrimePair(tuple(sorted(data["primes"])), frozenset(tuple(t) for t in data["rel"]))


def fig2_monoid():
    return from_poset(fig2_poset())


def small_catalogue(max_primes=4):
    return [PrimitiveMonoid(pp) for pp in enumerate_prime_pairs(max_primes)]


def leq(m, x, y, bound=None):
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
        prime_pool |= {q for q in m.primes if p in m.strictly_above[q] or (q == p)}
    pool = sorted(prime_pool)
    for combo in itertools.product(range(bound + 1), repeat=len(pool)):
        z = dict(zip(pool, combo))
        if m.add(x, m.reduce(z)) == y:
            return True
    return False


def phi_bruteforce(m, g, x, nmax=6, zbound=3):
    """sup{n <= nmax : n*g <= x} computed by the definition."""
    best = 0
    for n in range(1, nmax + 1):
        if leq(m, m.reduce({g: n}), x, bound=zbound):
            best = n
        else:
            return best
    return INF


# -- construction --------------------------------------------------------------


def test_from_poset_fig2():
    m = fig2_monoid()
    assert set(m.primes) == {"a", "b", "p"}
    assert ("a", "p") in m.pair.rel and ("b", "p") in m.pair.rel
    assert all(m.is_free(p) for p in m.primes)


def test_from_poset_antichain_is_free_monoid():
    m = from_poset(make_poset(["x", "y", "z"], []))
    assert m.pair.rel == frozenset()
    x = m.reduce({"x": 2, "y": 1})
    assert x.as_dict() == {"x": 2, "y": 1}


def test_from_pair_mixed_and_consistency():
    m = from_pair(intro_mixed_pair())
    assert m.is_regular("q") and m.is_free("p")
    # q = 2q and q = q + p
    assert m.reduce({"q": 2}) == m.gen("q")
    assert m.add(m.gen("q"), m.gen("p")) == m.gen("q")
    # empty pair: the trivial monoid
    t = from_pair(PrimePair((), frozenset()))
    assert t.elements(3) == [ZERO]
    # agreeing with from_poset on a strict order
    fig2 = fig2_poset()
    rel = frozenset((q, p) for p in fig2.elements for q in fig2.strict[p])
    assert monoid_iso(from_pair(PrimePair(fig2.elements, rel)), fig2_monoid())


def test_pair_validation():
    with pytest.raises(MonoidError):
        PrimePair(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(MonoidError):
        PrimePair(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(MonoidError):
        PrimePair(("a",), frozenset({("a", "zz")}))
    with pytest.raises(MonoidError, match="duplicate primes"):
        PrimePair(("a", "a"), frozenset())


# -- reduction ------------------------------------------------------------------


def test_reduce_examples():
    m = fig2_monoid()
    assert m.reduce({"p": 1, "a": 1}) == m.gen("p")
    assert m.reduce({}) == ZERO
    assert m.reduce({"p": 2, "a": 1, "b": 3}) == m.reduce({"p": 2})


def test_reduce_idempotent_and_order_independent():
    rng = random.Random(0)
    for m in small_catalogue(3):
        for _ in range(20):
            word = {p: rng.randint(0, 3) for p in m.primes}
            red = m.reduce(word)
            assert m.reduce(red.as_dict()) == red
            # confluence surrogate: summing the generators one at a time in
            # any order gives the same reduced form
            gens = [p for p, n in word.items() for _ in range(n)]
            for _ in range(3):
                rng.shuffle(gens)
                acc = ZERO
                for g in gens:
                    acc = m.add(acc, m.gen(g))
                assert acc == red


def test_reduce_unknown_prime():
    with pytest.raises(MonoidError):
        fig2_monoid().reduce({"zz": 1})


def test_add_equal_leq():
    m = fig2_monoid()
    a, p = m.gen("a"), m.gen("p")
    assert leq(m, a, p)
    assert not leq(m, p, a)
    assert leq(m, p, p)
    assert m.add(a, p) == p


def test_leq_validated_against_phi_monotonicity():
    for m in small_catalogue(3):
        els = m.elements(2)
        for x, y in itertools.product(els, repeat=2):
            if leq(m, x, y):
                assert m.phi(x).leq(m.phi(y))


# -- phi ---------------------------------------------------------------------


def test_phi_fig2():
    m = fig2_monoid()
    t = m.phi(m.gen("p"))
    assert t["p"] == 1 and t["a"] == INF and t["b"] == INF
    assert all(v == 0 for _, v in m.phi(ZERO).values)


def test_phi_regular():
    m = from_pair(intro_mixed_pair())
    assert m.phi(m.gen("q"))["q"] == INF


def test_phi_against_bruteforce_sup():
    for m in small_catalogue(3):
        for x in m.elements(2):
            for g in m.primes:
                assert m.phi(x)[g] == phi_bruteforce(m, g, x, nmax=5, zbound=3)


def test_phi_additive_and_embedding():
    for m in small_catalogue(3):
        els = m.elements(2)
        for x, y in itertools.product(els, repeat=2):
            assert m.phi(m.add(x, y)).values == m.phi(x).add(m.phi(y)).values
        seen = {}
        for x in m.elements(4):
            key = m.phi(x).values
            assert key not in seen, (x, seen[key])
            seen[key] = x


# -- ideals and quotients -------------------------------------------------------


def test_order_ideal_examples():
    m = fig2_monoid()
    assert order_ideal(m, m.gen("p")).prime_set == {"a", "b", "p"}
    assert order_ideal(m, ZERO).prime_set == frozenset()
    ia = order_ideal(m, m.gen("a"))
    assert ia.prime_set == {"a"}
    assert m.gen("a") in ia and m.gen("p") not in ia


def test_ideal_lattice_correspondence():
    # lower sets of primes correspond to order-ideals; unions and
    # intersections match sums and intersections of ideals
    for poset in enumerate_posets(4):
        m = from_poset(poset)
        lows = [
            frozenset(s)
            for k in range(len(m.primes) + 1)
            for s in itertools.combinations(m.primes, k)
            if all(
                q in s
                for p in s
                for q in m.primes
                if p in m.strictly_above[q]
            )
        ]
        for s1, s2 in itertools.combinations(lows, 2):
            i1 = ideal_from_lower_set(m, s1)
            i2 = ideal_from_lower_set(m, s2)
            union = ideal_from_lower_set(m, s1 | s2)
            inter = ideal_from_lower_set(m, s1 & s2)
            for x in m.elements(2):
                assert (x in inter) == (x in i1 and x in i2)
                if x in i1 or x in i2:
                    assert x in union


def test_ideal_rejects_non_lower():
    m = fig2_monoid()
    with pytest.raises(MonoidError):
        ideal_from_lower_set(m, {"p"})


def test_quotient():
    m = fig2_monoid()
    mq, proj = quotient(m, ideal_from_lower_set(m, {"a"}))
    assert set(mq.primes) == {"b", "p"}
    assert ("b", "p") in mq.pair.rel
    assert proj(m.gen("a")) == ZERO
    assert proj(m.add(m.gen("a"), m.gen("b"))) == mq.gen("b")
    whole, _ = quotient(m, ideal_from_lower_set(m, set(m.primes)))
    assert whole.primes == ()
    same, proj0 = quotient(m, ideal_from_lower_set(m, set()))
    assert monoid_iso(same, m) is not None


def test_quotient_projection_is_hom_with_kernel_ideal():
    for poset in enumerate_posets(4):
        m = from_poset(poset)
        for s in [frozenset(), frozenset(m.primes)] + [
            frozenset(down)
            for down in [
                {q for q in m.primes if p in m.strictly_above[q]} | {p}
                for p in m.primes
            ]
        ]:
            ideal = ideal_from_lower_set(m, s)
            mq, proj = quotient(m, ideal)
            for x, y in itertools.product(m.elements(2), repeat=2):
                assert proj(m.add(x, y)) == mq.add(proj(x), proj(y))
            for x in m.elements(2):
                if proj(x) == ZERO:
                    assert x in ideal


# -- free and regular -----------------------------------------------------------


def test_free_regular_flags():
    m = fig2_monoid()
    assert all(m.is_free(p) for p in m.primes)
    mm = from_pair(intro_mixed_pair())
    assert mm.is_regular("q") and not mm.is_regular("p")
    with pytest.raises(MonoidError):
        m.is_free("zz")


def test_elements_in_canonical_order():
    # primes listed out of name order: elements, reduce and add all list
    # an element's primes by name, so a + b is one element, not two
    m = from_pair(PrimePair(("b", "a"), frozenset()))
    for e in m.elements(2):
        assert e == m.reduce(e.as_dict())
    assert m.reduce({"b": 1, "a": 1}).coeffs == (("a", 1), ("b", 1))
    assert leq(m, m.gen("a"), m.reduce({"a": 1, "b": 1}))
    assert all(leq(m, m.gen("a"), e) for e in m.elements(2) if "a" in e.support())


# -- brute-force checkers --------------------------------------------------------


def test_refinement_fig2_and_free():
    assert check_refinement(fig2_monoid(), 3) is None
    free = from_poset(make_poset(["x", "y"], []))
    assert check_refinement(free, 3) is None


def test_refinement_all_valid_pairs_small():
    for m in small_catalogue(3):
        assert check_refinement(m, 3) is None


def test_refinement_raises_on_corrupted_rel():
    # non-transitive: b < a < c without b < c; the construction's proof
    # needs a valid pair, so its check fails and the equality is named
    m = PrimitiveMonoid(unchecked_pair(["a", "b", "c"], {("a", "c"), ("b", "a")}))
    with pytest.raises(MonoidError, match=r"0 \+ c = \(b \+ c\) \+ a .*not valid"):
        check_refinement(m, 2)
    # the named equality is no counterexample: [[0, 0], [b + c, a]] refines it
    a, c, bc = m.gen("a"), m.gen("c"), m.reduce({"b": 1, "c": 1})
    (z11, z12), (z21, z22) = (ZERO, ZERO), (bc, a)
    assert m.add(z11, z12) == ZERO and m.add(z21, z22) == c
    assert m.add(z11, z21) == bc and m.add(z12, z22) == a


def test_refinement_construction_certifies_catalogue():
    # every equality x1 + x2 = y1 + y2 of size <= 3 on <= 4 primes is
    # settled by the constructed matrix
    equalities = 0
    for m in small_catalogue(4):
        assert check_refinement(m, 3) is None, m.pair
        els = m.elements(3)
        groups = {}
        for i, x in enumerate(els):
            for y in els[i:]:
                s = m.add(x, y)
                groups[s] = groups.get(s, 0) + 1
        equalities += sum(g * (g - 1) // 2 for g in groups.values())
    assert equalities == 65038


@st.composite
def random_prime_pairs(draw):
    """A random strict order on up to 6 primes plus a random regular subset."""
    n = draw(st.integers(0, 6))
    ids = draw(st.permutations([f"g{i}" for i in range(n)]))
    covers = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]
    below = transitive_closure(ids, covers)
    regular = draw(st.sets(st.sampled_from(ids))) if ids else set()
    rel = {(q, p) for p in ids for q in below[p]} | {(r, r) for r in regular}
    return PrimePair(tuple(ids), frozenset(rel))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_prime_pairs())
def test_refinement_construction_on_random_pairs(pair):
    m = PrimitiveMonoid(pair)
    assert check_refinement(m, 2) is None


def test_separativity():
    m = fig2_monoid()
    assert check_strongly_separative(m, 3) is None
    assert check_separative(m, 3) is None
    mixed = from_pair(intro_mixed_pair())
    witness = check_strongly_separative(mixed, 4)
    assert witness is not None
    a, b = witness
    assert mixed.add(a, a) == mixed.add(a, b) and a != b
    assert "q" in a.support() or "q" in b.support() or a == ZERO or b == ZERO
    assert check_separative(mixed, 3) is None
    trivial = from_pair(PrimePair((), frozenset()))
    assert check_strongly_separative(trivial, 3) is None


def _separative_bruteforce(m, bound):
    elems = m.elements(bound)
    for a, b in itertools.product(elems, repeat=2):
        if a != b and m.add(a, a) == m.add(a, b) == m.add(b, b):
            return (a, b)
    return None


def test_separative_matches_bruteforce():
    for m in small_catalogue(3):
        assert check_separative(m, 3) == _separative_bruteforce(m, 3)


def _strongly_separative_bruteforce(m, bound):
    elems = m.elements(bound)
    for a, b in itertools.product(elems, repeat=2):
        if a != b and m.add(a, a) == m.add(a, b):
            return (a, b)
    return None


def test_strongly_separative_matches_bruteforce():
    mixed = from_pair(intro_mixed_pair())
    assert _strongly_separative_bruteforce(mixed, 4) is not None
    cases = [(m, 3) for m in small_catalogue(3)] + [(mixed, 4)]
    for m, bound in cases:
        assert check_strongly_separative(m, bound) == _strongly_separative_bruteforce(m, bound)


def test_strongly_separative_iff_all_free():
    for m in small_catalogue(3):
        all_free = all(m.is_free(p) for p in m.primes)
        assert (check_strongly_separative(m, 3) is None) == all_free


def test_apw_graph_shape():
    assert not apw_graph_shape(fig2_monoid())
    chain = from_poset(make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")]))
    assert apw_graph_shape(chain)
    diamond = from_poset(
        make_poset(["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")])
    )
    assert not apw_graph_shape(diamond)
    assert not apw_graph_shape(from_pair(intro_mixed_pair()))


def test_order_queries_over_pair_catalogue():
    # apw_graph_shape, order_ideal and the lower-set check of OrderIdeal
    # against their definitions on the relation
    for pair in enumerate_prime_pairs(4):
        m = PrimitiveMonoid(pair)
        below = {p: {q for q, r in pair.rel if r == p != q} for p in pair.primes}
        covers = {p: {q for q in below[p] if not any(q in below[r] for r in below[p])} for p in pair.primes}
        free = {p for p in pair.primes if (p, p) not in pair.rel}
        assert apw_graph_shape(m) == all(len(covers[p] & free) <= 1 for p in free)
        for k in range(len(pair.primes) + 1):
            for s in itertools.combinations(pair.primes, k):
                x = m.reduce(dict.fromkeys(s, 1))
                assert order_ideal(m, x).prime_set == set(s).union(*(below[p] for p in s))
                if all(below[p] <= set(s) for p in s):
                    assert ideal_from_lower_set(m, s).prime_set == set(s)
                else:
                    with pytest.raises(MonoidError, match="not lower"):
                        ideal_from_lower_set(m, s)


# -- congruence oracle -----------------------------------------------------------


def test_congruence_oracle_fig2():
    gens, rels = presentation_of(fig2_monoid())
    orc = congruence_oracle(gens, rels, 4)
    assert orc.equal({"p": 1, "a": 1}, {"p": 1})
    assert not orc.equal({"a": 1}, {"b": 1})


def test_congruence_oracle_no_relations():
    orc = congruence_oracle(["x", "y"], [], 3)
    assert orc.equal({"x": 1}, {"x": 1})
    assert not orc.equal({"x": 1}, {"y": 1})
    assert len(orc.classes()) == 10  # all words of degree <= 3 are distinct


def test_congruence_oracle_graph_relation():
    orc = congruence_oracle(["v0", "v1"], [({"v1": 1}, {"v1": 1, "v0": 1})], 4)
    assert orc.equal({"v1": 1}, {"v1": 1, "v0": 1})
    assert orc.equal({"v1": 1}, {"v1": 1, "v0": 3})
    assert not orc.equal({"v0": 1}, {"v1": 1})


def test_congruence_oracle_matches_reduce():
    for m in small_catalogue(3):
        gens, rels = presentation_of(m)
        orc = congruence_oracle(gens, rels, 4)
        els = m.elements(2)
        for x, y in itertools.product(els, repeat=2):
            assert orc.equal(x.as_dict(), y.as_dict()) == (x == y)


def test_congruence_oracle_bound_guard():
    orc = congruence_oracle(["x"], [], 2)
    with pytest.raises(MonoidError):
        orc.equal({"x": 3}, {"x": 3})


# -- iso and JSON -----------------------------------------------------------------


def test_monoid_iso():
    m1 = fig2_monoid()
    m2 = from_pair(PrimePair(("u", "v", "w"), frozenset({("u", "w"), ("v", "w")})))
    iso = monoid_iso(m1, m2)
    assert iso is not None and iso["p"] == "w"
    assert monoid_iso(m1, from_pair(intro_mixed_pair())) is None


def test_relation_iso_matches_permutation_search():
    # every pair with at most 3 primes against a relabelled copy of every
    # pair of its size; with 4 primes, against its own copy and the next
    # pair's (the pairs without regular primes are the posets)
    pairs = enumerate_prime_pairs(4)
    for n in range(5):
        same = [x for x in pairs if len(x.primes) == n]
        name = {f"g{j}": f"h{n - 1 - j}" for j in range(n)}
        for i, x in enumerate(same):
            for other in same if n <= 3 else same[i : i + 2]:
                rel = frozenset((name[q], name[p]) for q, p in other.rel)
                y = PrimePair(tuple(sorted(name.values())), rel)
                exists = any(
                    {(f[q], f[p]) for q, p in x.rel} == y.rel
                    for f in (dict(zip(x.primes, img)) for img in itertools.permutations(y.primes))
                )
                iso = relation_iso(x.primes, x.rel, y.primes, y.rel)
                assert (iso is not None) == exists
                if iso is not None:
                    assert sorted(iso) == sorted(x.primes) and sorted(iso.values()) == sorted(y.primes)
                    assert {(iso[q], iso[p]) for q, p in x.rel} == y.rel


def test_json_round_trip():
    m = from_pair(intro_mixed_pair())
    blob = monoid_to_json(m, elements=[m.gen("q"), m.reduce({"a": 2, "b": 1})])
    text = json.dumps(blob, sort_keys=True)
    assert '"q"' in text and '"inf"' in text
    back = pair_from_json(json.dumps({"primes": blob["primes"], "rel": blob["rel"]}))
    assert back == m.pair


# -- catalogue --------------------------------------------------------------------


def _brute_force_prime_pairs(max_primes):
    """The catalogue by definition: every strict order inside the natural
    order times every regular subset, in (mask, subset) order, keeping the
    first of each class under all n! relabellings (the enumerator before
    orderly generation)."""
    out = []
    for n in range(max_primes + 1):
        ids = [f"g{i}" for i in range(n)]
        pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for mask in range(1 << len(pairs)):
            rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
            if any((a, c) not in rel for a, b in rel for b2, c in rel if b2 == b):
                continue
            for regmask in range(1 << n):
                reg = {i for i in range(n) if regmask >> i & 1}
                full = rel | {(i, i) for i in reg}
                canon = min(tuple(sorted((p[a], p[b]) for a, b in full)) for p in perms)
                if canon in seen:
                    continue
                seen.add(canon)
                out.append(PrimePair(tuple(ids), frozenset((ids[a], ids[b]) for a, b in full)))
    return out


def test_enumerate_prime_pairs_matches_brute_force():
    assert enumerate_prime_pairs(4) == _brute_force_prime_pairs(4)


def test_enumerate_prime_pairs_counts():
    counts = [0] * 6
    for pair in enumerate_prime_pairs(5):
        counts[len(pair.primes)] += 1
    assert counts == [1, 2, 7, 32, 192, 1490]


@functools.cache
def _six_prime_pairs():
    return [pair for pair in enumerate_prime_pairs(6) if len(pair.primes) == 6]


def _canonical_pair(n, rel):
    """The catalogue's representative of the pair on 0..n-1 with relation rel:
    the canonical strict order, and the least image of the regular subset
    under its automorphisms."""
    strict = {(a, b) for a, b in rel if a != b}
    canon = _natural_relation(n, _canonical_mask(n, _above_masks(n, strict)))
    iso = relation_iso(range(n), strict, range(n), canon)
    regmask = sum(1 << iso[a] for a, b in rel if a == b)
    regmask = min(
        sum(1 << g[i] for i in range(n) if regmask >> i & 1)
        for g in _automorphisms(n, canon)
    )
    ids = [f"g{i}" for i in range(n)]
    full = canon | {(i, i) for i in range(n) if regmask >> i & 1}
    return PrimePair(tuple(ids), frozenset((ids[a], ids[b]) for a, b in full))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6), st.permutations(range(6)))
def test_canonical_pair_undoes_relabelling(index, perm):
    # a pair on 6 primes, beyond the reach of the brute force, relabelled at
    # random: its canonical form is the same representative
    pairs = _six_prime_pairs()
    pair = pairs[index % len(pairs)]
    rel = {(perm[int(q[1:])], perm[int(p[1:])]) for q, p in pair.rel}
    assert _canonical_pair(6, rel) == pair
