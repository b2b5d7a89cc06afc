import functools
import hashlib
import itertools
import json
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import comb

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
    Quiver,
    make_poset,
    relation_iso,
    transitive_closure,
)
from posetalg.graphmon import build_Er, check_Er_equals_chain, graph_monoid
from posetalg.primon import (
    INF,
    CongruenceOracle,
    ORACLE_WORD_LIMIT,
    MonoidError,
    OracleLimitError,
    OrderIdeal,
    PrimePair,
    PrimitiveMonoid,
    _bounded_words,
    _components,
    _split_pair,
    apw_graph_shape,
    check_refinement,
    check_separative,
    check_strongly_separative,
    enumerate_prime_pairs,
    from_poset,
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
    m = PrimitiveMonoid(intro_mixed_pair())
    assert not m.is_free("q") and m.is_free("p")
    # q = 2q and q = q + p
    assert m.reduce({"q": 2}) == m.gen("q")
    assert m.add(m.gen("q"), m.gen("p")) == m.gen("q")
    # empty pair: the trivial monoid
    t = PrimitiveMonoid(PrimePair((), frozenset()))
    assert t.elements(3) == [t.reduce({})]
    # agreeing with from_poset on a strict order
    fig2 = fig2_poset()
    rel = frozenset((q, p) for p in fig2.elements for q in fig2.strict[p])
    assert monoid_iso(PrimitiveMonoid(PrimePair(fig2.elements, rel)), fig2_monoid())


def test_pair_validation():
    with pytest.raises(MonoidError):
        PrimePair(("a", "b"), frozenset({("a", "b"), ("b", "a")}))
    with pytest.raises(MonoidError):
        PrimePair(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
    with pytest.raises(MonoidError):
        PrimePair(("a",), frozenset({("a", "zz")}))
    with pytest.raises(MonoidError, match="duplicate primes"):
        PrimePair(("a", "a"), frozenset())


def test_pair_freezes_its_inputs_and_rejects_non_pairs():
    pair = PrimePair(["a", "b"], {("a", "b"), ("a", "a")})
    assert pair.primes == ("a", "b") and pair.rel == frozenset({("a", "b"), ("a", "a")})
    assert type(pair.rel) is frozenset
    assert hash(pair) == hash(PrimePair(("a", "b"), frozenset(pair.rel)))
    with pytest.raises(MonoidError, match=r"relation entry \('a', 'b', 'b'\) is not a pair"):
        PrimePair(("a", "b"), frozenset({("a", "b", "b")}))
    with pytest.raises(MonoidError, match="relation entry 'ab' is not a pair"):
        PrimePair(("a", "b"), frozenset({"ab"}))


# -- reduction ------------------------------------------------------------------


def test_reduce_examples():
    m = fig2_monoid()
    assert m.reduce({"p": 1, "a": 1}) == m.gen("p")
    assert m.reduce({}).coeffs == ()
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
                acc = m.reduce({})
                for g in gens:
                    acc = m.add(acc, m.gen(g))
                assert acc == red


def test_reduce_unknown_prime():
    with pytest.raises(MonoidError):
        fig2_monoid().reduce({"zz": 1})


def test_reduce_rejects_negative_coefficients():
    m = fig2_monoid()
    with pytest.raises(MonoidError, match="negative coefficient -2 of prime 'a'"):
        m.reduce({"a": -2, "b": 1})
    assert m.reduce({"a": 0, "b": 1}) == m.gen("b")


def test_reduce_rejects_non_integral_coefficients():
    # the oracle's rule: a count n with n % 1 is not a word's count
    m = fig2_monoid()
    with pytest.raises(MonoidError, match="coefficient 1.5 of prime 'a' is not an integer"):
        m.reduce({"a": 1.5})
    with pytest.raises(MonoidError, match="coefficient inf of prime 'b' is not an integer"):
        m.reduce({"a": 1, "b": INF})
    assert m.reduce({"a": 2.0}) == m.reduce({"a": 2})


@pytest.mark.parametrize("count", [2.0, Fraction(2)], ids=["float", "Fraction"])
def test_reduce_stores_an_integral_count_as_an_int(count):
    # one element, one rendering: the count prints and serializes as 2
    m = fig2_monoid()
    x, two = m.reduce({"a": count, "p": 0}), m.reduce({"a": 2})
    assert x.coeffs == two.coeffs == (("a", 2),)
    assert all(type(n) is int for _, n in x.coeffs)
    assert str(x) == str(two) == "2*a"
    assert json.dumps(monoid_to_json(m, [x])) == json.dumps(monoid_to_json(m, [two]))


@pytest.mark.parametrize("count", ["2", None, [1]], ids=["str", "None", "list"])
def test_a_count_that_is_not_a_number_raises_MonoidError(count):
    # "%d" % 1 formats, so a string is never taken modulo 1
    with pytest.raises(MonoidError, match=re.escape(f"coefficient {count!r} of prime 'a' is not an integer")):
        fig2_monoid().reduce({"a": count})
    message = re.escape(f"count {count!r} of generator 'a' is not a non-negative integer")
    with pytest.raises(MonoidError, match=message):
        CongruenceOracle(["a", "b"], [], 3).equal({"a": count}, {})
    with pytest.raises(MonoidError, match=message):
        CongruenceOracle(["a", "b"], [({"a": count}, {"b": 1})], 3)


def test_reduce_rejects_a_bool_coefficient():
    m = fig2_monoid()
    for flag in (True, False):
        with pytest.raises(MonoidError, match=f"coefficient {flag} of prime 'a' is not an integer"):
            m.reduce({"a": flag})


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
    assert all(v == 0 for _, v in m.phi(m.reduce({})).values)


def test_phi_regular():
    m = PrimitiveMonoid(intro_mixed_pair())
    assert m.phi(m.gen("q"))["q"] == INF


def test_phi_entry_of_an_unknown_prime_is_a_monoid_error():
    m = fig2_monoid()
    t = m.phi(m.gen("p"))
    assert [t[p] for p in t.names] == list(t.vec)
    for p in ("zz", 0, None):
        with pytest.raises(MonoidError, match=f"unknown prime {p!r}"):
            t[p]


def test_phi_tuples_of_different_monoids_do_not_combine():
    m1 = from_poset(make_poset(["a", "b"], []))
    m2 = from_poset(make_poset(["c"], []))
    m3 = from_poset(make_poset(["a", "c"], []))
    a, b = m1.phi(m1.gen("a")), m1.phi(m1.gen("b"))
    for other in (m2.phi(m2.gen("c")), m3.phi(m3.gen("a"))):
        with pytest.raises(MonoidError, match="counting tuples of different monoids"):
            a.add(other)
        with pytest.raises(MonoidError, match="counting tuples of different monoids"):
            b.leq(other)
    # an element, or anything else, is not a counting tuple, even over the same names
    for operand in (m1.gen("a"), (1, 0), 1):
        with pytest.raises(MonoidError, match="expected a PhiTuple"):
            a.add(operand)
        with pytest.raises(MonoidError, match="expected a PhiTuple"):
            b.leq(operand)
    # tuples with the same prime names combine, whichever monoid object made them
    twin = from_poset(make_poset(["a", "b"], []))
    assert a.add(twin.phi(twin.gen("b"))).values == (("a", 1), ("b", 1))
    assert not b.leq(twin.phi(twin.gen("a")))


def test_elements_of_another_monoid_do_not_combine():
    # an element belongs to the monoid of its prime names: one of another
    # prime set is rejected, not re-indexed by name
    m = from_poset(make_poset(["a", "b"], []))
    for other in (from_poset(make_poset(["a"], [])), from_poset(make_poset(["b", "a", "c"], []))):
        a = other.gen("a")
        with pytest.raises(MonoidError, match="element of another monoid"):
            m.add(a, m.gen("b"))
        with pytest.raises(MonoidError, match="element of another monoid"):
            m.add(m.gen("b"), a)
        with pytest.raises(MonoidError, match="element of another monoid"):
            m.phi(a)
    # a counting tuple of the same monoid, a prime name or a number is no element
    x = m.gen("a")
    for operand in (m.phi(m.gen("b")), "a", 1):
        with pytest.raises(MonoidError, match="expected a MonElem"):
            m.add(x, operand)
        with pytest.raises(MonoidError, match="expected a MonElem"):
            m.add(operand, x)
        with pytest.raises(MonoidError, match="expected a MonElem"):
            m.phi(operand)
        with pytest.raises(MonoidError, match="expected a MonElem"):
            order_ideal(m, operand)
        with pytest.raises(MonoidError, match="expected a MonElem"):
            operand in order_ideal(m, x)
    # an element of a twin monoid (equal names, another object) still adds
    twin = from_poset(make_poset(["a", "b"], []))
    assert m.add(twin.gen("a"), m.gen("b")) == m.reduce({"a": 1, "b": 1}) == twin.reduce({"a": 1, "b": 1})
    assert m.phi(twin.gen("a")).values == (("a", 1), ("b", 0))


@pytest.mark.hashseed
def test_public_element_shapes_are_pinned():
    # str, coeffs, as_dict and the phi values of every element of size <= 3
    # over the prime pairs with at most 4 primes, byte for byte
    h = hashlib.sha256()
    for pair in enumerate_prime_pairs(4):
        m = PrimitiveMonoid(pair)
        h.update(repr([(str(x), x.coeffs, x.as_dict(), m.phi(x).values) for x in m.elements(3)]).encode())
    assert h.hexdigest() == "88d1159ab2493fbf4954798b9b2608f655104cf01cc55dec37e3c83ccc7c3162"


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
    assert order_ideal(m, m.reduce({})).prime_set == frozenset()
    ia = order_ideal(m, m.gen("a"))
    assert ia.prime_set == {"a"}
    assert m.gen("a") in ia and m.gen("p") not in ia


def test_order_ideals_take_only_elements_of_their_monoid():
    m1 = from_poset(make_poset(["a", "b"], [("a", "b")]))
    m2 = from_poset(make_poset(["a", "c"], []))
    with pytest.raises(MonoidError, match="element of another monoid"):
        m2.gen("a") in OrderIdeal(m1, {"a"})
    with pytest.raises(MonoidError, match="element of another monoid"):
        order_ideal(m1, m2.gen("a"))
    # a twin monoid has the same prime names, so its elements are accepted
    twin = from_poset(make_poset(["a", "b"], [("a", "b")]))
    assert twin.gen("a") in OrderIdeal(m1, {"a"})
    assert order_ideal(m1, twin.gen("b")).prime_set == {"a", "b"}


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
            i1 = OrderIdeal(m, s1)
            i2 = OrderIdeal(m, s2)
            union = OrderIdeal(m, s1 | s2)
            inter = OrderIdeal(m, s1 & s2)
            for x in m.elements(2):
                assert (x in inter) == (x in i1 and x in i2)
                if x in i1 or x in i2:
                    assert x in union


def test_order_ideal_freezes_its_prime_set():
    m = fig2_monoid()
    ideal = OrderIdeal(m, {"a"})
    assert isinstance(ideal.prime_set, frozenset)
    assert ideal == OrderIdeal(m, frozenset({"a"}))
    assert hash(ideal) == hash(OrderIdeal(m, frozenset({"a"})))


def test_ideal_rejects_non_lower():
    m = fig2_monoid()
    with pytest.raises(MonoidError):
        OrderIdeal(m, {"p"})


def test_quotient():
    m = fig2_monoid()
    mq, proj = quotient(OrderIdeal(m, {"a"}))
    assert set(mq.primes) == {"b", "p"}
    assert ("b", "p") in mq.pair.rel
    assert proj(m.gen("a")) == mq.reduce({})
    assert proj(m.add(m.gen("a"), m.gen("b"))) == mq.gen("b")
    whole, _ = quotient(OrderIdeal(m, set(m.primes)))
    assert whole.primes == ()
    same, proj0 = quotient(OrderIdeal(m, set()))
    assert monoid_iso(same, m) is not None


def test_quotient_projection_rejects_a_prime_outside_the_monoid():
    m = fig2_monoid()
    _, proj = quotient(OrderIdeal(m, {"a"}))
    with pytest.raises(MonoidError, match="prime 'zz' is outside the prime map"):
        proj(from_poset(make_poset(["b", "zz"], [])).reduce({"b": 1, "zz": 3}))


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
            ideal = OrderIdeal(m, s)
            mq, proj = quotient(ideal)
            for x, y in itertools.product(m.elements(2), repeat=2):
                assert proj(m.add(x, y)) == mq.add(proj(x), proj(y))
            for x in m.elements(2):
                if proj(x) == mq.reduce({}):
                    assert x in ideal


# -- free and regular -----------------------------------------------------------


def test_free_regular_flags():
    m = fig2_monoid()
    assert all(m.is_free(p) for p in m.primes)
    mm = PrimitiveMonoid(intro_mixed_pair())
    assert not mm.is_free("q") and mm.is_free("p")
    with pytest.raises(MonoidError):
        m.is_free("zz")


def test_elements_in_canonical_order():
    # primes listed out of name order: elements, reduce and add all list
    # an element's primes by name, so a + b is one element, not two
    m = PrimitiveMonoid(PrimePair(("b", "a"), frozenset()))
    for e in m.elements(2):
        assert e == m.reduce(e.as_dict())
    assert m.reduce({"b": 1, "a": 1}).coeffs == (("a", 1), ("b", 1))
    assert leq(m, m.gen("a"), m.reduce({"a": 1, "b": 1}))
    assert all(leq(m, m.gen("a"), e) for e in m.elements(2) if "a" in e.support())


# -- brute-force checkers --------------------------------------------------------


def check_refinement_connected(m, size_bound):
    """The refinement checker as it was before the component split: the
    checked construction on the whole monoid, kept verbatim as the
    oracle."""
    n = len(m.primes)
    memo = {}

    def add(u, v):
        hit = memo.get((u, v))
        if hit is None:
            hit = memo[u, v] = m._add_vec(u, v)
        return hit

    elems = [m._reduced(e.vec) for e in m.elements(size_bound)]
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
                    x1, x2, y1, y2 = (term(m.reduce(dict(zip(m._names, v)))) for v in (x1, x2, y1, y2))
                    raise MonoidError(
                        f"the constructed refinement of {x1} + {x2} = {y1} + {y2} fails its check: "
                        "the prime pair is not valid"
                    )
    return None


def test_refinement_fig2_and_free():
    assert check_refinement(fig2_monoid(), 3) is None
    free = from_poset(make_poset(["x", "y"], []))
    assert check_refinement(free, 3) is None


def test_refinement_all_valid_pairs_small():
    for m in small_catalogue(3):
        assert check_refinement(m, 3) is None


@pytest.mark.hashseed
def test_refinement_raises_on_corrupted_rel():
    # non-transitive: b < a < c without b < c; the construction's proof
    # needs a valid pair, so its check fails and the equality is named
    m = PrimitiveMonoid(unchecked_pair(["a", "b", "c"], {("a", "c"), ("b", "a")}))
    with pytest.raises(MonoidError, match=r"0 \+ c = \(b \+ c\) \+ a .*not valid") as new:
        check_refinement(m, 2)
    with pytest.raises(MonoidError) as old:
        check_refinement_connected(m, 2)
    assert str(new.value) == str(old.value)
    # the named equality is no counterexample: [[0, 0], [b + c, a]] refines it
    a, c, bc = m.gen("a"), m.gen("c"), m.reduce({"b": 1, "c": 1})
    zero = m.reduce({})
    (z11, z12), (z21, z22) = (zero, zero), (bc, a)
    assert m.add(z11, z12) == zero and m.add(z21, z22) == c
    assert m.add(z11, z21) == bc and m.add(z12, z22) == a


@pytest.mark.hashseed
def test_refinement_corrupted_factor_names_an_equality_of_the_whole_monoid():
    # the corrupted relation above plus an isolated prime d: the factor
    # {a, b, c} fails, and the equality it names holds in the whole monoid
    m = PrimitiveMonoid(unchecked_pair(["a", "b", "c", "d"], {("a", "c"), ("b", "a")}))
    with pytest.raises(MonoidError) as new:
        check_refinement(m, 2)
    assert str(new.value) == (
        "the constructed refinement of 0 + c = (b + c) + a fails its check: the prime pair is not valid"
    )
    assert m.add(m.reduce({}), m.gen("c")) == m.add(m.reduce({"b": 1, "c": 1}), m.gen("a"))


@pytest.mark.hashseed
def test_refinement_matches_the_connected_checker_on_catalogue():
    # the factor-by-factor checker and the whole-monoid one both certify
    # every pair with at most 5 primes at the bound of criterion 03
    pairs = enumerate_prime_pairs(5)
    disconnected = 0
    for pair in pairs:
        m = PrimitiveMonoid(pair)
        assert check_refinement(m, 3) is None, pair
        assert check_refinement_connected(m, 3) is None, pair
        disconnected += len(_components(m)) > 1
    assert (len(pairs), disconnected) == (1724, 514)


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


@pytest.mark.hashseed
def test_refinement_pairs_that_both_hold_the_sum_need_no_construction():
    # check_refinement skips the equalities (a, s) ~ (b, s) of a class s
    # up to order: [[0, a], [b, s]], with the row or column of s moved to
    # where its pair holds s, is a refinement that add confirms
    both = constructed = swapped = 0
    for m in small_catalogue(4):
        els = m.elements(3)
        zero = m.reduce({})
        by_sum = {}
        for x1, x2 in itertools.product(els, repeat=2):
            if x1.vec <= x2.vec:
                by_sum.setdefault(m.add(x1, x2), []).append((x1, x2))
        for s, pairs in by_sum.items():
            held = [p for p in pairs if s in p]
            for i, x in enumerate(held):
                for y in held[i + 1 :]:
                    r, c = int(x[1] == s), int(y[1] == s)  # 0 where a pair puts s first only
                    z = [[zero, x[1 - r]], [y[1 - c], s]]  # [[0, a], [b, s]]
                    if r == 0:  # the row pair puts s first: swap the rows
                        z.reverse()
                    if c == 0:  # the column pair does: swap the columns
                        z = [row[::-1] for row in z]
                    swapped += (r, c) != (1, 1)
                    assert all(m.add(*z[k]) == x[k] for k in (0, 1)), (m.pair, x, y)
                    assert all(m.add(z[0][k], z[1][k]) == y[k] for k in (0, 1)), (m.pair, x, y)
            g, h = len(pairs), len(held)
            both += h * (h - 1) // 2
            constructed += g * (g - 1) // 2 - h * (h - 1) // 2
    assert both + constructed == 65038
    assert (both, constructed, swapped) == (24476, 40562, 21870)


@pytest.mark.hashseed
def test_refinement_corrupted_rel_passes_over_a_sum_held_on_both_sides():
    # on the cycle a < c < b < a, the construction fails first on
    # 0 + c = c + a, whose pairs both hold c, one of them first; the
    # checker certifies it by [[0, 0], [c, a]], the columns of
    # [[0, 0], [a, c]] swapped, and names the next failing equality
    m = PrimitiveMonoid(unchecked_pair(["a", "b", "c"], {("a", "a"), ("a", "c"), ("b", "a"), ("c", "b")}))
    with pytest.raises(MonoidError) as new:
        check_refinement(m, 2)
    assert str(new.value) == (
        "the constructed refinement of 0 + 2*c = c + c fails its check: the prime pair is not valid"
    )
    with pytest.raises(MonoidError, match=r"of 0 \+ c = c \+ a fails"):
        check_refinement_connected(m, 2)
    zero, a, c = m.reduce({}), m.gen("a"), m.gen("c")
    assert c.vec < a.vec  # so the ordered pair is (c, a), its sum first
    (z11, z12), (z21, z22) = (zero, zero), (c, a)
    assert m.add(z11, z12) == zero and m.add(z21, z22) == c
    assert m.add(z11, z21) == c and m.add(z12, z22) == a


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


def elements_over_all_supports(m, max_size):
    """``elements`` as it was before the bounded support walk: every subset
    of the primes, kept as the oracle."""
    out = []
    for support in range(1 << len(m._names)):
        slots = [i for i, bit in enumerate(m._bits) if bit & support]
        if any(m._absorbers[i] & support for i in slots):
            continue
        names = [m._names[i] for i in slots]
        ranges = [range(1, 2 if m._bits[i] & m._regular_mask else max_size + 1) for i in slots]
        out += (m.reduce(dict(zip(names, c))) for c in itertools.product(*ranges) if sum(c) <= max_size)
    out.sort(key=lambda e: (e.size(), e.coeffs))
    return out


def test_elements_match_the_walk_over_all_supports():
    for m in small_catalogue(4):
        for bound in range(5):
            assert m.elements(bound) == elements_over_all_supports(m, bound)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_prime_pairs(), st.integers(0, 4))
def test_elements_match_the_walk_over_all_supports_on_random_pairs(pair, bound):
    m = PrimitiveMonoid(pair)
    assert m.elements(bound) == elements_over_all_supports(m, bound)


def test_elements_walk_only_the_small_supports():
    # a walk over all 2^16 supports takes seconds; the supports of at most
    # 2 primes are 137
    m = PrimitiveMonoid(PrimePair(tuple(f"g{i:02d}" for i in range(16)), frozenset()))
    start = time.perf_counter()
    els = m.elements(2)
    assert time.perf_counter() - start < 1.0
    assert len(els) == 1 + 16 + 16 + comb(16, 2) == 153
    assert els == sorted(set(els), key=lambda e: (e.size(), e.coeffs))


def test_separativity():
    m = fig2_monoid()
    assert check_strongly_separative(m, 3) is None
    assert check_separative(m, 3) is None
    mixed = PrimitiveMonoid(intro_mixed_pair())
    witness = check_strongly_separative(mixed, 4)
    assert witness is not None
    a, b = witness
    assert mixed.add(a, a) == mixed.add(a, b) and a != b
    assert "q" in a.support() or "q" in b.support() or a.is_zero() or b.is_zero()
    assert check_separative(mixed, 3) is None
    trivial = PrimitiveMonoid(PrimePair((), frozenset()))
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
    mixed = PrimitiveMonoid(intro_mixed_pair())
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
    assert not apw_graph_shape(PrimitiveMonoid(intro_mixed_pair()))


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
                    assert OrderIdeal(m, s).prime_set == set(s)
                else:
                    with pytest.raises(MonoidError, match="not lower"):
                        OrderIdeal(m, s)


# -- congruence oracle -----------------------------------------------------------


def test_congruence_oracle_fig2():
    gens, rels = presentation_of(fig2_monoid())
    orc = CongruenceOracle(gens, rels, 4)
    assert orc.equal({"p": 1, "a": 1}, {"p": 1})
    assert not orc.equal({"a": 1}, {"b": 1})


def test_congruence_oracle_no_relations():
    orc = CongruenceOracle(["x", "y"], [], 3)
    assert orc.equal({"x": 1}, {"x": 1})
    assert not orc.equal({"x": 1}, {"y": 1})
    assert len(orc.classes()) == 10  # all words of degree <= 3 are distinct


def test_congruence_oracle_graph_relation():
    orc = CongruenceOracle(["v0", "v1"], [({"v1": 1}, {"v1": 1, "v0": 1})], 4)
    assert orc.equal({"v1": 1}, {"v1": 1, "v0": 1})
    assert orc.equal({"v1": 1}, {"v1": 1, "v0": 3})
    assert not orc.equal({"v0": 1}, {"v1": 1})


def test_congruence_oracle_matches_reduce():
    for m in small_catalogue(3):
        gens, rels = presentation_of(m)
        orc = CongruenceOracle(gens, rels, 4)
        els = m.elements(2)
        for x, y in itertools.product(els, repeat=2):
            assert orc.equal(x.as_dict(), y.as_dict()) == (x == y)


def test_class_of_is_the_least_word_of_its_class():
    gens, rels = presentation_of(fig2_monoid())
    orc = CongruenceOracle(gens, rels, 3)
    for cls in orc.classes():
        for w in cls:
            assert orc.class_of(dict(zip(gens, w))) == min(cls)
    assert orc.class_of({"p": 1, "a": 1}) == orc.class_of({"p": 1}) != orc.class_of({"a": 1})


def recursive_bounded_words(k, bound):
    """The bounded words as they were built before the odometer, one
    generator frame per place, kept as the reference."""
    if k == 0:
        yield ()
        return
    for head in range(bound + 1):
        for rest in recursive_bounded_words(k - 1, bound - head):
            yield (head,) + rest


def test_bounded_words_match_the_recursive_order():
    for k in range(7):
        for bound in range(-1, 6):
            assert list(_bounded_words(k, bound)) == list(recursive_bounded_words(k, bound))


def test_oracle_on_many_generators_needs_no_recursion():
    # one frame per generator overflowed the interpreter stack here
    gens = [f"g{i}" for i in range(1200)]
    orc = CongruenceOracle(gens, [({"g0": 1}, {"g1199": 1})], 1)
    assert orc.equal({"g0": 1}, {"g1199": 1}) and not orc.equal({"g0": 1}, {"g1": 1})
    assert len(orc.classes()) == 1200


def wordwise_classes(generators, relations, bound):
    """The classes of CongruenceOracle as it was built before its rewrites
    were listed per relation: every bounded word tested against every
    relation, kept as the reference."""
    index = {g: i for i, g in enumerate(generators)}
    rels = [(CongruenceOracle._vec(u, index), CongruenceOracle._vec(v, index)) for u, v in relations]
    words = list(recursive_bounded_words(len(generators), bound))
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
    buckets = {}
    for w in words:
        buckets.setdefault(find(w), []).append(w)
    return sorted(buckets.values())


def assert_classes_match_wordwise(generators, relations, bound):
    orc = CongruenceOracle(generators, relations, bound)
    classes = orc.classes()
    assert classes == wordwise_classes(generators, relations, bound)
    for cls in classes:
        assert orc.class_of(dict(zip(generators, cls[-1]))) == cls[0]  # the least word represents it


@pytest.mark.parametrize("bound", range(5))
def test_oracle_classes_match_wordwise_on_pair_presentations(bound):
    for pair in enumerate_prime_pairs(4):
        assert_classes_match_wordwise(*presentation_of(PrimitiveMonoid(pair)), bound)


def graph_variants(r):
    """E_r, and each copy of it with one arrow dropped or one loop doubled."""
    q = build_Er(r)
    yield q
    for arrow in q.arrows:
        yield Quiver(q.vertices, tuple(a for a in q.arrows if a != arrow))
        name, s, t = arrow
        if s == t:
            yield Quiver(q.vertices, q.arrows + ((name + "'", s, t),))


@pytest.mark.parametrize("r", range(5))
def test_oracle_classes_match_wordwise_on_graph_monoids(r):
    cases = 0
    for quiver in graph_variants(r):
        for bound in range(3, 5):
            relations, _ = graph_monoid(quiver, bound)
            assert_classes_match_wordwise(quiver.vertices, [({v: 1}, dict(rhs)) for v, rhs in relations], bound)
            cases += 1
    assert cases == 2 * (1 + 3 * r)


def random_word(rng, generators):
    return {g: rng.randrange(4) for g in generators if rng.random() < 0.6}


def test_oracle_classes_match_wordwise_on_random_presentations():
    rng = random.Random(18)
    seen = set()
    for _ in range(400):
        gens = [f"x{i}" for i in range(rng.randrange(5))]
        bound = rng.randrange(5)
        rels = []
        for _ in range(rng.randrange(5)):
            u = random_word(rng, gens)
            rels.append((u, dict(u) if rng.random() < 0.15 else random_word(rng, gens)))
        assert_classes_match_wordwise(gens, rels, bound)
        for u, v in rels:
            seen.add("empty" if not sum(u.values()) or not sum(v.values()) else "nonempty")
            seen.add("u = v" if u == v else "u != v")
            seen.add("over" if max(sum(u.values()), sum(v.values())) > bound else "within")
    assert seen == {"empty", "nonempty", "u = v", "u != v", "over", "within"}


def test_congruence_oracle_rejects_repeated_generators():
    with pytest.raises(MonoidError, match="duplicate generators"):
        CongruenceOracle(["a", "a"], [], 2)
    with pytest.raises(MonoidError, match="duplicate generators"):
        CongruenceOracle(["a", "b", "a"], [({"a": 1}, {"b": 1})], 2)


def pairwise_split(items, key1, key2):
    """The agreement loop the bounded verifiers ran before ``_split_pair``:
    both keys compared on every pair of items, kept as the oracle."""
    for x, y in itertools.combinations(items, 2):
        if (key1(x) == key1(y)) != (key2(x) == key2(y)):
            return (x, y)
    return None


@st.composite
def labellings(draw):
    """Two class labellings of the same items; half the time the second
    renames the classes of the first, so the partitions agree."""
    labels1 = draw(st.lists(st.integers(0, 3), max_size=12))
    if draw(st.booleans()):
        rename = draw(st.permutations(range(4)))
        return labels1, [rename[c] for c in labels1]
    return labels1, draw(st.lists(st.integers(0, 3), min_size=len(labels1), max_size=len(labels1)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(labellings())
def test_split_pair_matches_the_pairwise_loop(labels):
    labels1, labels2 = labels
    items = list(range(len(labels1)))
    read1, read2 = [], []
    split = _split_pair(items, lambda i: read1.append(i) or labels1[i], lambda i: read2.append(i) or labels2[i])
    assert (split is None) == (pairwise_split(items, labels1.__getitem__, labels2.__getitem__) is None)
    assert read1 == read2 == items[: len(read1)]  # each key read once per item, in order
    if split is None:
        assert len(read1) == len(items)
    else:
        x, y = split
        assert x < y and y == read1[-1] and (labels1[x] == labels1[y]) != (labels2[x] == labels2[y])


def test_split_pair_on_agreeing_and_splitting_partitions():
    words = ["a", "bb", "cc", "d", "ee"]
    assert _split_pair([], len, str.upper) is None
    assert _split_pair(words, len, lambda w: len(w) * 2) is None
    assert _split_pair(words, len, lambda w: 0) == ("a", "bb")  # the constant key joins them
    assert _split_pair(words, len, lambda w: w[0]) == ("bb", "cc")  # the first letter separates them


def test_congruence_oracle_bound_guard():
    orc = CongruenceOracle(["x"], [], 2)
    with pytest.raises(MonoidError):
        orc.equal({"x": 3}, {"x": 3})


def test_congruence_oracle_word_limit():
    # k generators at bound 4 need just over the limit: every guard raises
    # before a word is built
    k = next(k for k in itertools.count() if comb(k + 4, 4) > ORACLE_WORD_LIMIT)
    gens = [f"v{i}" for i in range(k)]
    need = f"needs {comb(k + 4, 4)} words, over the limit of {ORACLE_WORD_LIMIT}"
    with pytest.raises(OracleLimitError, match=f"bound 4 on {k} generators {need}"):
        CongruenceOracle(gens, [], 4)
    with pytest.raises(OracleLimitError, match=need):
        graph_monoid(Quiver(tuple(gens), ()), 4)
    # the loop-chain check reads the relations only, so no oracle limit applies
    assert check_Er_equals_chain(k - 1, 4) is None
    assert comb(k - 1 + 4, 4) <= ORACLE_WORD_LIMIT


@pytest.mark.parametrize("bound", [-1, -2, 2.5, True, "3", None])
def test_verifiers_reject_a_bound_that_is_not_a_non_negative_int(bound):
    monoids = [fig2_monoid(), from_poset(make_poset(["x", "y"], [])), PrimitiveMonoid(PrimePair((), frozenset()))]
    for m in monoids:
        for check in (m.elements, check_refinement, check_separative, check_strongly_separative):
            args = (bound,) if check == m.elements else (m, bound)
            with pytest.raises(MonoidError, match=f"bound {bound!r} is not a non-negative int"):
                check(*args)
    with pytest.raises(MonoidError, match="is not a non-negative int"):
        CongruenceOracle(["a"], [], bound)
    for check in (graph_monoid, lambda quiver, b: check_Er_equals_chain(1, b)):
        with pytest.raises(MonoidError, match=f"bound {bound!r} is not a non-negative int"):
            check(build_Er(1), bound)


def test_congruence_oracle_rejects_bad_words():
    orc = CongruenceOracle(["a", "b"], [], 3)
    with pytest.raises(MonoidError, match="unknown generator 'zz'"):
        orc.equal({"zz": 1}, {"b": 1})
    with pytest.raises(MonoidError, match="count -1 of generator 'a'"):
        orc.equal({"a": -1}, {"b": 1})
    with pytest.raises(MonoidError, match="count 1.5 of generator 'a'"):
        orc.equal({"a": 1.5}, {"b": 1})
    with pytest.raises(MonoidError, match="count -1 of generator 'b'"):
        orc.equal({"a": 1}, {"a": 2, "b": -1})
    assert orc.equal({"a": 1, "b": 0}, {"a": 1})


def test_congruence_oracle_stores_an_integral_count_as_an_int():
    gens, rels = presentation_of(fig2_monoid())
    orc = CongruenceOracle(gens, rels, 3)
    for count in (2.0, Fraction(2)):
        word = orc.class_of({"a": count})
        assert word == orc.class_of({"a": 2})
        assert all(type(n) is int for n in word)
    floats = CongruenceOracle(["a", "b"], [({"a": 2.0}, {"b": Fraction(1)})], 3)
    assert floats.classes() == CongruenceOracle(["a", "b"], [({"a": 2}, {"b": 1})], 3).classes()
    assert all(type(n) is int for cls in floats.classes() for word in cls for n in word)


def test_congruence_oracle_rejects_a_bool_count():
    orc = CongruenceOracle(["a", "b"], [], 3)
    for flag in (True, False):
        with pytest.raises(MonoidError, match=f"count {flag} of generator 'a' is not a non-negative integer"):
            orc.class_of({"a": flag})
        with pytest.raises(MonoidError, match=f"count {flag} of generator 'b' is not a non-negative integer"):
            CongruenceOracle(["a", "b"], [({"a": 1}, {"b": flag})], 3)


def test_congruence_oracle_rejects_bad_relations():
    with pytest.raises(MonoidError, match="count -1 of generator 'a'"):
        CongruenceOracle(["a", "b"], [({"a": -1}, {})], 3)
    with pytest.raises(MonoidError, match="count 0.5 of generator 'b'"):
        CongruenceOracle(["a", "b"], [({"a": 1}, {"b": 0.5})], 3)
    with pytest.raises(MonoidError, match="unknown generator 'zz'"):
        CongruenceOracle(["a", "b"], [({"zz": 1}, {})], 3)


def test_congruence_oracle_sums_a_generator_named_twice():
    # the relation a + a = b, its left side given as two (a, 1) pairs
    orc = CongruenceOracle(["a", "b"], [([("a", 1), ("a", 1)], {"b": 1})], 2)
    assert orc.equal({"a": 2}, {"b": 1}) and not orc.equal({"a": 1}, {"b": 1})
    assert orc.classes() == CongruenceOracle(["a", "b"], [({"a": 2}, {"b": 1})], 2).classes()
    # a query reads its pairs the same way, and a mapping as before
    assert orc.equal([("a", 1), ("a", 1)], {"b": 1})
    assert orc.class_of((("b", 1), ("a", 0), ("b", 1))) == orc.class_of({"b": 2})
    assert not orc.equal([("a", 1)], [("b", 1)])
    with pytest.raises(MonoidError, match="word entry \\('a',\\) is not a pair"):
        orc.class_of([("a",)])
    with pytest.raises(MonoidError, match="count -1 of generator 'a'"):
        orc.class_of([("a", 2), ("a", -1)])
    with pytest.raises(MonoidError, match="word exceeds oracle bound 2"):
        orc.class_of([("a", 2), ("a", 1)])


def test_congruence_oracle_rejects_a_relation_that_is_not_a_pair_of_words():
    for relation in [({"a": 1},), ({"a": 1}, {"b": 1}, {}), 5]:
        with pytest.raises(MonoidError, match="is not a pair"):
            CongruenceOracle(["a", "b"], [relation], 2)
    with pytest.raises(MonoidError, match="word entry 'a' is not a pair"):
        CongruenceOracle(["a", "b"], ["ab"], 2)


def components_by_union_find(m):
    """_components by union-find over the relation, kept as the oracle."""
    parent = {p: p for p in m.primes}

    def find(p):
        while parent[p] != p:
            p = parent[p]
        return p

    for q, p in m.pair.rel:
        parent[find(q)] = find(p)
    groups = {}
    for p in m.primes:
        groups.setdefault(find(p), []).append(p)
    return sorted(tuple(sorted(g)) for g in groups.values())


@pytest.mark.hashseed
def test_components_match_a_union_find_on_catalogue():
    sizes = Counter()
    for pair in enumerate_prime_pairs(5):
        m = PrimitiveMonoid(pair)
        components = _components(m)
        assert components == components_by_union_find(m), pair
        sizes[len(components)] += 1
    # 1,724 pairs, 514 of them disconnected, by number of components
    assert sizes == {0: 1, 1: 1209, 2: 391, 3: 96, 4: 21, 5: 6}


def test_check_separative_returns_the_first_witness(monkeypatch):
    # no valid pair on few primes has a witness, so a one-prime free monoid
    # adds with its counts capped at 2: then p + p = p + 2p = 2p + 2p
    m = PrimitiveMonoid(PrimePair(("p",), frozenset()))
    monkeypatch.setattr(m, "_add_vec", lambda u, v: tuple(min(2, a + b) for a, b in zip(u, v)))
    a, b = check_separative(m, 3)
    assert (a.vec, b.vec) == ((1,), (2,))


# -- iso and JSON -----------------------------------------------------------------


def test_monoid_iso():
    m1 = fig2_monoid()
    m2 = PrimitiveMonoid(PrimePair(("u", "v", "w"), frozenset({("u", "w"), ("v", "w")})))
    iso = monoid_iso(m1, m2)
    assert iso is not None and iso["p"] == "w"
    assert monoid_iso(m1, PrimitiveMonoid(intro_mixed_pair())) is None


TABLES = ("strictly_above", "strictly_below", "regular", "_names", "_bits", "_index", "_absorbers", "_regular_mask")


def eager_tables(pair):
    """The order maps and the dense core as the constructor once built them."""
    above = {q: set() for q in pair.primes}
    below = {q: set() for q in pair.primes}
    for q, p in pair.rel:
        if q != p:
            above[q].add(p)
            below[p].add(q)
    names = tuple(sorted(pair.primes))
    index = {p: i for i, p in enumerate(names)}
    regular = frozenset(q for q in pair.primes if (q, q) in pair.rel)
    return {
        "strictly_above": {q: frozenset(ps) for q, ps in above.items()},
        "strictly_below": {p: frozenset(qs) for p, qs in below.items()},
        "regular": regular,
        "_names": names,
        "_bits": tuple(1 << i for i in range(len(names))),
        "_index": index,
        "_absorbers": tuple(sum(1 << index[q] for q in above[p]) for p in names),
        "_regular_mask": sum(1 << index[p] for p in regular),
    }


def test_monoid_iso_builds_no_tables():
    for n in range(5):
        posets = enumerate_posets(n)
        for p, q in zip(posets, posets[1:] + posets[:1]):
            m1, m2 = from_poset(p), from_poset(q)
            monoid_iso(m1, m2)
            for m in (m1, m2):
                assert set(vars(m)) == {"pair", "primes"}
    m = PrimitiveMonoid(intro_mixed_pair())
    assert monoid_iso(m, m) is not None and set(vars(m)) == {"pair", "primes"}


def test_tables_built_late_give_the_arithmetic_of_a_fresh_monoid():
    # one monoid reads its tables in reverse, after an isomorphism search;
    # the other goes straight to arithmetic; both match the eager tables
    for pair in enumerate_prime_pairs(3):
        late, fresh = PrimitiveMonoid(pair), PrimitiveMonoid(pair)
        assert monoid_iso(late, fresh) is not None
        for name in reversed(TABLES):
            getattr(late, name)
        elems = fresh.elements(3)
        assert late.elements(3) == elems
        for x, y in itertools.product(elems, repeat=2):
            assert late.add(x, y) == fresh.add(x, y)
        assert [late.phi(x) for x in elems] == [fresh.phi(x) for x in elems]
        assert {name: getattr(late, name) for name in TABLES} == eager_tables(pair)
        assert {name: getattr(fresh, name) for name in TABLES} == eager_tables(pair)
        # once built, a table is a plain attribute, read without a call
        assert set(vars(late)) == set(vars(fresh)) == {"pair", "primes", *TABLES}


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
    m = PrimitiveMonoid(intro_mixed_pair())
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


def test_enumerate_prime_pairs_are_valid_pairs():
    # the catalogue builds its pairs unchecked; the checked constructor
    # accepts each and gives an equal pair
    for pair in enumerate_prime_pairs(5):
        assert PrimePair(pair.primes, pair.rel) == pair


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
