import hashlib
import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import LabelledPoset, PosetError, enumerate_posets, fig2_poset, lower_covers, make_poset
from posetalg.ratfunc import Poly, RatFunc, t_poly
from posetalg.leavitt import AlgebraError, AlgElement, TermKey, generator, one, parse_element
from posetalg import toeplitz
from posetalg.toeplitz import (
    RepError,
    RepVector,
    SigmaPoly,
    _drop_shift,
    _factor_bottom,
    _inverse_series,
    _word_root,
    act,
    act_element,
    act_expr,
    act_sigma,
    act_word,
    build_space,
    check_alphabar_inverse_identity,
    check_corner_inverse_identity,
    check_relation,
    invert_sigma,
    leaf_vector,
    relation_suite,
    run_relation_suite,
    sample_vectors,
    sigma_poly,
    zvar,
)

FIG2 = fig2_poset()
SPACE = build_space(FIG2)


def chain(n):
    ids = [f"c{i}" for i in range(n + 1)]
    return make_poset(ids, [(ids[i], ids[i + 1]) for i in range(n)])


def diamond():
    return make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


def _claw():
    # one vertex over three covers, labelled out of name order
    return make_poset(
        ["a", "b", "c", "p"], [("a", "p"), ("b", "p"), ("c", "p")], {"p": ("c", "a", "b")}
    )


# -- space structure ---------------------------------------------------------


def test_build_space_fig2():
    assert SPACE.leaves["a"] == ((("a", 0),),)
    assert SPACE.leaves["p"] == ((("p", 1), ("a", 0)), (("p", 2), ("b", 0)))


def test_check_path_accepts_exactly_the_leaves():
    for n in range(5):
        for poset in enumerate_posets(n):
            space = build_space(poset)
            for path in space.all_leaves():
                space.check_path(path)
                forms = [path[:cut] for cut in range(1, len(path))]  # proper prefixes
                forms += [list(path), tuple(list(step) for step in path)]
                for bad in forms:
                    with pytest.raises(RepError):
                        space.check_path(bad)
    for bad in ((), (5,), ((("x", 0),),), None, "a"):
        with pytest.raises(RepError):
            SPACE.check_path(bad)


def _level_leaves(poset):
    """The leaves built level by level: peel off the minimal vertices of
    what remains, and give each vertex one branch per lower cover over the
    leaves of that cover."""
    remaining = set(poset.elements)
    leaves = {}
    while remaining:
        level = sorted(p for p in remaining if not (poset.strict[p] & remaining))
        for v in level:
            covers = lower_covers(poset, v)
            leaves[v] = (
                tuple(((v, j),) + tail for j, q in enumerate(covers, start=1) for tail in leaves[q])
                if covers
                else (((v, 0),),)
            )
        remaining -= set(level)
    return leaves


@pytest.mark.hashseed
def test_build_space_matches_level_recursion():
    posets = [poset for n in range(7) for poset in enumerate_posets(n)] + [FIG2, _claw(), diamond()]
    for poset in posets:
        assert build_space(poset).leaves == _level_leaves(poset), poset


def test_build_space_singleton_and_chain():
    single = build_space(make_poset(["x"], []))
    assert single.leaves["x"] == ((("x", 0),),)
    c = build_space(chain(1))
    assert c.leaves["c1"] == ((("c1", 1), ("c0", 0)),)


def test_context_mismatch_rejected():
    other = build_space(chain(1))
    with pytest.raises(RepError):
        RepVector(SPACE, {(("c1", 1), ("c0", 0)): RatFunc.const(1)})
    v = leaf_vector(other, (("c1", 1), ("c0", 0)))
    with pytest.raises(Exception):
        act(SPACE, ("e", "p"), v)


# -- generator actions --------------------------------------------------------


def test_act_spec_examples():
    v = leaf_vector(SPACE, (("p", 1), ("a", 0)))
    assert act_word(SPACE, [("alphabar", "p", "a"), ("alpha", "p", "a")], v) == v
    assert act(SPACE, ("e", "p"), v) == v
    assert act(SPACE, ("e", "a"), v).is_zero()
    # z1-weighted leaf: alpha drops to the constant, beta projects and lands
    v2 = leaf_vector(SPACE, (("p", 1), ("a", 0)), Poly.var(zvar("p", 1)))
    stepped = act(SPACE, ("alpha", "p", "a"), v2)
    assert stepped == v
    landed = act(SPACE, ("beta", "p", "a"), stepped)
    assert landed == leaf_vector(SPACE, (("a", 0),))


def test_step_substitution_twists():
    # a vector with z2-dependence shows the forced inverse substitution
    v = leaf_vector(SPACE, (("p", 1), ("a", 0)), Poly.var(zvar("p", 2)))
    out = act(SPACE, ("beta", "p", "a"), v)
    # z2 -> t1^{-1}
    assert out == leaf_vector(SPACE, (("a", 0),), RatFunc(Poly.const(1), t_poly(1)))
    # and betabar undoes it
    back = act(SPACE, ("betabar", "p", "a"), out)
    assert back == v


def test_idempotents_orthogonal_and_sum_to_identity():
    for v in sample_vectors(SPACE, 2):
        total = RepVector(SPACE)
        for p in FIG2.elements:
            total = total + act(SPACE, ("e", p), v)
        assert total == v
    for p, q in itertools.permutations(FIG2.elements, 2):
        for v in sample_vectors(SPACE, 1):
            assert act_word(SPACE, [("e", p), ("e", q)], v).is_zero()


def test_e_nonzero_for_every_vertex():
    for poset in [FIG2, chain(2), diamond()]:
        space = build_space(poset)
        samples = sample_vectors(space, 1)
        for p in poset.elements:
            assert any(not act(space, ("e", p), v).is_zero() for v in samples)


# -- relation suite ------------------------------------------------------------


@pytest.mark.hashseed
@pytest.mark.parametrize(
    "poset",
    [FIG2, chain(1), chain(2), chain(3), diamond()],
    ids=["fig2", "chain1", "chain2", "chain3", "diamond"],
)
def test_relation_suite(poset):
    results = run_relation_suite(poset, maxdeg=2)
    bad = [r for r in results if not r["ok"]]
    assert not bad


def test_baby_toeplitz_inequality():
    baby = make_poset(["q", "p"], [("q", "p")])
    space = build_space(baby)
    one_ = Fraction(1)
    ok = check_relation(
        space,
        [(one_, [("alphabar", "p", "q"), ("alpha", "p", "q")])],
        [(one_, [("e", "p")])],
    )
    assert ok is None
    bad = check_relation(
        space,
        [(one_, [("alpha", "p", "q"), ("alphabar", "p", "q")])],
        [(one_, [("e", "p")])],
    )
    assert bad is not None


def test_check_relation_reports_counterexample_vector():
    one_ = Fraction(1)
    bad = check_relation(
        SPACE,
        [(one_, [("alpha", "p", "a")])],
        [(one_, [("alpha", "p", "b")])],
    )
    assert bad is not None
    v, left, right = bad
    assert left != right


def _full_loop(space, lhs, rhs, samples):
    """check_relation without the root filter: every word on every sample."""
    for v in samples:
        left, right = act_expr(space, lhs, v), act_expr(space, rhs, v)
        if left != right:
            return (v, left, right)
    return None


def _root_filter_posets():
    posets = [p for n in range(5) for p in enumerate_posets(n)]
    return posets + [FIG2, diamond()]


def test_root_filter_keeps_every_verdict():
    # the suite, and each lhs against the next relation's rhs
    failing = 0
    for poset in _root_filter_posets():
        space = build_space(poset)
        samples = sample_vectors(space, 2)
        rels = [(lhs, rhs) for _, lhs, rhs in relation_suite(poset)]
        mixed = [(lhs, rels[(i + 1) % len(rels)][1]) for i, (lhs, _) in enumerate(rels)]
        for lhs, rhs in rels + mixed:
            got = check_relation(space, lhs, rhs, samples)
            assert repr(got) == repr(_full_loop(space, lhs, rhs, samples))
            failing += got is not None
    assert failing > 100


def test_dropped_words_act_as_zero():
    dropped = 0
    for poset in _root_filter_posets():
        space = build_space(poset)
        words = [word for _, lhs, rhs in relation_suite(poset) for _, word in lhs + rhs]
        samples = sample_vectors(space, 1)
        samples += [a + b for a, b in itertools.combinations(samples[:6], 2)]
        for word in words:
            root = _word_root(word)
            for v in samples:
                if root is not None and all(path[0][0] != root for path in v.coeffs):
                    assert act_word(space, word, v).is_zero()
                    dropped += 1
    assert dropped > 1000


def test_check_relation_runs_act_checks_when_every_sample_is_skipped():
    one_ = Fraction(1)
    at_a, at_b = [leaf_vector(SPACE, (("a", 0),))], [leaf_vector(SPACE, (("b", 0),))]
    fine = [(one_, [("e", "a")])]
    for word, err, msg in [
        ([("e", "zz")], PosetError, "unknown element 'zz'"),
        ([("alpha", "p", "p")], RepError, "'p' is not a lower cover of 'p'"),
        ([("gamma", "p", "a")], RepError, "unknown generator"),
        ([("t", 1), ("betabar", "a", "p")], RepError, "'p' is not a lower cover of 'a'"),
    ]:
        for lhs, rhs in (([(one_, word)], fine), (fine, [(one_, word)])):
            with pytest.raises(err, match=msg):
                check_relation(SPACE, lhs, rhs, at_b)
            with pytest.raises(err, match=msg):
                check_relation(SPACE, lhs, rhs, at_a)
    other = build_space(chain(1))
    with pytest.raises(RepError, match="different space"):
        check_relation(SPACE, fine, fine, [leaf_vector(other, (("c1", 1), ("c0", 0)))])


def test_check_relation_samples_with_several_roots():
    one_ = Fraction(1)
    a, p = leaf_vector(SPACE, (("a", 0),)), leaf_vector(SPACE, (("p", 1), ("a", 0)))
    lhs = [(one_, [("e", "a")]), (one_, [("alphabar", "p", "a"), ("alpha", "p", "a")])]
    assert check_relation(SPACE, lhs, [(one_, [("t", 1), ("scalar", t_poly(1, -1))])], [a + p]) is None
    rhs = [(one_, [("e", "a")])]
    bad = check_relation(SPACE, lhs, rhs, [a, a + p])
    assert bad[0] == a + p
    assert repr(bad) == repr(_full_loop(SPACE, lhs, rhs, [a, a + p]))


def rootwise_check_relation(space, lhs, rhs, samples):
    """check_relation one sample at a time: each sample meets the words
    whose root is one of its paths' roots, and one that meets none is
    skipped."""
    act_expr(space, lhs, RepVector(space))
    act_expr(space, rhs, RepVector(space))
    rooted = [[(_word_root(word), (c, word)) for c, word in expr] for expr in (lhs, rhs)]
    for v in samples:
        if v.space is not space:
            raise RepError("vector belongs to a different space (context mismatch)")
        roots = {path[0][0] for path in v.coeffs}
        kept_l, kept_r = ([t for r, t in side if r is None or r in roots] for side in rooted)
        if not (kept_l or kept_r):
            continue
        left, right = act_expr(space, kept_l, v), act_expr(space, kept_r, v)
        if left != right:
            return (v, left, right)
    return None


@pytest.mark.hashseed
def test_generic_check_matches_the_rootwise_loop():
    # each relation, its rhs plus a t1 word, and its rhs scaled by 2
    verdicts = {True: 0, False: 0}
    for poset in _root_filter_posets():
        space = build_space(poset)
        samples = sample_vectors(space, 3)
        for _, lhs, rhs in relation_suite(poset):
            plus_t1 = rhs + [(Fraction(1), [("t", 1)])]
            doubled = [(2 * c, word) for c, word in rhs]
            for right in (rhs, plus_t1, doubled):
                got = check_relation(space, lhs, right, samples)
                assert repr(got) == repr(rootwise_check_relation(space, lhs, right, samples))
                verdicts[got is None] += 1
    assert verdicts[True] > 1000 and verdicts[False] > 1000


def test_generic_check_acts_once_per_root_set(monkeypatch):
    calls = []
    monkeypatch.setattr(toeplitz, "act", lambda *args: calls.append(args) or act(*args))
    samples = sample_vectors(SPACE, 3)
    rels = relation_suite(FIG2)
    assert all(check_relation(SPACE, lhs, rhs, samples) is None for _, lhs, rhs in rels)
    generic = len(calls)
    calls.clear()
    assert all(rootwise_check_relation(SPACE, lhs, rhs, samples) is None for _, lhs, rhs in rels)
    assert 3 * generic < len(calls)


@pytest.mark.hashseed
def test_generic_check_returns_a_counterexample_before_a_foreign_sample():
    one_ = Fraction(1)
    lhs, rhs = [(one_, [("alpha", "p", "a")])], [(one_, [("alpha", "p", "b")])]
    samples = sample_vectors(SPACE, 1) + [leaf_vector(build_space(chain(1)), (("c1", 1), ("c0", 0)))]
    bad = check_relation(SPACE, lhs, rhs, samples)
    assert bad is not None and bad[0].space is SPACE
    assert repr(bad) == repr(rootwise_check_relation(SPACE, lhs, rhs, samples))


@pytest.mark.hashseed
def test_generic_check_raises_on_a_foreign_sample_no_word_meets():
    one_ = Fraction(1)
    lhs, rhs = [(one_, [("alphabar", "p", "a"), ("alpha", "p", "a")])], [(one_, [("e", "p")])]
    good = sample_vectors(SPACE, 1)
    # a chain's leaf, rooted where no word is, and a leaf of an equal but other space
    outsiders = [leaf_vector(build_space(chain(1)), (("c1", 1), ("c0", 0))), leaf_vector(build_space(FIG2), (("a", 0),))]
    for foreign in outsiders:
        assert check_relation(SPACE, lhs, rhs, good) is None
        with pytest.raises(RepError, match="different space"):
            check_relation(SPACE, lhs, rhs, good + [foreign])


@pytest.mark.hashseed
def test_generic_check_acts_once_per_side_with_a_root_free_word(monkeypatch):
    samples = sample_vectors(SPACE, 3)
    generic = []

    def recorded(space, expr, vec):
        if not vec.is_zero() and all(vec is not v for v in samples):
            generic.append(expr)
        return act_expr(space, expr, vec)

    monkeypatch.setattr(toeplitz, "act_expr", recorded)
    t1 = [(Fraction(1), [("t", 1)])]
    for _, lhs, rhs in relation_suite(FIG2):
        lhs, rhs = lhs + t1, rhs + t1
        generic.clear()
        assert check_relation(SPACE, lhs, rhs, samples) is None
        assert len(generic) == 2 and generic[0] is lhs and generic[1] is rhs


def test_generic_check_falls_back_on_a_sample_holding_its_variable():
    # with c_i = ("", i), c_0 x_1 - c_1 x_0 is zero once beta's substitution
    # sorts its monomials, so the generic sum would hide both counterexamples
    pa = (("p", 1), ("a", 0))
    samples = [leaf_vector(SPACE, pa, Poly.var(("", 1))), leaf_vector(SPACE, pa, -Poly.var(("", 0)))]
    lhs, rhs = [(Fraction(1), [("beta", "p", "a")])], [(Fraction(2), [("beta", "p", "a")])]
    bad = check_relation(SPACE, lhs, rhs, samples)
    assert bad is not None and bad[0] is samples[0]
    assert repr(bad) == repr(rootwise_check_relation(SPACE, lhs, rhs, samples))
    # ("", "x") sorts against t1 but not against ("", 0); "x" sorts against neither
    a = (("a", 0),)
    lhs, rhs = [(Fraction(1), [("t", 1)])], [(Fraction(2), [("t", 1)])]
    for var, lhs, rhs in [
        (("", "x"), lhs, rhs),
        ("x", [(Fraction(1), [("e", "a")])], [(Fraction(2), [("e", "a")])]),
    ]:
        unsortable = [leaf_vector(SPACE, a), leaf_vector(SPACE, a, Poly.var(var))]
        bad = check_relation(SPACE, lhs, rhs, unsortable)
        assert bad is not None and bad[0] is unsortable[0]
        assert repr(bad) == repr(rootwise_check_relation(SPACE, lhs, rhs, unsortable))


def test_generic_check_falls_back_on_a_multi_term_denominator():
    one_ = Fraction(1)
    over_slot = RatFunc(Poly.const(1), Poly({(): 1, ((zvar("p", 1), 1),): 1}))
    samples = [leaf_vector(SPACE, (("p", 1), ("a", 0)), over_slot)]
    epq = [(one_, [("epq", "p", "a")])]
    with pytest.raises(RepError, match="denominator depends on the polynomial slot"):
        check_relation(SPACE, epq, epq, samples)
    over_t = RatFunc(Poly.const(1), Poly({(): 1, ((("t", 1), 1),): 1}))
    samples = [leaf_vector(SPACE, (("p", 1), ("a", 0)), over_t), leaf_vector(SPACE, (("a", 0),), over_t)]
    lhs, rhs = [(one_, [("beta", "p", "a")])], [(one_, [("beta", "p", "a"), ("t", 1)])]
    bad = check_relation(SPACE, lhs, rhs, samples)
    assert bad is not None and bad[0] is samples[0]
    assert repr(bad) == repr(rootwise_check_relation(SPACE, lhs, rhs, samples))


def test_generic_check_keeps_a_counterexample_before_an_error():
    one_ = Fraction(1)
    path = (("p", 1), ("a", 0))
    wrong = leaf_vector(SPACE, path)
    negative = leaf_vector(SPACE, path, Poly.var(zvar("p", 1), -1))
    lhs, rhs = [(one_, [("epq", "p", "a")])], [(Fraction(2), [("epq", "p", "a")])]
    bad = check_relation(SPACE, lhs, rhs, [wrong, negative])
    assert bad is not None and bad[0] is wrong
    assert repr(bad) == repr(rootwise_check_relation(SPACE, lhs, rhs, [wrong, negative]))
    with pytest.raises(RepError, match="negative power of the polynomial slot"):
        check_relation(SPACE, lhs, rhs, [negative, wrong])


# -- element action -------------------------------------------------------------


def _full_fold(space, x, vec):
    """act_element without the corner split: each term's word, led by the
    idempotent of its corner, on the whole vector."""
    total = RepVector(space)
    for key, coeff in x.terms.items():
        word = [("e", key.left[0][0] if key.left else key.mid)]
        for u, v, m in key.left:
            word += [("alpha", u, v)] * m + [("beta", u, v)]
        word.append(("scalar", RatFunc(coeff)))
        for q, e in key.powers:
            word += [("alpha" if e > 0 else "alphabar", key.mid, q)] * abs(e)
        for u, v, m in key.right:
            word += [("betabar", u, v)] + [("alphabar", u, v)] * m
        total = total + act_word(space, word, vec)
    return total


@pytest.mark.parametrize("poset", [FIG2, diamond(), _claw()], ids=["fig2", "diamond", "claw"])
def test_act_element_matches_full_fold(poset):
    rng = random.Random(31)
    space = build_space(poset)
    gens = [("e", p) for p in poset.elements] + [("t", 1), ("t", 2)]
    for p, qs in poset.labels.items():
        gens += [(k, p, q) for q in qs for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    samples = sample_vectors(space, 2)
    mixed = [a + b for a, b in zip(samples, samples[1:]) if {*a.coeffs} != {*b.coeffs}]
    mixed.append(sum(samples[::3], RepVector(space)))
    assert any(len({path[0][0] for path in v.coeffs}) > 1 for v in mixed)
    for _ in range(25):
        x = AlgElement(poset)
        for _ in range(3):
            term = one(poset)
            for g_ in (rng.choice(gens) for _ in range(rng.randint(1, 3))):
                term = term * generator(poset, *g_)
            x = x + term
        for v in samples + mixed:
            got, want = act_element(space, x, v), _full_fold(space, x, v)
            assert got == want and repr(got) == repr(want)


def test_act_element_checks_skipped_terms():
    at_a = leaf_vector(SPACE, (("a", 0),))
    for key, err, msg in [
        (TermKey((("p", "zz", 0),), "zz", (), ()), RepError, "'zz' is not a lower cover of 'p'"),
        (TermKey((), "p", (("p", 1),), ()), RepError, "'p' is not a lower cover of 'p'"),
        (TermKey((), "b", (), (("b", "a", 0),)), RepError, "'a' is not a lower cover of 'b'"),
        (TermKey((), "zz", (), ()), PosetError, "unknown element 'zz'"),
    ]:
        x = AlgElement(FIG2, {key: 1})
        with pytest.raises(err, match=msg):
            act_element(SPACE, x, at_a)
        with pytest.raises(err, match=msg):
            act_element(SPACE, x, RepVector(SPACE))
        with pytest.raises(err, match=msg):  # as the full fold does
            _full_fold(SPACE, x, at_a)



def test_act_element_matches_word_action():
    rng = random.Random(23)
    gens = [("e", p) for p in FIG2.elements]
    for p in FIG2.elements:
        for q in lower_covers(FIG2, p):
            gens += [(k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    gens += [("t", 1), ("t", 2)]
    samples = sample_vectors(SPACE, 2)[:8]
    for _ in range(120):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
        x = one(FIG2)
        for g_ in word:
            x = x * generator(FIG2, *g_)
        top = [
            ("scalar", RatFunc(t_poly(g_[1]))) if g_[0] == "t" else g_ for g_ in word
        ]
        for v in samples:
            assert act_word(SPACE, top, v) == act_element(SPACE, x, v)


def _word_strategy(poset):
    gens = [("e", p) for p in poset.elements] + [("t", 1), ("t", 2), ("scalar", Fraction(-2, 3))]
    for p in poset.elements:
        for q in lower_covers(poset, p):
            gens += [(k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    return st.lists(st.sampled_from(gens), min_size=2, max_size=5)


@pytest.mark.parametrize(
    "poset", [FIG2, diamond(), chain(3), _claw()], ids=["fig2", "diamond", "chain3", "claw"]
)
def test_act_word_matches_act_element_of_the_product(poset):
    space = build_space(poset)
    samples = sample_vectors(space, 2)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_word_strategy(poset))
    def check(word):
        x = one(poset)
        for g_ in word:
            x = x * generator(poset, *g_)
        top = [("scalar", RatFunc(t_poly(g_[1]))) if g_[0] == "t" else g_ for g_ in word]
        for v in samples:
            assert act_word(space, top, v) == act_element(space, x, v)

    check()


def test_act_and_repvector_reject_foreign_vectors():
    other = build_space(chain(1))
    foreign = leaf_vector(other, (("c1", 1), ("c0", 0)))
    for gen in [("e", "p"), ("alpha", "p", "a"), ("scalar", 2)]:
        with pytest.raises(RepError):
            act(SPACE, gen, foreign)
    with pytest.raises(RepError):  # p's first branch runs through a, not b
        RepVector(SPACE, {(("p", 1), ("b", 0)): 1})


def test_repvector_add_rejects_a_vector_of_another_space():
    # two spaces over the same poset: equal leaves, yet not one context
    one_space, other = build_space(chain(1)), build_space(chain(1))
    leaf = (("c1", 1), ("c0", 0))
    v1, v2 = leaf_vector(one_space, leaf), leaf_vector(other, leaf)
    assert v1 != v2
    with pytest.raises(RepError):
        v1 + v2
    with pytest.raises(RepError):
        v1 - v2


def test_only_vectors_add_to_a_vector():
    v = leaf_vector(SPACE, (("a", 0),))
    for other in (1, RatFunc.const(1), generator(FIG2, "e", "a")):
        for op in (lambda: v + other, lambda: v - other, lambda: other + v, lambda: other - v):
            with pytest.raises(TypeError):
                op()


def test_act_element_rejects_foreign_poset():
    other = chain(1)
    with pytest.raises(RepError):
        act_element(SPACE, one(other), leaf_vector(SPACE, (("a", 0),)))


def test_one_poset_object_is_never_compared_field_by_field(monkeypatch):
    calls = []
    compare = LabelledPoset.__eq__

    def counted(self, other):
        calls.append(other)
        return compare(self, other)

    monkeypatch.setattr(LabelledPoset, "__eq__", counted)
    x = generator(FIG2, "alpha", "p", "b") * generator(FIG2, "beta", "p", "a")
    v = act_element(SPACE, x + x, leaf_vector(SPACE, (("p", 1), ("a", 0))))
    assert x == x and not v.is_zero()
    assert calls == []
    # an equal poset held in another object is compared, and agrees
    twin = fig2_poset()
    assert x == parse_element(twin, "a[p,b] * b[p,a]") and calls
    # different posets still raise
    with pytest.raises(AlgebraError, match="different posets"):
        x * one(chain(1))
    with pytest.raises(AlgebraError, match="different posets"):
        x + one(chain(1))
    with pytest.raises(AlgebraError, match="different posets"):
        x - one(chain(1))
    with pytest.raises(RepError, match="different posets"):
        act_element(SPACE, one(chain(1)), leaf_vector(SPACE, (("a", 0),)))


def test_corner_consistency():
    # elements over a lower subset act identically via the subspace and kill
    # vectors supported outside it
    lower = {"a"}
    sub = make_poset(["a"], [])
    x = parse_element(FIG2, "t2 * e[a]")
    outside = leaf_vector(SPACE, (("p", 1), ("a", 0)))
    assert act_element(SPACE, x, outside).is_zero()
    inside = leaf_vector(SPACE, (("a", 0),))
    got = act_element(SPACE, x, inside)
    assert got == inside.scale(RatFunc(t_poly(2)))
    # full lower set {a, b}: the corner at A fixes V(A) setwise
    for v in sample_vectors(SPACE, 1):
        rooted_in_a = all(path[0][0] in {"a", "b"} for path in v.coeffs)
        corner = act_expr(
            SPACE,
            [(Fraction(1), [("e", "a")]), (Fraction(1), [("e", "b")])],
            v,
        )
        if rooted_in_a:
            assert corner == v


def test_faithfulness_probe_random_elements():
    rng = random.Random(29)
    gens = [("e", p) for p in FIG2.elements]
    for p in FIG2.elements:
        for q in lower_covers(FIG2, p):
            gens += [(k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    samples = sample_vectors(SPACE, 3)
    tried = 0
    for _ in range(100):
        x = one(FIG2)
        for g_ in (rng.choice(gens) for _ in range(rng.randint(1, 3))):
            x = x * generator(FIG2, *g_)
        if x.is_zero():
            continue
        tried += 1
        moved = any(not act_element(SPACE, x, v).is_zero() for v in samples)
        assert moved, x
    assert tried > 50


# -- truncated inverses -----------------------------------------------------------


def test_invert_sigma_identity_poly():
    f = sigma_poly(FIG2, "p", {(): 1})
    for v in sample_vectors(SPACE, 3):
        expected = act(SPACE, ("e", "p"), v)
        assert invert_sigma(SPACE, f, v, 2) == expected


def test_invert_sigma_geometric():
    f = sigma_poly(FIG2, "p", {(): 1, ("a",): -1})
    for d in range(7):
        v = leaf_vector(SPACE, (("p", 1), ("a", 0)), Poly.var(zvar("p", 1), d))
        inv = invert_sigma(SPACE, f, v, 6)
        assert act_sigma(SPACE, f, inv) == v  # exact up to the depth: slot degree <= 6


def test_invert_sigma_window_bound():
    # past the depth the truncation is visible: slot degree 6 at depth 3
    f = sigma_poly(FIG2, "p", {(): 1, ("a",): -1})
    v = leaf_vector(SPACE, (("p", 1), ("a", 0)), Poly.var(zvar("p", 1), 6))
    inv = invert_sigma(SPACE, f, v, 3)
    assert act_sigma(SPACE, f, inv) != v


def test_invert_sigma_valuation_gate():
    with pytest.raises(AlgebraError):
        invert_sigma(
            SPACE, sigma_poly(FIG2, "p", {("a",): 1}), leaf_vector(SPACE, (("a", 0),)), 4
        )
    # v(f)=0 with a mixed monomial is accepted
    f = sigma_poly(FIG2, "p", {(): 1, ("a", "b"): 1})
    assert f.valuation(FIG2) == 0
    v = leaf_vector(SPACE, (("p", 1), ("a", 0)), Poly.var(zvar("p", 1), 2))
    assert act_sigma(SPACE, f, invert_sigma(SPACE, f, v, 6)) == v


def test_valuation_verdicts_and_errors():
    # the largest power of a cover variable that divides the polynomial
    assert sigma_poly(FIG2, "p", {(): 1, ("a", "b"): 1}).valuation(FIG2) == 0
    assert sigma_poly(FIG2, "p", {("a",): 1}).valuation(FIG2) == 1
    assert sigma_poly(FIG2, "p", {("a", "a", "b", "b"): 1, ("a", "a", "b", "b", "b"): 2}).valuation(FIG2) == 2
    # a vertex without covers has nothing to divide by
    assert sigma_poly(FIG2, "a", {(): 2}).valuation(FIG2) == 0
    assert SigmaPoly("a", Poly()).valuation(FIG2) == 0
    with pytest.raises(AlgebraError, match="zero polynomial has no valuation"):
        SigmaPoly("p", Poly()).valuation(FIG2)
    negative = Poly({((("x", "a"), 2),): 1, ((("x", "b"), -1),): 1})
    with pytest.raises(AlgebraError, match="negative cover exponent is not a polynomial"):
        SigmaPoly("p", negative).valuation(FIG2)


def test_valuation_rejects_a_variable_foreign_to_the_vertex():
    # 'zz' is no element and 'p' no cover of 'a', so neither x may appear
    foreign = [
        (SigmaPoly("p", Poly({(): 1, ((("x", "zz"), 1),): 1})), (("p", 1), ("a", 0)), "('x', 'zz')", "'p'"),
        (SigmaPoly("a", Poly({(): 1, ((("x", "p"), 1),): 1})), (("a", 0),), "('x', 'p')", "'a'"),
        (SigmaPoly("p", Poly({(): 1, ((("z", "p", 1), 1),): 1})), (("p", 1), ("a", 0)), "('z', 'p', 1)", "'p'"),
    ]
    for f, leaf, var, vertex in foreign:
        message = rf"variables \[{re.escape(var)}\] are neither t nor the x of a lower cover of {vertex}"
        with pytest.raises(AlgebraError, match=message):
            f.valuation(FIG2)
        with pytest.raises(AlgebraError, match=message):
            invert_sigma(SPACE, f, leaf_vector(SPACE, leaf), 2)
    # t variables and the vertex's own covers pass
    t_and_covers = Poly({(): 1, ((("t", 1), 1), (("x", "a"), 1)): 1, ((("x", "b"), 2),): 1})
    assert SigmaPoly("p", t_and_covers).valuation(FIG2) == 0
    assert SigmaPoly("a", Poly({(): 1, ((("t", 2), -1),): 1})).valuation(FIG2) == 0


def test_sigma_poly_reads_the_poset():
    with pytest.raises(PosetError, match="unknown element 'zz'"):
        sigma_poly(FIG2, "zz", {(): 2})
    with pytest.raises(AlgebraError, match="'b' is not a lower cover of 'a'"):
        sigma_poly(FIG2, "a", {("b",): 1, (): 1})
    with pytest.raises(AlgebraError, match="'zz' is not a lower cover of 'p'"):
        sigma_poly(FIG2, "p", {(): 1, ("a", "zz"): 1})
    assert sigma_poly(FIG2, "p", {("b", "a", "b"): 1}) == SigmaPoly("p", Poly({((("x", "a"), 1), (("x", "b"), 2)): 1}))


def test_sigma_poly_rejects_a_monomial_spec_given_as_one_string():
    # "ab" would split into the covers a and b
    for spec in ("ab", "a"):
        with pytest.raises(AlgebraError, match=f"monomial spec {spec!r} is a bare string"):
            sigma_poly(FIG2, "p", {(): 1, spec: 1})


@pytest.mark.parametrize("maxdeg", [-1, True, 2.5, "3", None])
def test_sample_vectors_rejects_a_maxdeg_that_is_not_a_non_negative_int(maxdeg):
    with pytest.raises(AlgebraError, match=re.escape(f"maxdeg {maxdeg!r} is not a non-negative int")):
        sample_vectors(SPACE, maxdeg)
    assert len(sample_vectors(SPACE, 0)) == len(SPACE.all_leaves())


def test_invert_sigma_minimal_vertex_scalar():
    f = sigma_poly(FIG2, "a", {(): 2})
    v = leaf_vector(SPACE, (("a", 0),))
    assert invert_sigma(SPACE, f, v, 3) == v.scale(Fraction(1, 2))


def test_invert_sigma_minimal_vertex_keeps_only_its_leaf():
    # a vector on the leaves of all three roots: only a's leaf survives,
    # scaled by the inverse of the Laurent scalar 2 - t1
    laurent = Poly({(): 2, ((("t", 1), 1),): -1})
    f = SigmaPoly("a", laurent)
    v = RepVector(SPACE, {path: Poly.var(zvar(*path[0])) if path[0][1] else 3 for path in SPACE.all_leaves()})
    assert {path[0][0] for path in v.coeffs} == {"a", "b", "p"}
    expected = leaf_vector(SPACE, (("a", 0),), RatFunc(laurent).inverse() * 3)
    assert invert_sigma(SPACE, f, v, 3) == expected


def test_invert_sigma_rejects_foreign_vectors():
    f = sigma_poly(FIG2, "a", {(): 2})
    with pytest.raises(RepError):
        invert_sigma(build_space(FIG2), f, leaf_vector(SPACE, (("a", 0),)), 3)


@pytest.mark.parametrize("depth", [-1, True, 2.5, "3", None])
def test_invert_sigma_rejects_a_depth_that_is_not_a_non_negative_int(depth):
    f = sigma_poly(FIG2, "p", {(): 1, ("a",): -1})
    message = re.escape(f"depth {depth!r} is not a non-negative int")
    with pytest.raises(AlgebraError, match=message):
        invert_sigma(SPACE, f, leaf_vector(SPACE, (("p", 1), ("a", 0))), depth)
    for check in (check_corner_inverse_identity, check_alphabar_inverse_identity):
        with pytest.raises(AlgebraError, match=message):
            check(SPACE, f, "a", depth)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: Poly.const("3/2"),
        lambda: generator(FIG2, "scalar", "3/2"),
        lambda: act(SPACE, ("scalar", "3/2"), leaf_vector(SPACE, (("a", 0),))),
        lambda: leaf_vector(SPACE, (("a", 0),), "2"),
        lambda: sigma_poly(FIG2, "p", {(): "1"}),
    ],
    ids=["Poly.const", "generator", "act", "leaf_vector", "sigma_poly"],
)
def test_a_string_is_not_read_as_a_scalar(entry):
    # Fraction("3/2") would read it, so every scalar entry point refuses it
    with pytest.raises(TypeError, match="is a string, not a number"):
        entry()


def test_invert_sigma_checks_the_slot_at_every_depth():
    f = sigma_poly(FIG2, "p", {(): 1, ("a",): -1})
    path, z = (("p", 1), ("a", 0)), zvar("p", 1)
    negative = leaf_vector(SPACE, path, Poly.var(z, -1))
    slot_den = leaf_vector(SPACE, path, RatFunc(Poly({(): 1, ((z, 1),): 1})).inverse())
    for v, text in ((negative, "negative power of"), (slot_den, "denominator depends on")):
        message = f"{text} the polynomial slot {z}"
        for depth in range(4):
            with pytest.raises(RepError) as new:
                invert_sigma(SPACE, f, v, depth)
            assert str(new.value) == message
            if depth:
                with pytest.raises(RepError) as old:
                    _full_series_inverse(SPACE, f, v, depth)
                assert str(old.value) == message


def _full_series_inverse(space, f, vec, depth):
    """The reference: invert_sigma with every slot's series run to depth,
    however low the slot degrees of the vector's coefficients are.  It
    skips invert_sigma's gates, so f must be admissible."""
    p = f.vertex
    series = {}
    out = {}
    for path, coeff in vec.coeffs.items():
        root, j = path[0]
        if root != p:
            continue
        if j not in series:
            series[j] = _inverse_series(space.poset, f, j, depth)
        gs = series[j]
        zeta = zvar(p, j)
        shifted = (_drop_shift(coeff * g, zeta, times=a) for a, g in enumerate(gs[1:], start=1))
        out[path] = sum(shifted, coeff * gs[0])
    return RepVector._trusted(space, out)


@pytest.mark.hashseed
def test_invert_sigma_matches_the_full_series_on_the_digest_family():
    for poset, f in _digest_family():
        if f.valuation(poset):
            continue
        space = build_space(poset)
        for v in sample_vectors(space, 3):
            for depth in range(7):
                assert repr(invert_sigma(space, f, v, depth)) == repr(_full_series_inverse(space, f, v, depth))


def _reference_polys(poset, p):
    """Admissible polynomials at p: Laurent scalars at a minimal vertex,
    else ones with t-coefficients, a mixed monomial and a square."""
    covers = lower_covers(poset, p)
    t1 = (("t", 1), 1)
    if not covers:
        return [SigmaPoly(p, Poly({(): 2, (t1,): -1})), SigmaPoly(p, Poly({(): 3}))]
    x = [("x", q) for q in covers]
    return [
        sigma_poly(poset, p, {(): 1, (covers[0],): -1}),
        SigmaPoly(p, Poly({(): 2, ((x[0], 1), t1): Fraction(-1, 2), ((x[-1], 2),): 3})),
        SigmaPoly(p, Poly({(): 1, tuple(sorted((xq, 1) for xq in x)): 1, ((x[-1], 1), t1): -2})),
    ]


def _reference_coeff(path, d):
    """(z^d + 2 t1 z^(d // 2) + w) / (1 + t1) for the path's slot variable
    z (t3 at a minimal vertex), with w a deeper slot variable of the path,
    or t2 on a short path."""
    z = Poly.var(zvar(*path[0])) if path[0][1] else t_poly(3)
    deeper = [zvar(u, j) for u, j in path[1:] if j]
    w = Poly.var(deeper[0]) if deeper else t_poly(2)
    num = z**d + z ** (d // 2) * t_poly(1).scale(2) + w
    return RatFunc(num) / RatFunc(Poly({(): 1, ((("t", 1), 1),): 1}))


def _down_set_shape(paths):
    """The leaf paths of a vertex with the vertices renamed in order of
    first appearance: the labelled down-set below it, up to names."""
    names = {}
    return tuple(tuple((names.setdefault(u, len(names)), j) for u, j in path) for path in paths)


@pytest.mark.hashseed
def test_invert_sigma_matches_the_full_series_at_every_minimal_and_forked_vertex():
    # slot degrees 0, 2 and 5 against depths 0..4 put each coefficient's top
    # slot degree above, at and below the depth; the sums mix slots and roots.
    # The inverse at p reads only the down-set below p, so each labelled
    # down-set is checked once.
    seen = set()
    for n in range(6):
        for poset in enumerate_posets(n):
            space = build_space(poset)
            leaves = space.all_leaves()
            everywhere = RepVector(space, {path: _reference_coeff(path, 1) for path in leaves})
            for p in poset.elements:
                mine = [path for path in leaves if path[0][0] == p]
                shape = _down_set_shape(mine)
                if poset.n_covers(p) == 1 or shape in seen:
                    continue
                seen.add(shape)
                vectors = [leaf_vector(space, path, _reference_coeff(path, d)) for path in mine for d in (0, 2, 5)]
                vectors.append(RepVector(space, {path: _reference_coeff(path, 3 * i) for i, path in enumerate(mine)}))
                vectors.append(everywhere)
                for f in _reference_polys(poset, p):
                    for v in vectors:
                        for depth in range(5):
                            got = invert_sigma(space, f, v, depth)
                            assert repr(got) == repr(_full_series_inverse(space, f, v, depth)), (poset, p, f, v, depth)


def test_sample_inverses_round_trip():
    fs = [
        sigma_poly(FIG2, "p", {(): 1}),
        sigma_poly(FIG2, "p", {(): 2}),
        sigma_poly(FIG2, "p", {(): 1, ("a",): -1}),
        sigma_poly(FIG2, "p", {(): 1, ("b",): 1}),
        sigma_poly(FIG2, "p", {(): 1, ("a", "b"): 1}),
        sigma_poly(FIG2, "p", {(): 1, ("a",): Fraction(1, 2), ("b", "b"): 1}),
    ]
    for f in fs:
        degf = max(f.poly.degree_span(("x", q))[1] for q in ("a", "b"))
        for d in range(0, 5 - degf):
            for branch, leafpath in ((1, (("p", 1), ("a", 0))), (2, (("p", 2), ("b", 0)))):
                v = leaf_vector(SPACE, leafpath, Poly.var(zvar("p", branch), d))
                inv = invert_sigma(SPACE, f, v, 6)
                assert act_sigma(SPACE, f, inv) == v


# -- localization identities at truncation ------------------------------------------


@pytest.mark.parametrize("q", ["a", "b"])
def test_corner_inverse_identity(q):
    fs = [
        sigma_poly(FIG2, "p", {(): 1, ("a",): -1}),
        sigma_poly(FIG2, "p", {(): 1, ("a",): 1, ("b", "b"): 2}),
        sigma_poly(FIG2, "p", {("b",): 1, (): 1}),
    ]
    for f in fs:
        for depth in range(1, 7):
            assert check_corner_inverse_identity(SPACE, f, q, depth) is None


@pytest.mark.parametrize("q", ["a", "b"])
def test_alphabar_inverse_identity(q):
    fs = [
        sigma_poly(FIG2, "p", {(): 1, ("a",): -1}),
        sigma_poly(FIG2, "p", {(): 1, ("a",): 1, ("b",): 1}),
    ]
    for f in fs:
        for depth in range(1, 7):
            assert check_alphabar_inverse_identity(SPACE, f, q, depth) is None


def _parent_corner_identity(space, f, q, depth):
    """check_corner_inverse_identity before the shared sample walk, kept as
    the reference; it reads invert_sigma through the module, so a patched
    one reaches both."""
    P = space.poset
    p = f.vertex
    _, wmono, f0p, _ = _factor_bottom(f, P, q)
    samples = sample_vectors(space, 2)
    epq = ("epq", p, q)
    wbar_word = [("alphabar", p, var[1]) for var, m in sorted(wmono.items()) for _ in range(m)]
    for v in samples:
        lhs = toeplitz.invert_sigma(space, f, act(space, epq, v), depth)
        mid = act_word(space, wbar_word + [epq], toeplitz.invert_sigma(space, f0p, v, depth))
        rhs = act_word(space, wbar_word, toeplitz.invert_sigma(space, f0p, act(space, epq, v), depth))
        for other in (mid, rhs):
            if not _parent_above_window(space, f, lhs - other, depth):
                return (v, lhs, other)
    return None


def _parent_above_window(space, f, diff, depth):
    P = space.poset
    p = f.vertex
    for path, c in diff.coeffs.items():
        root, j = path[0]
        if root != p:
            return False
        covers = lower_covers(P, p)
        cutoff = depth - f.poly.degree_span(("x", covers[j - 1]))[1]
        if c.num.degree_span(zvar(p, j))[0] <= cutoff:
            return False
    return True


def _parent_alphabar_identity(space, f, q, depth):
    """check_alphabar_inverse_identity before the shared sample walk."""
    P = space.poset
    p = f.vertex
    _, wmono, f0p, rest = _factor_bottom(f, P, q)
    xq = ("x", q)
    gpoly = Poly()
    for b, part in rest.items():
        gpoly = gpoly + part * Poly.var(xq, b - 1)
    g = SigmaPoly(p, -gpoly)
    epq = ("epq", p, q)
    ab = ("alphabar", p, q)
    wbar_word = [("alphabar", p, var[1]) for var, m in sorted(wmono.items()) for _ in range(m)]
    inv = toeplitz.invert_sigma
    for v in sample_vectors(space, 2):
        lhs = inv(space, f, act(space, ab, v), depth)
        t1 = act(space, ab, inv(space, f, v, depth))
        t2 = act_word(space, wbar_word + [epq], act_sigma(space, g, inv(space, f0p, inv(space, f, v, depth), depth)))
        if not _parent_above_window(space, f, lhs - (t1 + t2), depth):
            return (v, lhs, t1 + t2)
    return None


def _outcome(check, *args):
    try:
        return repr(check(*args))
    except Exception as exc:  # the error is part of the outcome
        return (type(exc), str(exc))


def _identity_cases():
    for poset, f in _digest_family():
        space = build_space(poset)
        for q in lower_covers(poset, f.vertex):
            for depth in range(7):
                yield space, f, q, depth


@pytest.mark.hashseed
def test_identity_walk_matches_the_parent_loops(monkeypatch):
    # the digest family at depths 0..6, with the real invert_sigma and then
    # one that adds its input, or a leaf off the polynomial's vertex.  At
    # depths 3..6 the walk reads the parent loops' degree-2 samples, and
    # verdicts and counterexamples are theirs; at depths 1..2 the parent's
    # window flagged correct inverses, and the exact walk returns None for
    # the real inverse and catches each wrong one; depth 0 covers no sample
    pairs = [
        (check_corner_inverse_identity, _parent_corner_identity),
        (check_alphabar_inverse_identity, _parent_alphabar_identity),
    ]
    wrongs = [
        None,
        lambda space, f, v, d: invert_sigma(space, f, v, d) + v,
        lambda space, f, v, d: invert_sigma(space, f, v, d) + leaf_vector(space, space.all_leaves()[0]),
    ]
    for wrong in wrongs:
        if wrong:
            monkeypatch.setattr(toeplitz, "invert_sigma", wrong)
        caught = {depth: 0 for depth in range(1, 7)}
        for space, f, q, depth in _identity_cases():
            for check, parent in pairs:
                if depth == 0:
                    with pytest.raises(AlgebraError, match="the least depth is 1"):
                        check(space, f, q, depth)
                    continue
                got = _outcome(check, space, f, q, depth)
                if depth >= 3:
                    assert got == _outcome(parent, space, f, q, depth), (f, q, depth)
                assert wrong or got == "None", (f, q, depth)
                caught[depth] += got != "None"
        assert not wrong or all(caught.values()), caught
    for check, parent in pairs:  # a bad cover and a bad depth, in the parent's order
        for q, depth in (("zz", 3), ("a", -1), ("zz", -1)):
            f = _digest_family()[0][1]
            assert _outcome(check, SPACE, f, q, depth) == _outcome(parent, SPACE, f, q, depth)


def test_corner_identity_compares_its_third_side(monkeypatch):
    # an inverse of f0' that also adds alphabar_q e(p,q) v: that term has no
    # constant part in the slot, so e(p,q) kills it on the second side, and
    # only the third side, e(p,q) (f0')^{-1} wbar, tells it apart (an f with
    # f0' = f gives no case)
    for space, f, q, depth in _identity_cases():
        if not depth or _factor_bottom(f, space.poset, q)[2] == f:
            continue
        epq, ab = ("epq", f.vertex, q), ("alphabar", f.vertex, q)

        def wrong(space, g, v, d, f=f, epq=epq, ab=ab):
            out = invert_sigma(space, g, v, d)
            return out if g == f else out + act(space, ab, act(space, epq, v))

        monkeypatch.setattr(toeplitz, "invert_sigma", wrong)
        bad = check_corner_inverse_identity(space, f, q, depth)
        monkeypatch.undo()
        v, lhs, other = bad
        assert lhs == toeplitz.invert_sigma(space, f, act(space, epq, v), depth) != other


def test_identity_walk_applies_only_untruncated_inverses(monkeypatch):
    # every inverse the two identities apply at depths 1..6 equals the
    # full series run well past the depth, so both sides are exact
    calls = []

    def checked(space, f, v, depth):
        out = invert_sigma(space, f, v, depth)
        assert out == _full_series_inverse(space, f, v, depth + 6), (f, v, depth)
        calls.append(depth)
        return out

    monkeypatch.setattr(toeplitz, "invert_sigma", checked)
    for space, f, q, depth in _identity_cases():
        if depth:
            assert check_corner_inverse_identity(space, f, q, depth) is None
            assert check_alphabar_inverse_identity(space, f, q, depth) is None
    assert len(calls) > 1000


def _parent_check_relation(space, lhs, rhs, samples=None):
    """check_relation before the shared sample walk: on a foreign sample it
    skips the generic check, and its fallback reruns the selection."""
    if samples is None:
        samples = sample_vectors(space)
    for side in (lhs, rhs):
        act_expr(space, side, RepVector(space))
    roots = {_word_root(word) for _, word in lhs + rhs}
    every = None in roots
    kept = []
    for v in samples:
        if type(v) is not RepVector or v.space is not space:
            kept = None
            break
        if every:
            kept.append(v)
            continue
        for path in v.coeffs:
            if path[0][0] in roots:
                kept.append(v)
                break
    if kept is not None and toeplitz._agrees_generically(space, lhs, rhs, kept):
        return None
    for v in samples:
        if v.space is not space:
            raise RepError("vector belongs to a different space (context mismatch)")
        if every or any(path[0][0] in roots for path in v.coeffs):
            left, right = act_expr(space, lhs, v), act_expr(space, rhs, v)
            if left != right:
                return (v, left, right)
    return None


@pytest.mark.hashseed
def test_relation_walk_matches_the_parent_loop():
    # each relation and each lhs against the next relation's rhs, at sample
    # degrees 0..6, then with a foreign sample first, in the middle and last
    verdicts = {True: 0, False: 0, "error": 0}
    for poset in (FIG2, _claw()):
        space = build_space(poset)
        rels = [(lhs, rhs) for _, lhs, rhs in relation_suite(poset)]
        mixed = [(lhs, rels[(i + 1) % len(rels)][1]) for i, (lhs, _) in enumerate(rels)]
        foreign = leaf_vector(build_space(poset), space.all_leaves()[0])
        for d in range(7):
            samples = sample_vectors(space, d)
            for lhs, rhs in rels + mixed:
                got = _outcome(check_relation, space, lhs, rhs, samples)
                assert got == _outcome(_parent_check_relation, space, lhs, rhs, samples)
                verdicts[got == "None"] += 1
        for lhs, rhs in rels[:4] + mixed[:4]:
            for at in (0, len(samples) // 2, len(samples)):
                with_foreign = samples[:at] + [foreign] + samples[at:]
                got = _outcome(check_relation, space, lhs, rhs, with_foreign)
                assert got == _outcome(_parent_check_relation, space, lhs, rhs, with_foreign)
                verdicts["error" if type(got) is tuple else got == "None"] += 1
    assert min(verdicts.values()) > 10


def test_relation_suite_covers_all_families():
    names = {r[0].split("[")[0] for r in relation_suite(FIG2)}
    assert {
        "A.3a", "A.3b", "A.4", "A.5", "A.8", "A.9", "A.10a", "A.10b",
        "A.13a", "A.13b", "A.13c", "A.13d", "A.14a", "A.14b", "A.14c",
        "A.14d", "A.15a", "A.15b", "A.16", "A.17", "A.18",
    } <= names


# -- behaviour digest -------------------------------------------------------------


def _digest_family():
    """The polynomials the digest pins; it inverts the admissible ones."""
    t1x = lambda q: ((("t", 1), 1), (("x", q), 1))  # noqa: E731
    return [
        (FIG2, sigma_poly(FIG2, "p", {(): 1, ("a",): -1})),
        (FIG2, sigma_poly(FIG2, "p", {(): 1, ("a",): 1, ("b", "b"): 2})),
        (FIG2, SigmaPoly("p", Poly({(): 1, t1x("a"): Fraction(-1, 2), t1x("b"): 3}))),
        (_claw(), sigma_poly(_claw(), "p", {(): 2, ("a", "b"): 1, ("c",): Fraction(1, 2)})),
        (_claw(), sigma_poly(_claw(), "p", {("b", "c"): 1, ("a",): 1, ("b", "b", "c"): 2})),
        (_claw(), sigma_poly(_claw(), "p", {("a", "c"): 1, ("b",): -1, ("a", "a", "c", "c"): 1})),
    ]


@pytest.mark.hashseed
def test_algebra_outputs_digest():
    # Pins every generator action (and betabar after each beta) over all
    # posets with n <= 5, plus the truncated inverses, element forms and
    # bottom factorizations of a fixed family, so a rewrite of the step
    # maps or of the monomial helpers must keep every coefficient's repr.
    h = hashlib.sha256()
    for n in range(6):
        for poset in enumerate_posets(n):
            space = build_space(poset)
            gens = [("e", p) for p in poset.elements] + [("scalar", t_poly(2, -1))]
            for p in poset.elements:
                for q in lower_covers(poset, p):
                    gens += [(k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
            for v in sample_vectors(space, 2):
                for gen in gens:
                    out = act(space, gen, v)
                    h.update(repr((gen, out)).encode())
                    if gen[0] == "beta":
                        h.update(repr(act(space, ("betabar",) + gen[1:], out)).encode())
    for poset, f in _digest_family():
        space = build_space(poset)
        h.update(repr(f.as_element(poset)).encode())
        for q in lower_covers(poset, f.vertex):
            f0, w, f0p, rest = _factor_bottom(f, poset, q)
            h.update(repr((f0, sorted(w.items()), f0p, sorted(rest.items()))).encode())
        if f.valuation(poset) == 0:
            for v in sample_vectors(space, 2):
                h.update(repr(invert_sigma(space, f, v, 4)).encode())
    assert h.hexdigest() == "64c0951d9af155ffab18064a1a682a79b79fb83c222de43c45d10493fcd92492"


@pytest.mark.parametrize("i", [0, -1, True, 1.0, "1"])
def test_act_rejects_a_t_index_that_is_not_a_positive_int(i):
    with pytest.raises(RepError, match="is not a positive int"):
        act(SPACE, ("t", i), leaf_vector(SPACE, (("a", 0),)))


@pytest.mark.parametrize("coeff", [t_poly(0), t_poly(-1, 2), RatFunc(Poly.const(1), Poly.const(1) + t_poly(0))])
def test_scalars_holding_a_t_index_that_is_not_positive_are_rejected(coeff):
    # t_0 in a scalar would meet the twist's slot variables just as ("t", 0) does
    v = leaf_vector(SPACE, (("a", 0),))
    with pytest.raises(RepError, match="is not a positive int"):
        act(SPACE, ("scalar", coeff), v)
    if isinstance(coeff, Poly):
        with pytest.raises(AlgebraError, match="is not a positive int"):
            generator(FIG2, "scalar", coeff)
    assert act(SPACE, ("scalar", t_poly(1)), v) == act(SPACE, ("t", 1), v)


def test_act_takes_t_generators_like_generator():
    for poset in [FIG2, _claw()]:
        space = build_space(poset)
        for v in sample_vectors(space, 2):
            for i in (1, 2, 4):
                assert act(space, ("t", i), v) == act(space, ("scalar", t_poly(i)), v)
        x = generator(poset, "t", 3) * generator(poset, "beta", "p", "a")
        for v in sample_vectors(space, 1):
            word = [("t", 3), ("beta", "p", "a")]
            assert act_word(space, word, v) == act_element(space, x, v)


@pytest.mark.parametrize(
    "gen, msg",
    [
        (("alpha", "p"), "malformed generator"),
        (("t",), "malformed generator"),
        (("gamma",), "unknown generator"),
        (("alpha", "p", "a", "x"), "malformed generator"),
        ("alpha", "unknown generator"),
        ((), "unknown generator"),
        (("eprime", "p"), "unknown generator"),
    ],
)
def test_malformed_generators_are_typed_errors(gen, msg):
    with pytest.raises(RepError, match=msg):
        act(SPACE, gen, leaf_vector(SPACE, (("a", 0),)))
