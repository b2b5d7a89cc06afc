import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import (
    LabelledPoset,
    LowerSet,
    PosetError,
    _above_masks,
    _automorphisms,
    _canonical_mask,
    _natural_relation,
    _order_masks,
    boundary,
    depth,
    down_set,
    enumerate_posets,
    fig2_poset,
    height,
    is_complete_hom,
    is_forest,
    lower_covers,
    lower_sets,
    make_poset,
    maximal_chains,
    parse_poset,
    poset_iso,
    quiver_T,
    to_dot,
)
from posetalg.constructions import build_F
from posetalg.primon import PrimePair, from_pair, monoid_iso


def diamond():
    return make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


def chain(n):
    ids = [f"c{i}" for i in range(n + 1)]
    return make_poset(ids, [(ids[i], ids[i + 1]) for i in range(n)])


# -- DSL ---------------------------------------------------------------------


def test_parse_fig2():
    p = parse_poset("elems p a b; covers a<p b<p; labels p:[a,b]")
    assert p == fig2_poset()
    assert p.n_covers("p") == 2


def test_parse_singleton():
    p = parse_poset("elems x")
    assert p.elements == ("x",)
    assert lower_covers(p, "x") == ()
    assert p.n_covers("x") == 0


def test_parse_cycle_rejected():
    with pytest.raises(PosetError):
        parse_poset("elems a b c; covers a<b b<c c<a")


def test_parse_errors():
    with pytest.raises(PosetError):
        parse_poset("elems a a")
    with pytest.raises(PosetError):
        parse_poset("elems a b; covers a<b; labels b:[a,a]")
    with pytest.raises(PosetError):
        parse_poset("covers a<b")


def test_label_entry_for_unknown_element_rejected():
    with pytest.raises(PosetError, match="'zz', which is not an element"):
        parse_poset("elems a b; covers a<b; labels zz:[a]")


def test_label_entry_without_lower_covers_rejected():
    with pytest.raises(PosetError, match="no lower covers"):
        parse_poset("elems a b; covers a<b; labels a:[b]")


def test_parse_comments_and_autolabels():
    p = parse_poset("# heading\nelems p b a;\ncovers b<p a<p  # covers\n")
    # auto-labels follow declaration order of the cover pairs
    assert lower_covers(p, "p") == ("b", "a")


def test_autolabels_same_from_list_and_generator():
    pairs = [(q, "p") for q in ["b", "a"]]
    from_list = make_poset(["a", "b", "p"], pairs)
    from_gen = make_poset(["a", "b", "p"], (pair for pair in pairs))
    assert from_list.labels == from_gen.labels == {"p": ("b", "a")}


def test_poset_is_read_only():
    strict = {"a": frozenset(), "p": frozenset({"a"})}
    labels = {"p": ("a",)}
    poset = LabelledPoset(("a", "p"), strict, labels)
    before = hash(poset)
    with pytest.raises(TypeError):
        poset.strict["a"] = frozenset({"p"})
    with pytest.raises(TypeError):
        poset.labels["p"] = ()
    strict["a"] = frozenset({"p"})
    labels["p"] = ()
    assert poset.strict["a"] == frozenset() and poset.labels.get("p") == ("a",)
    assert hash(poset) == before and poset == make_poset(["a", "p"], [("a", "p")])


def test_transitive_closure_of_redundant_input():
    p = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert lower_covers(p, "c") == ("b",)
    assert p.lt("a", "c")


# -- covers, chains, heights --------------------------------------------------


def test_lower_covers_fig2():
    assert lower_covers(fig2_poset(), "p") == ("a", "b")


def test_lower_covers_bruteforce_oracle():
    # interval definition checked against the label-ordered answer
    for poset in [fig2_poset(), diamond(), chain(3)]:
        for p in poset.elements:
            expected = {
                q
                for q in poset.elements
                if poset.lt(q, p)
                and not any(
                    poset.lt(q, r) and poset.lt(r, p) for r in poset.elements
                )
            }
            assert set(lower_covers(poset, p)) == expected


def test_lower_covers_unknown_element():
    with pytest.raises(PosetError):
        lower_covers(fig2_poset(), "zz")


def test_lower_sets_fig2_derived_by_enumeration():
    poset = fig2_poset()
    expected = []
    for k in range(4):
        for combo in itertools.combinations(poset.elements, k):
            s = set(combo)
            if all(poset.strict[e] <= s for e in s):
                expected.append(frozenset(s))
    got = [ls.members for ls in lower_sets(poset)]
    assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
    assert len(got) == 5


def test_lower_sets_antichain_and_chain():
    anti = make_poset(["x", "y", "z"], [])
    assert len(lower_sets(anti)) == 2 ** 3
    assert len(lower_sets(chain(4))) == 4 + 2


def test_lower_sets_lattice_closure():
    for poset in enumerate_posets(4):
        sets = lower_sets(poset)
        as_frozen = {ls.members for ls in sets}
        for s1, s2 in itertools.combinations(sets, 2):
            assert s1.union(s2).members in as_frozen
            assert s1.intersection(s2).members in as_frozen


def test_down_set_and_boundary():
    poset = fig2_poset()
    assert down_set(poset, "p").sorted() == ("a", "b", "p")
    assert down_set(poset, "a").sorted() == ("a",)
    assert boundary(poset, LowerSet(poset, frozenset({"a"}))) == {"a", "p"}
    d = diamond()
    assert boundary(d, LowerSet(d, frozenset({"b"}))) == {"b", "q1", "q2"}


def test_boundary_rejects_non_lower():
    with pytest.raises(PosetError):
        LowerSet(fig2_poset(), frozenset({"p"}))


def test_maximal_chains():
    assert maximal_chains(fig2_poset(), "p") == [("a", "p"), ("b", "p")]
    single = parse_poset("elems x")
    assert maximal_chains(single, "x") == [("x",)]
    assert maximal_chains(diamond(), "p") == [("b", "q1", "p"), ("b", "q2", "p")]


def _saturated_descents(poset, p):
    """Every descending chain from p whose steps are covers (nothing strictly
    between), sorted by the label indices of its steps."""
    below = [q for q in poset.strict[p] if not any(q in poset.strict[r] for r in poset.strict[p])]
    paths = [(p,)] + [(p, *rest) for q in below for rest in _saturated_descents(poset, q)]
    return sorted(paths, key=lambda c: [poset.labels[a].index(b) for a, b in zip(c, c[1:])])


def test_maximal_chains_are_saturated_and_maximal():
    for base in enumerate_posets(5):
        reversed_labels = {p: covers[::-1] for p, covers in base.labels.items()}
        for poset in (base, LabelledPoset(base.elements, base.strict, reversed_labels)):
            for p in poset.elements:
                chains = maximal_chains(poset, p)
                for ch in chains:
                    assert ch[-1] == p
                    assert ch[0] in poset.minimal()
                    for lo, hi in zip(ch, ch[1:]):
                        assert lo in lower_covers(poset, hi)
                # in lexicographic order on the label indices of the descent
                descents = _saturated_descents(poset, p)
                assert chains == [c[::-1] for c in descents if not poset.strict[c[-1]]]
            # build_F numbers the copies of each fiber in that same order
            for top in poset.maximal():
                unf = build_F(poset, top)
                F, psi = unf.result.poset, unf.result.psi
                above = sorted(F.elements, key=lambda y: -len(F.strict[y]))
                fibers = {}
                for path in _saturated_descents(poset, top):
                    fibers.setdefault(path[-1], []).append(path)
                assert len(psi) == sum(map(len, fibers.values()))
                for b, fiber in fibers.items():
                    for k, path in enumerate(fiber):
                        x = b if len(fiber) == 1 else f"{b}~{k}"
                        assert psi[x] == b
                        assert tuple(psi[y] for y in above if F.lt(x, y)) == path[:-1]


def test_height_depth():
    poset = fig2_poset()
    assert height(poset, "p") == 1 and depth(poset, "a") == 1
    single = parse_poset("elems x")
    assert height(single, "x") == 0 and depth(single, "x") == 0
    c = chain(4)
    assert height(c, "c4") == 4
    # longest-path oracle on the catalogue: longest strict chain below/above
    def chains_from(poset, p, direction):
        best = 0
        for q in poset.elements:
            if direction(q, p):
                best = max(best, 1 + chains_from(poset, q, direction))
        return best

    for poset in enumerate_posets(4):
        top = [p for p in poset.elements if not any(poset.lt(p, q) for q in poset.elements)]
        assert poset.maximal() == tuple(top)
        for p in poset.elements:
            assert height(poset, p) == chains_from(poset, p, lambda q, r: poset.lt(q, r))
            assert depth(poset, p) == chains_from(poset, p, lambda q, r: poset.lt(r, q))


def test_quiver_T():
    q = quiver_T(fig2_poset())
    assert q.vertices == ("a", "b", "p")
    assert [(s, r) for _, s, r in q.arrows] == [("p", "a"), ("p", "b")]
    anti = make_poset(["x", "y"], [])
    assert quiver_T(anti).arrows == ()
    c = make_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    assert [(s, r) for _, s, r in quiver_T(c).arrows] == [("b", "a"), ("c", "b")]


def test_quiver_T_paths_are_saturated_chains():
    for poset in enumerate_posets(4):
        q = quiver_T(poset)
        for p in poset.elements:
            assert len(q.out_arrows(p)) == len(lower_covers(poset, p))


def test_is_forest():
    assert not is_forest(fig2_poset())  # the down-set of p is not a chain
    assert is_forest(chain(3))
    assert not is_forest(diamond())
    assert is_forest(make_poset(["a", "b"], []))


def test_is_forest_iff_unique_maximal_chain():
    for poset in enumerate_posets(5):
        unique = all(len(maximal_chains(poset, p)) == 1 for p in poset.elements)
        assert is_forest(poset) == unique
        down_sets_are_chains = all(
            poset.leq(a, b) or poset.leq(b, a)
            for p in poset.elements
            for a, b in itertools.combinations(poset.strict[p] | {p}, 2)
        )
        assert is_forest(poset) == down_sets_are_chains


# -- morphisms ----------------------------------------------------------------


def test_complete_hom():
    fig2 = fig2_poset()
    sub = make_poset(["a", "p"], [("a", "p")])
    assert not is_complete_hom({"a": "a", "p": "p"}, sub, fig2)
    assert is_complete_hom({e: e for e in fig2.elements}, fig2, fig2)
    single = make_poset(["a"], [])
    assert is_complete_hom({"a": "a"}, single, fig2)


def test_complete_hom_respects_labels():
    fig2 = fig2_poset()
    flipped = make_poset(["p", "a", "b"], [("a", "p"), ("b", "p")], {"p": ("b", "a")})
    ident = {e: e for e in fig2.elements}
    assert not is_complete_hom(ident, fig2, flipped)
    assert is_complete_hom({"a": "b", "b": "a", "p": "p"}, fig2, flipped)


def test_poset_pair_iso():
    def iso(x, y):
        return monoid_iso(from_pair(x), from_pair(y))

    fig2 = fig2_poset()
    rel = frozenset((q, p) for p in fig2.elements for q in fig2.strict[p])
    x = PrimePair(fig2.elements, rel)
    y = PrimePair(("u", "v", "w"), frozenset({("u", "w"), ("v", "w")}))
    assert iso(x, y) is not None
    two_chain = PrimePair(("a", "b"), frozenset({("a", "b")}))
    two_anti = PrimePair(("a", "b"), frozenset())
    assert iso(two_chain, two_anti) is None
    # regular flags must be preserved
    reg = PrimePair(("a", "b"), frozenset({("a", "b"), ("a", "a")}))
    assert iso(two_chain, reg) is None
    assert iso(reg, reg) is not None


def test_automorphisms_are_the_relation_preserving_permutations():
    for n in range(6):
        for mask in _order_masks(n)[n]:
            rel = _natural_relation(n, mask)
            perms = itertools.permutations(range(n))
            assert _automorphisms(n, rel) == [g for g in perms if {(g[a], g[b]) for a, b in rel} == rel]


def test_enumerate_posets_counts():
    # OEIS A000112
    assert [len(enumerate_posets(n)) for n in range(8)] == [1, 1, 2, 5, 16, 63, 318, 2045]


def _brute_force_posets(n):
    """The catalogue by definition: every transitively closed relation
    inside the natural order, in mask order, keeping the first of each
    class under all n! relabellings (the enumerator before orderly
    generation)."""
    ids = [f"x{i}" for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    seen = set()
    out = []
    perms = list(itertools.permutations(range(n)))
    for mask in range(1 << len(pairs)):
        rel = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        if any((a, c) not in rel for a, b in rel for b2, c in rel if b2 == b):
            continue
        canon = min(tuple(sorted((p[a], p[b]) for a, b in rel)) for p in perms)
        if canon in seen:
            continue
        seen.add(canon)
        out.append(make_poset(ids, [(ids[a], ids[b]) for a, b in rel]))
    return out


def test_enumerate_posets_matches_brute_force():
    # LabelledPoset equality compares the ids, the order and the label
    # tuples, and list equality the order of the catalogue
    for n in range(6):
        assert enumerate_posets(n) == _brute_force_posets(n)


@functools.cache
def _six_point_posets():
    return enumerate_posets(6)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 317), st.permutations(range(6)))
def test_canonical_mask_undoes_relabelling(index, perm):
    # a poset on 6 points, beyond the reach of the brute force, relabelled
    # at random: its canonical mask rebuilds the same representative
    poset = _six_point_posets()[index]
    ids = poset.elements
    rel = {(perm[ids.index(q)], perm[ids.index(p)]) for p in ids for q in poset.strict[p]}
    mask = _canonical_mask(6, _above_masks(6, rel))
    assert make_poset(ids, [(ids[a], ids[b]) for a, b in _natural_relation(6, mask)]) == poset


def test_labelled_invariance_of_monoid_level_outputs():
    fig2 = fig2_poset()
    flipped = make_poset(["p", "a", "b"], [("a", "p"), ("b", "p")], {"p": ("b", "a")})
    assert len(lower_sets(fig2)) == len(lower_sets(flipped))
    assert len(maximal_chains(fig2, "p")) == len(maximal_chains(flipped, "p"))
    assert poset_iso(fig2, flipped) is not None


def test_dot_export():
    dot = to_dot(fig2_poset())
    assert dot.startswith("digraph") and '"p" -> "a" [label="1"]' in dot
    qd = to_dot(quiver_T(fig2_poset()), name="T")
    assert "digraph T" in qd and '"p" -> "b"' in qd


def _poset_dsl(poset):
    covers = " ".join(f"{q}<{p}" for p in poset.elements for q in lower_covers(poset, p))
    labels = " ".join(f"{p}:[{','.join(qs)}]" for p, qs in poset.labels.items())
    return f"# rendered\nelems {' '.join(poset.elements)} ;\ncovers {covers}; labels {labels}\n"


# the DSL needs at least one element, so the empty poset has no text form
_SMALL_POSETS = [p for n in range(1, 6) for p in enumerate_posets(n)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_poset_dsl_round_trips(data):
    # a catalogue poset under drawn element names and drawn cover orders
    base = data.draw(st.sampled_from(_SMALL_POSETS))
    names = data.draw(st.permutations(["a", "b", "p1", "p2", "q_1", "z9", "top"]))
    rename = dict(zip(base.elements, names))
    covers = [(rename[q], rename[p]) for p in base.elements for q in lower_covers(base, p)]
    labels = {
        rename[p]: tuple(data.draw(st.permutations([rename[q] for q in qs])))
        for p, qs in base.labels.items()
    }
    poset = make_poset(rename.values(), covers, labels)
    assert parse_poset(_poset_dsl(poset)) == poset
