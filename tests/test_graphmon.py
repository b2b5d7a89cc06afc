import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import PosetError, Quiver
from posetalg.primon import MonoidError
from posetalg.graphmon import (
    build_Er,
    check_Er_equals_chain,
    detect_Er,
    graph_monoid,
    hereditary_saturated,
    is_hereditary,
    is_saturated,
    parse_quiver,
    quotient_graph,
    restrict_graph,
    saturate,
)


def test_build_Er():
    e1 = build_Er(1)
    assert e1.vertices == ("v0", "v1")
    assert set(e1.arrows) == {("a1", "v1", "v1"), ("b1", "v1", "v0")}
    e0 = build_Er(0)
    assert e0.vertices == ("v0",) and e0.arrows == ()
    e3 = build_Er(3)
    assert len(e3.vertices) == 4 and len(e3.arrows) == 6
    with pytest.raises(PosetError):
        build_Er(-1)


def test_graph_monoid_relations():
    pres, oracle = graph_monoid(build_Er(1), 4)
    assert pres.relations == (("v1", (("v0", 1), ("v1", 1))),)
    assert oracle.equal({"v1": 1}, {"v1": 1, "v0": 1})
    assert oracle.equal({"v1": 1}, {"v1": 1, "v0": 3})
    assert not oracle.equal({"v0": 1}, {"v1": 1})


def test_graph_monoid_arrowless_is_free():
    q = Quiver(("x", "y"), ())
    pres, oracle = graph_monoid(q, 3)
    assert pres.relations == ()
    assert not oracle.equal({"x": 1}, {"y": 1})
    assert oracle.equal({"x": 1, "y": 1}, {"y": 1, "x": 1})


def test_graph_monoid_rejects_relation_over_bound():
    fan = Quiver(("u", "v"), tuple((f"e{i}", "u", "v") for i in range(5)))
    with pytest.raises(MonoidError, match="vertex 'u' emits 5 arrows, so its relation word exceeds oracle bound 4"):
        graph_monoid(fan, 4)
    assert graph_monoid(fan, 5)[1].equal({"u": 1}, {"v": 5})


def test_graph_monoid_E2_chain_equalities():
    _, oracle = graph_monoid(build_Er(2), 5)
    assert oracle.equal({"v2": 1}, {"v2": 1, "v1": 1})
    assert oracle.equal({"v2": 1}, {"v2": 1, "v1": 1, "v0": 1})


def test_graph_monoid_equality_is_congruence():
    _, oracle = graph_monoid(build_Er(1), 4)
    words = [
        {"v0": a, "v1": b} for a in range(3) for b in range(2)
    ]
    for w1, w2 in itertools.combinations(words, 2):
        if oracle.equal(w1, w2):
            bumped1 = {**w1, "v0": w1.get("v0", 0) + 1}
            bumped2 = {**w2, "v0": w2.get("v0", 0) + 1}
            assert oracle.equal(bumped1, bumped2)


def test_hereditary_saturated_examples():
    hs = hereditary_saturated(build_Er(1))
    assert [sorted(s) for s in hs] == [[], ["v0"], ["v0", "v1"]]
    arrowless = Quiver(("x", "y"), ())
    assert len(hereditary_saturated(arrowless)) == 4
    for r in range(4):
        assert len(hereditary_saturated(build_Er(r))) == r + 2


def test_hereditary_saturated_lattice_closure():
    for quiver in [build_Er(2), build_Er(3)]:
        hs = hereditary_saturated(quiver)
        as_set = set(hs)
        for s1, s2 in itertools.combinations(hs, 2):
            assert s1 & s2 in as_set
            assert saturate(quiver, s1 | s2) in as_set


def test_saturation_vacuous_for_sources():
    # a source with no arrows imposes no saturation condition
    q = Quiver(("s", "t"), (("e0", "t", "t"),))
    assert is_saturated(q, {"s"}) and is_hereditary(q, {"s"})
    assert frozenset({"s"}) in set(hereditary_saturated(q))


def test_quotient_and_restrict_graph():
    e3 = build_Er(3)
    q = quotient_graph(e3, {"v0", "v1", "v2"})
    assert q.vertices == ("v3",)
    assert [a[:1] for a in q.arrows] == [("a3",)]
    same = quotient_graph(e3, set())
    assert same == e3
    r = restrict_graph(e3, {"v0", "v1"})
    assert detect_Er(r) == 1
    with pytest.raises(PosetError):
        restrict_graph(e3, {"v3"})  # not hereditary


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_Er_equals_chain(r):
    assert check_Er_equals_chain(r, 4) is None


def test_Er_check_catches_corruption():
    e2 = build_Er(2)
    bad = Quiver(e2.vertices, tuple(a for a in e2.arrows if a[0] != "b2"))
    assert check_Er_equals_chain(2, 4, quiver=bad) is not None


def test_detect_Er():
    for r in range(4):
        assert detect_Er(build_Er(r)) == r
    assert detect_Er(Quiver(("x", "y"), ())) is None
    assert detect_Er(Quiver(("v0", "v1"), (("a", "v1", "v1"), ("b", "v1", "v0"), ("c", "v1", "v0")))) is None


def test_parse_quiver():
    q = parse_quiver("# loop chain\nvertices v0 v1;\narrows a1:v1->v1 v1->v0")
    assert q.vertices == ("v0", "v1")
    assert q.arrows[0] == ("a1", "v1", "v1")
    assert q.arrows[1][1:] == ("v1", "v0")
    with pytest.raises(PosetError):
        parse_quiver("arrows a->b")
    with pytest.raises(PosetError):
        parse_quiver("vertices a b; arrows ab")
    with pytest.raises(PosetError):
        parse_quiver("vertices a; arrows a->zz")


@st.composite
def quivers(draw):
    names = st.sampled_from(["v0", "v1", "w", "x_2", "top"])
    vertices = tuple(sorted(draw(st.lists(names, min_size=1, max_size=5, unique=True))))
    ends = st.tuples(st.sampled_from(vertices), st.sampled_from(vertices))
    arrows = tuple((f"a{i}", s, r) for i, (s, r) in enumerate(draw(st.lists(ends, max_size=6))))
    return Quiver(vertices, arrows)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(quivers())
def test_quiver_dsl_round_trips(quiver):
    arrows = " ".join(f"{name}:{s}->{r}" for name, s, r in quiver.arrows)
    text = f"vertices {' '.join(reversed(quiver.vertices))} # listed in any order\n; arrows {arrows}\n"
    assert parse_quiver(text) == quiver
