import itertools
import random
import re
import signal
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import PosetError, Quiver, fig2_poset, make_poset, quiver_T
from posetalg import graphmon as graphmon_module
from posetalg.primon import ORACLE_WORD_LIMIT, CongruenceOracle, MonoidError, from_poset
from posetalg.graphmon import (
    _chain_order,
    build_Er,
    check_Er_equals_chain,
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
    relations, oracle = graph_monoid(build_Er(1), 4)
    assert relations == (("v1", (("v0", 1), ("v1", 1))),)
    assert oracle.equal({"v1": 1}, {"v1": 1, "v0": 1})
    assert oracle.equal({"v1": 1}, {"v1": 1, "v0": 3})
    assert not oracle.equal({"v0": 1}, {"v1": 1})


def test_graph_monoid_arrowless_is_free():
    q = Quiver(("x", "y"), ())
    relations, oracle = graph_monoid(q, 3)
    assert relations == ()
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


def hereditary_saturated_by_subsets(quiver):
    """hereditary_saturated as it was before the closed-set search: every
    vertex subset tested, then sorted, kept as the oracle."""
    out = []
    for k in range(len(quiver.vertices) + 1):
        for combo in itertools.combinations(quiver.vertices, k):
            s = frozenset(combo)
            if is_hereditary(quiver, s) and is_saturated(quiver, s):
                out.append(s)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def random_quiver(rng):
    """Up to 7 vertices in shuffled order and up to 10 arrows, loops and
    parallel arrows included."""
    vertices = [f"w{i}" for i in range(rng.randint(1, 7))]
    rng.shuffle(vertices)
    ends = [(rng.choice(vertices), rng.choice(vertices)) for _ in range(rng.randint(0, 10))]
    return Quiver(tuple(vertices), tuple((f"e{i}", s, r) for i, (s, r) in enumerate(ends)))


@pytest.mark.hashseed
def test_hereditary_saturated_matches_the_subset_scan():
    rng = random.Random(23)
    fig2 = quiver_T(fig2_poset())
    diamond = quiver_T(make_poset(["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]))
    quivers = [fig2, diamond] + [build_Er(r) for r in range(8)] + [random_quiver(rng) for _ in range(300)]
    assert sum(any(s == r for _, s, r in q.arrows) for q in quivers[10:]) > 100
    assert sum(len(q.arrows) > len({a[1:] for a in q.arrows}) for q in quivers[10:]) > 100
    for quiver in quivers:
        assert hereditary_saturated(quiver) == hereditary_saturated_by_subsets(quiver)


def saturate_by_sweeps(quiver, subset):
    """saturate as it was before the worklist: every vertex swept until a
    sweep adds nothing, kept as the oracle."""
    out = set(subset)
    changed = True
    while changed:
        changed = False
        for v in quiver.vertices:
            outs = quiver.out_arrows(v)
            if v not in out and outs and {r for _, _, r in outs} <= out:
                out.add(v)
                changed = True
    return frozenset(out)


def closure_by_reach_then_saturate(quiver, subset):
    """hereditary_saturated's closure as it was before the worklist: every
    vertex the subset reaches, then swept to saturation, kept as the oracle."""
    reached, todo = set(subset), list(subset)
    while todo:
        for _, _, r in quiver.out_arrows(todo.pop()):
            if r not in reached:
                reached.add(r)
                todo.append(r)
    return saturate_by_sweeps(quiver, reached)


@pytest.mark.hashseed
def test_worklists_match_the_sweeps_on_every_subset(monkeypatch):
    # the quivers of the subset-scan test above; hereditary_saturated hands
    # its closure to a _closed_sets that returns it
    rng = random.Random(23)
    fig2 = quiver_T(fig2_poset())
    diamond = quiver_T(make_poset(["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]))
    quivers = [fig2, diamond] + [build_Er(r) for r in range(8)] + [random_quiver(rng) for _ in range(300)]
    monkeypatch.setattr(graphmon_module, "_closed_sets", lambda items, close: close)
    subsets = saturated = reached = 0
    for quiver in quivers:
        close = hereditary_saturated(quiver)
        for k in range(len(quiver.vertices) + 1):
            for combo in itertools.combinations(quiver.vertices, k):
                s = frozenset(combo)
                sat = saturate(quiver, s)
                assert sat == saturate_by_sweeps(quiver, s), (quiver, s)
                assert close(s) == closure_by_reach_then_saturate(quiver, s), (quiver, s)
                subsets += 1
                saturated += sat != s
                reached += close(s) != sat
    # saturation moves 4,125 subsets, and the arrows move the closure of 4,968 past it
    assert (subsets, saturated, reached) == (11_248, 4_125, 4_968)


def test_hereditary_saturated_cost_follows_the_output():
    # E_30 has 32 hereditary saturated sets; the subset scan tests 2^31 subsets
    def too_slow(signum, frame):
        raise TimeoutError("hereditary_saturated of E_30 took over 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        hs = hereditary_saturated(build_Er(30))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert hs == [frozenset(f"v{i}" for i in range(k)) for k in range(32)]


def test_quotient_and_restrict_graph():
    e3 = build_Er(3)
    q = quotient_graph(e3, {"v0", "v1", "v2"})
    assert q.vertices == ("v3",)
    assert [a[:1] for a in q.arrows] == [("a3",)]
    same = quotient_graph(e3, set())
    assert same == e3
    r = restrict_graph(e3, {"v0", "v1"})
    assert chain_order(r) == ["v0", "v1"]
    with pytest.raises(PosetError):
        restrict_graph(e3, {"v3"})  # not hereditary


@pytest.mark.parametrize("function", [saturate, is_hereditary, is_saturated, quotient_graph, restrict_graph])
def test_vertex_subset_functions_reject_what_is_not_a_vertex_subset(function):
    q = build_Er(2)
    with pytest.raises(PosetError, match="'v0' is a bare string"):
        function(q, "v0")
    with pytest.raises(PosetError, match="'zz' is not a vertex of the quiver"):
        function(q, {"zz"})
    with pytest.raises(PosetError, match="'a' is not a vertex of the quiver"):
        function(q, ["v1", "zz", "a"])


@pytest.mark.parametrize("r", [True, False, 2.5, "3", None])
def test_build_Er_takes_only_a_non_negative_int(r):
    with pytest.raises(PosetError, match="is not a non-negative int"):
        build_Er(r)
    if r is True:
        with pytest.raises(PosetError, match="chain length True is not a non-negative int"):
            check_Er_equals_chain(r, 4)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_Er_equals_chain(r):
    assert check_Er_equals_chain(r, 4) is None


def test_Er_check_catches_corruption():
    e2 = build_Er(2)
    bad = Quiver(e2.vertices, tuple(a for a in e2.arrows if a[0] != "b2"))
    assert chain_order(bad) is None


def chain_order(quiver):
    """_chain_order on the relations graph_monoid reads off the quiver, at
    the least bound that fits them."""
    bound = max((len(quiver.out_arrows(v)) for v in quiver.vertices), default=0)
    return _chain_order(quiver.vertices, graph_monoid(quiver, bound)[0])


def er_order(quiver: Quiver):
    """The vertices that play v_0..v_r when the quiver is isomorphic to the
    loop-chain quiver, sink first, or None: the arrow walk that detected
    loop chains before _chain_order read their relations, kept as the
    reference."""
    n = len(quiver.vertices)
    if not n or len(quiver.arrows) != 2 * (n - 1):
        return None
    loops = {v: 0 for v in quiver.vertices}
    steps = {}
    for _, s, t in quiver.arrows:
        if s == t:
            loops[s] += 1
        else:
            if s in steps:
                return None
            steps[s] = t
    sinks = [v for v in quiver.vertices if loops[v] == 0 and v not in steps]
    if len(sinks) != 1:
        return None
    order = [sinks[0]]
    while len(order) < n:
        prev = [s for s, t in steps.items() if t == order[-1]]
        if len(prev) != 1 or loops[prev[0]] != 1:
            return None
        order.append(prev[0])
    return order


def renamed(quiver, names):
    return Quiver(tuple(sorted(names.values())), tuple((a, names[s], names[t]) for a, s, t in quiver.arrows))


def loop_chain_cases():
    """The loop-chain quivers and copies of them with one arrow dropped or
    one loop doubled, at every bound that fits their relations."""
    for r in range(4):
        e = build_Er(r)
        quivers = [e]
        quivers += [Quiver(e.vertices, tuple(a for a in e.arrows if a != drop)) for drop in e.arrows]
        quivers += [Quiver(e.vertices, e.arrows + ((f"c{i}", v, v),)) for i, v in enumerate(e.vertices)]
        for quiver in quivers:
            for bound in range(2 + any(len(quiver.out_arrows(v)) > 2 for v in e.vertices), 5):
                yield r, bound, quiver


def test_Er_check_gives_the_pairwise_verdicts():
    # a loop at the sink adds only v0 = v0, so that mutant's monoid is the
    # chain's too; the certificate is sufficient, not necessary
    for r, bound, quiver in loop_chain_cases():
        order = _chain_order(quiver.vertices, graph_monoid(quiver, bound)[0])
        assert order == ([f"v{i}" for i in range(r + 1)] if quiver == build_Er(r) else None)


def test_chain_order_agrees_with_the_arrow_walk():
    quivers = []
    for n in range(1, 4):
        vertices = tuple("abc"[:n])
        ends = list(itertools.product(vertices, repeat=2))
        for k in range(5):
            for arrows in itertools.combinations_with_replacement(ends, k):
                quivers.append(Quiver(vertices, tuple((f"e{i}", s, t) for i, (s, t) in enumerate(arrows))))
    assert len(quivers) == 5 + 70 + 715
    # each vertex emits nothing or one loop and one step, so only the
    # shape of the steps decides: 4^4 step maps on four vertices
    vertices = ("a", "b", "c", "d")
    for targets in itertools.product((None, 1, 2, 3), repeat=4):
        steps = [(v, vertices[(i + t) % 4]) for i, (v, t) in enumerate(zip(vertices, targets)) if t]
        arrows = [(f"a{v}", v, v) for v, _ in steps] + [(f"b{v}", v, u) for v, u in steps]
        quivers.append(Quiver(vertices, tuple(arrows)))
    rng = random.Random(29)
    for r in range(7):
        names = [f"w{i}" for i in range(r + 1)]
        rng.shuffle(names)
        quivers.append(renamed(build_Er(r), dict(zip(build_Er(r).vertices, names))))
    quivers += [quiver for _, _, quiver in loop_chain_cases()]
    found = 0
    for quiver in quivers:
        order = er_order(quiver)
        assert chain_order(quiver) == order, quiver
        found += order is not None
    assert found == 9 + 24 + 7 + 12  # small quivers, step maps, renamed E_r, E_r at 3 bounds each


def test_chain_order_pins_the_lemma_it_rests_on():
    # cover relations generate p = p + q for q < p, so E_r's oracle with
    # headroom agrees with the chain poset's monoid on every pair of words;
    # the bound also fits the relations (2) and, on E_0, the words (b)
    for r in range(6):
        covers = [(f"v{i-1}", f"v{i}") for i in range(1, r + 1)]
        chain = from_poset(make_poset([f"v{i}" for i in range(r + 1)], covers))
        for b in range(4):
            _, oracle = graph_monoid(build_Er(r), max(2, b, b + r - 1))
            words = [dict(zip(chain.primes, w)) for w in itertools.product(range(b + 1), repeat=r + 1) if sum(w) <= b]
            for w1, w2 in itertools.combinations(words, 2):
                assert oracle.equal(w1, w2) == (chain.reduce(w1) == chain.reduce(w2))
    # without headroom the bounded oracle misses v2 = v2 + v1 + v0 = v2 + v0
    _, oracle = graph_monoid(build_Er(2), 2)
    chain = from_poset(make_poset(["v0", "v1", "v2"], [("v0", "v1"), ("v1", "v2")]))
    assert not oracle.equal({"v2": 1, "v0": 1}, {"v2": 1})
    assert chain.reduce({"v2": 1, "v0": 1}) == chain.reduce({"v2": 1})


def test_Er_check_builds_no_oracle(monkeypatch):
    # an oracle on E_44's 45 vertices at bound 4 would be over the word limit
    assert comb(45 + 4, 4) > ORACLE_WORD_LIMIT
    built = []
    init = CongruenceOracle.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(CongruenceOracle, "__init__", counted)
    assert check_Er_equals_chain(44, 4) is None
    assert built == []
    graph_monoid(build_Er(2), 4)
    assert len(built) == 1


def test_chain_split_reads_the_vertices_in_loop_chain_order():
    names = {"v0": "d", "v1": "b", "v2": "c", "v3": "a"}
    assert chain_order(renamed(build_Er(3), names)) == ["d", "b", "c", "a"]


def test_er_order_detects_Er():
    for r in range(4):
        assert len(chain_order(build_Er(r))) - 1 == r
    assert chain_order(Quiver(("x", "y"), ())) is None
    assert chain_order(Quiver(("v0", "v1"), (("a", "v1", "v1"), ("b", "v1", "v0"), ("c", "v1", "v0")))) is None


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


@pytest.mark.parametrize(
    "text, message",
    [
        ("vertices v0 v1\narrows a1:v1->v1 v1->v0", "id 'arrows' is a section head"),
        ("vertices a b vertices", "id 'vertices' is a section head"),
        ("vertices a b; arrows a->b->a", "id 'b->a' holds '->'"),
        ("vertices a b; arrows x,y:a->b", "id 'x,y' holds ','"),
        ("vertices a b; arrows [x]:a->b", "id '[x]' holds '['"),
        ("vertices a b<c", "id 'b<c' holds '<'"),
        ("vertices a b:c", "id 'b:c' holds ':'"),
    ],
)
def test_parse_quiver_rejects_sections_run_together(text, message):
    # without the check the first text parsed with a vertex 'a1:v1->v1'
    with pytest.raises(PosetError, match=re.escape(message) + ".*';' missing"):
        parse_quiver(text)


def test_quiver_freezes_its_inputs():
    q = Quiver(["a"], [("x", "a", "a")])
    assert q == Quiver(("a",), (("x", "a", "a"),))
    assert hash(q) == hash(Quiver(("a",), (("x", "a", "a"),)))
    assert isinstance(q.vertices, tuple) and isinstance(q.arrows, tuple)


@pytest.mark.parametrize(
    "vertices, arrows, message",
    [
        (("a", "b", "a"), (("x", "a", "b"),), "duplicate vertex"),
        (("a", "b"), (("x", "a", "b"), ("x", "b", "a")), "duplicate arrow name 'x'"),
        (("a", "b"), (("x", "a"),), "not a \\(name, source, range\\) triple"),
    ],
    ids=["repeated-vertex", "repeated-arrow-name", "non-triple"],
)
def test_quiver_rejects_malformed_parts(vertices, arrows, message):
    with pytest.raises(PosetError, match=message):
        Quiver(vertices, arrows)


def test_parse_quiver_skips_default_names_taken_elsewhere():
    # the unnamed arrow at position 1 may not take e1, given to the arrow
    # before it
    q = parse_quiver("vertices v0 v1; arrows e1:v1->v1 v1->v0")
    assert q.arrows == (("e1", "v1", "v1"), ("e2", "v1", "v0"))
    q = parse_quiver("vertices a; arrows a->a e2:a->a a->a e3:a->a a->a")
    assert [name for name, _, _ in q.arrows] == ["e0", "e2", "e4", "e3", "e5"]
    with pytest.raises(PosetError, match="duplicate arrow name 'e1'"):
        parse_quiver("vertices a; arrows e1:a->a e1:a->a")


def test_parse_quiver_rejects_repeated_vertices_through_the_constructor():
    with pytest.raises(PosetError, match="duplicate vertex"):
        parse_quiver("vertices a b a; arrows x:a->b")


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
