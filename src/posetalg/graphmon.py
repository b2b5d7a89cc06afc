"""Graph monoids of finite quivers and the loop-chain family.

The monoid of a quiver is the free abelian monoid on the vertices modulo
v = sum of the ranges of the arrows leaving v, for every emitting vertex;
equality of words is decided by the bounded congruence oracle.  The
loop-chain quiver with r+1 vertices (a loop and a step-down arrow at each
non-sink vertex) has the chain poset as its monoid, which is checked by
comparing bounded congruence closures.
"""

from __future__ import annotations

from .poset import PosetError, Quiver, _check_ids, _closed_sets, _reject_bare_string, _require_count, _sections
from .primon import CongruenceOracle, MonoidError, _bounded_words, _split_pair


def graph_monoid(quiver: Quiver, bound: int):
    """The defining relations, one ``(vertex, sorted (range, multiplicity)
    pairs)`` per emitting vertex, together with a bounded equality decider.

    Every relation word must fit the oracle's bound, so a vertex that emits
    more than ``bound`` arrows raises MonoidError, and the oracle raises
    OracleLimitError before it builds more words than its limit."""
    rels = []
    for v in quiver.vertices:
        outs = quiver.out_arrows(v)
        if not outs:
            continue
        if len(outs) > bound:
            raise MonoidError(
                f"vertex {v!r} emits {len(outs)} arrows, so its relation word exceeds oracle bound {bound}"
            )
        rhs = {}
        for _, _, r in outs:
            rhs[r] = rhs.get(r, 0) + 1
        rels.append((v, tuple(sorted(rhs.items()))))
    oracle = CongruenceOracle(quiver.vertices, [({v: 1}, dict(rhs)) for v, rhs in rels], bound)
    return tuple(rels), oracle


def build_Er(r: int) -> Quiver:
    """r+1 vertices v0..vr; for 1 <= i <= r a loop a_i at v_i and an arrow
    b_i from v_i to v_{i-1}."""
    _require_count(r, "chain length", PosetError)
    vertices = tuple(f"v{i}" for i in range(r + 1))
    arrows = []
    for i in range(1, r + 1):
        arrows.append((f"a{i}", f"v{i}", f"v{i}"))
        arrows.append((f"b{i}", f"v{i}", f"v{i-1}"))
    return Quiver(vertices, tuple(arrows))


def _vertex_subset(quiver, subset) -> frozenset:
    """The subset as a frozenset; PosetError names its least non-vertex."""
    _reject_bare_string(subset, "vertex subset", PosetError)
    subset = frozenset(subset)
    strays = subset.difference(quiver.vertices)
    if strays:
        raise PosetError(f"{min(strays, key=repr)!r} is not a vertex of the quiver")
    return subset


def is_hereditary(quiver, subset) -> bool:
    """True iff no arrow leaves the subset: closure under arrows is
    closure under paths."""
    subset = _vertex_subset(quiver, subset)
    return all(r in subset for _, s, r in quiver.arrows if s in subset)


def is_saturated(quiver, subset) -> bool:
    return saturate(quiver, subset) == _vertex_subset(quiver, subset)


def saturate(quiver, subset) -> frozenset:
    out = set(_vertex_subset(quiver, subset))
    changed = True
    while changed:
        changed = False
        for v in quiver.vertices:
            outs = quiver.out_arrows(v)
            if v not in out and outs and {r for _, _, r in outs} <= out:
                out.add(v)
                changed = True
    return frozenset(out)


def hereditary_saturated(quiver: Quiver):
    """All hereditary saturated vertex subsets, by (size, sorted members).  A
    vertex joins a saturation only when all its ranges are in, so saturating
    what a subset reaches gives its least hereditary saturated superset."""

    def close(subset):
        reached, todo = set(subset), list(subset)
        while todo:
            for _, _, r in quiver.out_arrows(todo.pop()):
                if r not in reached:
                    reached.add(r)
                    todo.append(r)
        return saturate(quiver, reached)

    return _closed_sets(quiver.vertices, close)


def quotient_graph(quiver: Quiver, subset) -> Quiver:
    """Drop the subset's vertices and every arrow ranging inside it."""
    subset = _vertex_subset(quiver, subset)
    vertices = tuple(v for v in quiver.vertices if v not in subset)
    arrows = tuple(a for a in quiver.arrows if a[2] not in subset and a[1] not in subset)
    return Quiver(vertices, arrows)


def restrict_graph(quiver: Quiver, subset) -> Quiver:
    """Keep the subset's vertices and every arrow leaving them (the subset
    must be hereditary so ranges stay inside)."""
    subset = _vertex_subset(quiver, subset)
    if not is_hereditary(quiver, subset):
        raise PosetError("restriction needs a hereditary subset")
    vertices = tuple(v for v in quiver.vertices if v in subset)
    arrows = tuple(a for a in quiver.arrows if a[1] in subset)
    return Quiver(vertices, arrows)


def check_Er_equals_chain(r: int, bound: int):
    """Bounded congruence closures of the loop-chain quiver monoid and of
    the chain-poset monoid agree under v_i <-> p_i; None if ok, else words
    (w1, w2), w1 first, that one closure joins and the other separates."""
    _, graph_oracle = graph_monoid(build_Er(r), bound)
    return _chain_split(graph_oracle, [f"v{i}" for i in range(r + 1)], bound)


def _chain_split(graph_oracle, gens_g, bound):
    """check_Er_equals_chain on a graph oracle already built at ``bound``,
    with gens_g the vertices that play v_0..v_r."""
    r = len(gens_g) - 1
    chain_rels = [({f"p{i}": 1}, {f"p{i}": 1, f"p{i-1}": 1}) for i in range(1, r + 1)]
    chain_oracle = CongruenceOracle([f"p{i}" for i in range(r + 1)], chain_rels, bound)
    gens_c = [f"p{i}" for i in range(r + 1)]
    words = list(_bounded_words(r + 1, bound))  # as many as chain_oracle, within its limit
    return _split_pair(
        words,
        lambda w: graph_oracle.class_of(dict(zip(gens_g, w))),
        lambda w: chain_oracle.class_of(dict(zip(gens_c, w))),
    )


def _er_order(quiver: Quiver):
    """The vertices that play v_0..v_r when the quiver is isomorphic to the
    loop-chain quiver, sink first, or None."""
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


def parse_quiver(text: str) -> Quiver:
    """Quiver DSL: ``vertices <id>+ ; arrows (<name>:)?<id> '->' <id> ...``
    with ``#`` line comments.  A vertex id or arrow name that is a section
    head or holds ``<``, ``:``, ``->``, ``[``, ``]`` or ``,`` raises
    PosetError."""
    vertices, arrows = [], []
    heads = ("vertices", "arrows")
    for head, rest in _sections(text, heads):
        if head == "vertices":
            _check_ids(rest, heads)
            vertices = rest
        else:  # arrows
            for i, tok in enumerate(rest):
                if "->" not in tok:
                    raise PosetError(f"bad arrow {tok!r}, expected s->r")
                name, _, body = tok.rpartition(":")
                s, _, t = body.partition("->")
                _check_ids((name, s, t) if name else (s, t), heads)
                arrows.append((name or f"e{i}", s, t))
    return Quiver(tuple(sorted(vertices)), tuple(arrows))
