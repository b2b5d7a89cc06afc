"""Graph monoids of finite quivers and the loop-chain family.

The monoid of a quiver is the free abelian monoid on the vertices modulo
v = sum of the ranges of the arrows leaving v, for every emitting vertex;
equality of words is decided by the bounded congruence oracle.  The
loop-chain quiver with r+1 vertices (a loop and a step-down arrow at each
non-sink vertex) has the chain poset as its monoid, which its relations
prove exactly.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .poset import PosetError, Quiver, _check_ids, _closed_sets, _grow, _reject_bare_string, _require_count, _sections
from .primon import CongruenceOracle, MonoidError


def graph_monoid(quiver: Quiver, bound: int):
    """The defining relations, one ``(vertex, sorted (range, multiplicity)
    pairs)`` per emitting vertex, together with a bounded equality decider.

    Every relation word must fit the oracle's bound, a non-negative int, so
    a vertex that emits more than ``bound`` arrows raises MonoidError, and
    the oracle raises OracleLimitError before it builds more words than its limit."""
    rels = _relations(quiver, bound)
    return rels, CongruenceOracle(quiver.vertices, [({v: 1}, dict(rhs)) for v, rhs in rels], bound)


def _relations(quiver, bound):
    """graph_monoid's relations, after the checks of bound."""
    _require_count(bound, "bound", MonoidError)
    rels = []
    for v in quiver.vertices:
        outs = quiver.out_arrows(v)
        if not outs:
            continue
        if len(outs) > bound:
            raise MonoidError(
                f"vertex {v!r} emits {len(outs)} arrows, so its relation word exceeds oracle bound {bound}"
            )
        rels.append((v, tuple(sorted(Counter(r for _, _, r in outs).items()))))
    return tuple(rels)


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
    """The least saturated superset: an emitting vertex joins once all its
    ranges are in.  The rule is monotone, and the last of v's ranges to join
    is popped after it joins, with v among its in-neighbours, so v is
    examined once all its ranges are in and no sweep is needed."""
    outs, ins = _arrow_maps(quiver)
    found = set(_vertex_subset(quiver, subset))
    return frozenset(_grow(found, lambda x: {v for v in ins[x] if outs[v] <= found}))


def _arrow_maps(quiver):
    """Each vertex's set of ranges and set of in-neighbours."""
    outs = {v: {r for _, s, r in quiver.arrows if s == v} for v in quiver.vertices}
    return outs, {v: {s for _, s, r in quiver.arrows if r == v} for v in quiver.vertices}


def hereditary_saturated(quiver: Quiver):
    """All hereditary saturated vertex subsets, by (size, sorted members).
    A set's closure adds each member's ranges and saturates, both monotone
    rules, so one worklist gives its least hereditary saturated superset."""
    outs, ins = _arrow_maps(quiver)

    def close(subset):
        found = set(subset)
        return _grow(found, lambda x: outs[x] | {v for v in ins[x] if outs[v] <= found})

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
    """None when E_r's relations are the chain poset's cover relations
    v_i = v_i + v_{i-1} in index order, else those relations.  Cover
    relations generate p = p + q for q < p (along a cover path q = c_0 <
    ... < c_k = p, p = p + c_{k-1} = ... = p + c_{k-1} + ... + c_0), so
    M(E_r) = M(chain) exactly; ``bound`` is checked as in graph_monoid, but no oracle is built."""
    relations = _relations(build_Er(r), bound)
    vertices = [f"v{i}" for i in range(r + 1)]
    return None if _chain_order(vertices, relations) == vertices else relations


def _chain_order(vertices, relations):
    """The vertices sink first when ``graph_monoid``'s relations are the
    chain's cover relations v = v + u along one path through every vertex
    (each emitting vertex has one loop and one step, one vertex emits
    nothing), else None."""
    above = {}
    for v, rhs in relations:
        u = next((u for u, _ in rhs if u != v), v)
        if u == v or dict(rhs) != {u: 1, v: 1} or u in above:
            return None
        above[u] = v
    order = list(set(vertices).difference(above.values()))  # those that emit nothing
    if len(order) != 1:
        return None
    while order[-1] in above:
        order.append(above[order[-1]])
    return order if len(order) == len(vertices) else None


def parse_quiver(text: str) -> Quiver:
    """Quiver DSL: ``vertices <id>+ ; arrows (<name>:)?<id> '->' <id> ...``
    with ``#`` line comments.  The unnamed arrow at position i is named
    e{k} for the least k >= i that no other arrow has taken.  A vertex id
    or arrow name that is a section head or holds ``<``, ``:``, ``->``,
    ``[``, ``]`` or ``,`` raises PosetError."""
    vertices, arrows = [], []
    heads = ("vertices", "arrows")
    for head, rest in _sections(text, heads):
        if head == "vertices":
            _check_ids(rest, heads)
            vertices = rest
        else:  # arrows
            for tok in rest:
                if "->" not in tok:
                    raise PosetError(f"bad arrow {tok!r}, expected s->r")
                name, _, body = tok.rpartition(":")
                s, _, t = body.partition("->")
                _check_ids((name, s, t) if name else (s, t), heads)
                arrows.append((name, s, t))
    taken = {name for name, _, _ in arrows}
    for i, (name, s, t) in enumerate(arrows):
        if not name:
            name = next(f"e{k}" for k in itertools.count(i) if f"e{k}" not in taken)
            taken.add(name)
            arrows[i] = (name, s, t)
    return Quiver(tuple(sorted(vertices)), tuple(arrows))
