"""Graph monoids of finite quivers and the loop-chain family.

The monoid of a quiver is the free abelian monoid on the vertices modulo
v = sum of the ranges of the arrows leaving v, for every emitting vertex;
equality of words is decided by the bounded congruence oracle.  The
loop-chain quiver with r+1 vertices (a loop and a step-down arrow at each
non-sink vertex) has the chain poset as its monoid, which is checked by
comparing bounded congruence closures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .poset import PosetError, Quiver, _sections
from .primon import MonoidError, _bounded_words, congruence_oracle


@dataclass(frozen=True)
class GraphMonoidPresentation:
    """Vertex generators with one defining relation per emitting vertex."""

    quiver: Quiver
    relations: tuple  # ((vertex, {vertex: multiplicity}), ...) per emitting vertex


def graph_monoid(quiver: Quiver, bound: int = 4):
    """The presentation together with a bounded equality decider.

    Every relation word must fit the oracle's bound, so a vertex that emits
    more than ``bound`` arrows raises MonoidError."""
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
    pres = GraphMonoidPresentation(quiver, tuple(rels))
    oracle = congruence_oracle(quiver.vertices, [({v: 1}, dict(rhs)) for v, rhs in rels], bound)
    return pres, oracle


def build_Er(r: int) -> Quiver:
    """r+1 vertices v0..vr; for 1 <= i <= r a loop a_i at v_i and an arrow
    b_i from v_i to v_{i-1}."""
    if r < 0:
        raise PosetError("negative chain length")
    vertices = tuple(f"v{i}" for i in range(r + 1))
    arrows = []
    for i in range(1, r + 1):
        arrows.append((f"a{i}", f"v{i}", f"v{i}"))
        arrows.append((f"b{i}", f"v{i}", f"v{i-1}"))
    return Quiver(vertices, tuple(arrows))


def is_hereditary(quiver, subset) -> bool:
    """True iff no arrow leaves the subset: closure under arrows is
    closure under paths."""
    subset = set(subset)
    return all(r in subset for _, s, r in quiver.arrows if s in subset)


def is_saturated(quiver, subset) -> bool:
    return saturate(quiver, subset) == frozenset(subset)


def saturate(quiver, subset) -> frozenset:
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


def hereditary_saturated(quiver: Quiver):
    """All hereditary saturated vertex subsets, by (size, sorted members)."""
    out = []
    for k in range(len(quiver.vertices) + 1):
        for combo in itertools.combinations(quiver.vertices, k):
            s = frozenset(combo)
            if is_hereditary(quiver, s) and is_saturated(quiver, s):
                out.append(s)
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def quotient_graph(quiver: Quiver, subset) -> Quiver:
    """Drop the subset's vertices and every arrow ranging inside it."""
    subset = set(subset)
    vertices = tuple(v for v in quiver.vertices if v not in subset)
    arrows = tuple(a for a in quiver.arrows if a[2] not in subset and a[1] not in subset)
    return Quiver(vertices, arrows)


def restrict_graph(quiver: Quiver, subset) -> Quiver:
    """Keep the subset's vertices and every arrow leaving them (the subset
    must be hereditary so ranges stay inside)."""
    subset = set(subset)
    if not is_hereditary(quiver, subset):
        raise PosetError("restriction needs a hereditary subset")
    vertices = tuple(v for v in quiver.vertices if v in subset)
    arrows = tuple(a for a in quiver.arrows if a[1] in subset)
    return Quiver(vertices, arrows)


def check_Er_equals_chain(r: int, bound: int, quiver: Quiver | None = None):
    """Bounded congruence closures of the loop-chain quiver monoid and of
    the chain-poset monoid agree under v_i <-> p_i; None if ok."""
    quiver = build_Er(r) if quiver is None else quiver
    _, graph_oracle = graph_monoid(quiver, bound)
    chain_rels = [({f"p{i}": 1}, {f"p{i}": 1, f"p{i-1}": 1}) for i in range(1, r + 1)]
    chain_oracle = congruence_oracle([f"p{i}" for i in range(r + 1)], chain_rels, bound)
    gens_g = [f"v{i}" for i in range(r + 1)]
    gens_c = [f"p{i}" for i in range(r + 1)]
    words = list(_bounded_words(r + 1, bound))
    for w1, w2 in itertools.combinations(words, 2):
        g_eq = graph_oracle.equal(dict(zip(gens_g, w1)), dict(zip(gens_g, w2)))
        c_eq = chain_oracle.equal(dict(zip(gens_c, w1)), dict(zip(gens_c, w2)))
        if g_eq != c_eq:
            return (w1, w2, g_eq, c_eq)
    return None


def detect_Er(quiver: Quiver):
    """The r with quiver isomorphic (as labelled data) to the loop-chain
    quiver, or None."""
    n = len(quiver.vertices)
    r = n - 1
    if r < 0 or len(quiver.arrows) != 2 * r:
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
    return r


def parse_quiver(text: str) -> Quiver:
    """Quiver DSL: ``vertices <id>+ ; arrows (<name>:)?<id> '->' <id> ...``
    with ``#`` line comments."""
    vertices, arrows = [], []
    for head, rest in _sections(text, ("vertices", "arrows")):
        if head == "vertices":
            if len(set(rest)) != len(rest):
                raise PosetError("duplicate vertex ids")
            vertices = rest
        else:  # arrows
            for i, tok in enumerate(rest):
                if "->" not in tok:
                    raise PosetError(f"bad arrow {tok!r}, expected s->r")
                name, _, body = tok.rpartition(":")
                s, _, t = body.partition("->")
                arrows.append((name or f"e{i}", s, t))
    return Quiver(tuple(sorted(vertices)), tuple(arrows))
