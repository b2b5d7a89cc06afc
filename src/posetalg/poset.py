"""Finite labelled posets, their order combinatorics, and the derived quiver.

A labelled poset is a finite poset together with, for every element p that
has lower covers, a fixed ordering (labelling) of its lower-cover set.  The
labelling is the combinatorial seed for everything downstream: the quiver
T(P) with one arrow per lower cover, the primitive monoid of the strict
order, and the index bookkeeping of the localized path-style algebra.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class PosetError(ValueError):
    """Raised for malformed posets, DSL input, or unknown elements."""


def transitive_closure(elements, pairs):
    """Closure of a strict relation; raises PosetError on a cycle."""
    below = {e: set() for e in elements}
    for a, b in pairs:
        if a not in below or b not in below:
            raise PosetError(f"relation mentions unknown element {a!r} or {b!r}")
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in elements:
            extra = set()
            for a in below[b]:
                extra |= below[a]
            if not extra <= below[b]:
                below[b] |= extra
                changed = True
    for e in elements:
        if e in below[e]:
            raise PosetError(f"cycle detected through {e!r}: not a partial order")
    return below


@dataclass(frozen=True)
class LabelledPoset:
    """Finite poset with a per-element ordering of lower covers.

    ``elements`` is sorted; ``strict`` maps each element to the frozenset of
    elements strictly below it; ``labels`` maps each element with n_p > 0 to
    the tuple of its lower covers in label order (position i = label i+1).
    """

    elements: tuple[str, ...]
    strict: dict[str, frozenset[str]]
    labels: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for p in self.elements:
            covers = compute_lower_covers(self.strict, p)
            lab = self.labels.get(p, ())
            if set(lab) != covers or len(lab) != len(covers):
                raise PosetError(
                    f"label map of {p!r} is not a bijection onto its lower covers "
                    f"(labels {lab}, covers {sorted(covers)})"
                )

    def __contains__(self, p):
        return p in self.strict

    def __eq__(self, other):
        return (
            isinstance(other, LabelledPoset)
            and self.elements == other.elements
            and self.strict == other.strict
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash((self.elements, tuple(sorted((k, tuple(sorted(v))) for k, v in self.strict.items()))))

    def check(self, p):
        if p not in self.strict:
            raise PosetError(f"unknown element {p!r}")

    def lt(self, q, p):
        self.check(q), self.check(p)
        return q in self.strict[p]

    def leq(self, q, p):
        return q == p or self.lt(q, p)

    def n_covers(self, p):
        return len(self.labels.get(p, ()))

    def label_index(self, p, q):
        """1-based label of the cover q of p."""
        return self.labels[p].index(q) + 1

    def minimal(self):
        return tuple(p for p in self.elements if not self.strict[p])

    def maximal(self):
        above = {p: [q for q in self.elements if p in self.strict[q]] for p in self.elements}
        return tuple(p for p in self.elements if not above[p])


def compute_lower_covers(strict, p):
    """{q : q < p and the interval [q, p] is {q, p}}."""
    below = strict[p]
    return {q for q in below if not any(q in strict[r] for r in below if r != q)}


def make_poset(elements, cover_pairs=(), labels=None, declared_order=None):
    """Build a LabelledPoset from strict-relation pairs (q, p) meaning q < p.

    The transitive closure is computed internally; when ``labels`` omits an
    element, its covers are auto-labelled by first appearance in
    ``declared_order`` (defaulting to ``cover_pairs`` order), then id.  A
    ``labels`` entry for an unknown element or for an element without lower
    covers raises PosetError.
    """
    elements = tuple(sorted(elements))
    if len(set(elements)) != len(elements):
        raise PosetError("duplicate element ids")
    strict = {e: frozenset(v) for e, v in transitive_closure(elements, cover_pairs).items()}
    declared = list(declared_order if declared_order is not None else cover_pairs)
    labels = dict(labels or {})
    out_labels = {}
    for p in elements:
        covers = compute_lower_covers(strict, p)
        if not covers:
            continue
        if p in labels:
            out_labels[p] = tuple(labels[p])
        else:
            def first_pos(q, p=p):
                for i, (a, b) in enumerate(declared):
                    if (a, b) == (q, p):
                        return i
                return len(declared)
            out_labels[p] = tuple(sorted(covers, key=lambda q: (first_pos(q), q)))
    stray = labels.keys() - out_labels.keys()
    if stray:
        p = min(stray)
        reason = "has no lower covers" if p in strict else "is not an element"
        raise PosetError(f"label entry for {p!r}, which {reason}")
    return LabelledPoset(elements, strict, out_labels)


# ---------------------------------------------------------------------------
# poset DSL


def parse_poset(text: str) -> LabelledPoset:
    """Parse the poset DSL.

    ``elems <id>+ ; covers (<id> '<' <id>)* ; labels (<id> ':' '[' <id> (',' <id>)* ']')*``
    Sections are semicolon-separated, ``#`` starts a line comment.
    """
    lines = [ln.split("#", 1)[0] for ln in text.splitlines()]
    src = " ".join(lines)
    elements, covers, labels = [], [], {}
    seen = set()
    for section in src.split(";"):
        toks = section.split()
        if not toks:
            continue
        head, rest = toks[0], toks[1:]
        if head in seen:
            raise PosetError(f"duplicate section {head!r}")
        seen.add(head)
        if head == "elems":
            if len(set(rest)) != len(rest):
                raise PosetError("duplicate element ids")
            elements = rest
        elif head == "covers":
            for tok in rest:
                if "<" not in tok:
                    raise PosetError(f"bad cover {tok!r}, expected q<p")
                q, _, p = tok.partition("<")
                covers.append((q, p))
        elif head == "labels":
            for tok in rest:
                if ":" not in tok or not tok.endswith("]"):
                    raise PosetError(f"bad label entry {tok!r}, expected p:[q,...]")
                p, _, body = tok.partition(":")
                body = body.strip()
                if not body.startswith("["):
                    raise PosetError(f"bad label entry {tok!r}")
                labels[p] = tuple(x for x in body[1:-1].split(",") if x)
        else:
            raise PosetError(f"unknown section {head!r}")
    if not elements:
        raise PosetError("missing elems section")
    return make_poset(elements, covers, labels or None)


# ---------------------------------------------------------------------------
# lower sets


@dataclass(frozen=True)
class LowerSet:
    """A downward-closed subset of a poset."""

    poset: LabelledPoset
    members: frozenset[str]

    def __post_init__(self):
        for p in self.members:
            self.poset.check(p)
            if not self.poset.strict[p] <= self.members:
                raise PosetError(f"{sorted(self.members)} is not downward closed at {p!r}")

    def __contains__(self, p):
        return p in self.members

    def union(self, other):
        return LowerSet(self.poset, self.members | other.members)

    def intersection(self, other):
        return LowerSet(self.poset, self.members & other.members)

    def sorted(self):
        return tuple(sorted(self.members))


def lower_sets(poset: LabelledPoset) -> list[LowerSet]:
    """All lower sets, by (size, members); join is union, meet intersection."""
    out = []
    for k in range(len(poset.elements) + 1):
        for combo in itertools.combinations(poset.elements, k):
            s = set(combo)
            if all(poset.strict[p] <= s for p in combo):
                out.append(LowerSet(poset, frozenset(s)))
    return out


def down_set(poset: LabelledPoset, p: str) -> LowerSet:
    poset.check(p)
    return LowerSet(poset, frozenset(poset.strict[p] | {p}))


def boundary(poset: LabelledPoset, lset: LowerSet) -> frozenset[str]:
    """A together with every p that has some lower cover inside A."""
    a = lset.members
    extra = {p for p in poset.elements if set(lower_covers(poset, p)) & a}
    return frozenset(a | extra)


# ---------------------------------------------------------------------------
# covers, chains, heights


def lower_covers(poset: LabelledPoset, p: str) -> tuple[str, ...]:
    """The lower covers of p in label order."""
    poset.check(p)
    return poset.labels.get(p, ())


def maximal_chains(poset: LabelledPoset, p: str) -> list[tuple[str, ...]]:
    """Maximal chains of the down-set of p, ascending, ending at p.

    Enumeration is lexicographic on the label indices of the descent from p,
    so the output order is reproducible.
    """
    poset.check(p)
    chains = []

    def descend(v, acc):
        covers = lower_covers(poset, v)
        if not covers:
            chains.append(tuple(reversed(acc)))
            return
        for q in covers:
            descend(q, acc + [q])

    descend(p, [p])
    return chains


def height(poset: LabelledPoset, p: str) -> int:
    """Length of the longest chain below p (0 for minimal elements)."""
    poset.check(p)
    covers = lower_covers(poset, p)
    return 0 if not covers else 1 + max(height(poset, q) for q in covers)


def depth(poset: LabelledPoset, p: str) -> int:
    """Length of the longest chain above p (0 for maximal elements)."""
    poset.check(p)
    uppers = [q for q in poset.elements if p in poset.strict[q] and p in compute_lower_covers(poset.strict, q)]
    return 0 if not uppers else 1 + max(depth(poset, q) for q in uppers)


# ---------------------------------------------------------------------------
# the quiver T(P)


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; arrows are (name, source, range), ordered per vertex."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        vs = set(self.vertices)
        for name, s, r in self.arrows:
            if s not in vs or r not in vs:
                raise PosetError(f"arrow {name!r} has endpoint outside the vertex set")

    def out_arrows(self, v):
        return tuple(a for a in self.arrows if a[1] == v)

    def in_arrows(self, v):
        return tuple(a for a in self.arrows if a[2] == v)

    def source(self, name):
        return next(a[1] for a in self.arrows if a[0] == name)

    def range(self, name):
        return next(a[2] for a in self.arrows if a[0] == name)


def quiver_T(poset: LabelledPoset) -> Quiver:
    """Vertices are the elements; one arrow p -> q per lower cover q of p."""
    arrows = []
    for p in poset.elements:
        for q in lower_covers(poset, p):
            arrows.append((f"{p}->{q}", p, q))
    return Quiver(poset.elements, tuple(arrows))


def is_forest(poset: LabelledPoset) -> bool:
    """True iff every down-set is a chain."""
    for p in poset.elements:
        down = sorted(poset.strict[p] | {p})
        for a, b in itertools.combinations(down, 2):
            if not (poset.leq(a, b) or poset.leq(b, a)):
                return False
    return True


# ---------------------------------------------------------------------------
# morphisms and isomorphism search


def is_complete_hom(f: dict, src: LabelledPoset, dst: LabelledPoset) -> bool:
    """Injective, order-preserving, label-respecting bijection on each cover set."""
    if set(f) != set(src.elements):
        return False
    if any(v not in dst.strict for v in f.values()):
        return False
    if len(set(f.values())) != len(f):
        return False
    for q, p in itertools.permutations(src.elements, 2):
        if src.lt(q, p) and not dst.lt(f[q], f[p]):
            return False
    for p in src.elements:
        covs = lower_covers(src, p)
        if not covs:
            continue
        img = lower_covers(dst, f[p])
        if len(img) != len(covs):
            return False
        if tuple(f[q] for q in covs) != img:
            return False
    return True


def relation_iso(elems1, rel1, elems2, rel2):
    """A bijection elems1 -> elems2 carrying rel1 exactly onto rel2, or None.

    Backtracking search; relations are sets of ordered pairs (self-pairs
    allowed).  Used for poset isomorphism and for prime-pair isomorphism.
    """
    elems1, elems2 = sorted(elems1), sorted(elems2)
    if len(elems1) != len(elems2) or len(rel1) != len(rel2):
        return None
    rel1, rel2 = set(rel1), set(rel2)

    def indeg(e, rel):
        return sum(1 for a, b in rel if b == e)

    def outdeg(e, rel):
        return sum(1 for a, b in rel if a == e)

    sig1 = {e: (indeg(e, rel1), outdeg(e, rel1), (e, e) in rel1) for e in elems1}
    sig2 = {e: (indeg(e, rel2), outdeg(e, rel2), (e, e) in rel2) for e in elems2}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return None

    assignment = {}
    used = set()

    def ok(a, b):
        if sig1[a] != sig2[b]:
            return False
        for c, d in assignment.items():
            for x, y in (((a, c), (b, d)), ((c, a), (d, b))):
                if (x in rel1) != (y in rel2):
                    return False
        return True

    def search(i):
        if i == len(elems1):
            return True
        a = elems1[i]
        for b in elems2:
            if b not in used and ok(a, b):
                assignment[a] = b
                used.add(b)
                if search(i + 1):
                    return True
                del assignment[a]
                used.discard(b)
        return False

    return dict(assignment) if search(0) else None


def poset_pair_iso(x, y):
    """Relation-preserving bijection between two prime pairs, or None.

    Accepts any objects exposing ``primes`` and ``rel`` (the primon module's
    PrimePair does).
    """
    return relation_iso(x.primes, x.rel, y.primes, y.rel)


def poset_iso(p1: LabelledPoset, p2: LabelledPoset):
    rel1 = {(q, p) for p in p1.elements for q in p1.strict[p]}
    rel2 = {(q, p) for p in p2.elements for q in p2.strict[p]}
    return relation_iso(p1.elements, rel1, p2.elements, rel2)


def enumerate_posets(n: int) -> list[LabelledPoset]:
    """All posets on n elements up to isomorphism (elements x0..x{n-1}).

    Every finite poset has a linear extension, so it suffices to enumerate
    transitively closed strict relations inside the natural order of the
    index set and deduplicate by canonical form under permutations.
    """
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


# ---------------------------------------------------------------------------
# DOT export


def to_dot(obj, name="G") -> str:
    """DOT digraph for a LabelledPoset (Hasse diagram) or a Quiver."""
    lines = [f"digraph {name} {{"]
    if isinstance(obj, LabelledPoset):
        for p in obj.elements:
            lines.append(f'  "{p}";')
        for p in obj.elements:
            for i, q in enumerate(lower_covers(obj, p), start=1):
                lines.append(f'  "{p}" -> "{q}" [label="{i}"];')
    elif isinstance(obj, Quiver):
        for v in obj.vertices:
            lines.append(f'  "{v}";')
        for aname, s, r in obj.arrows:
            lines.append(f'  "{s}" -> "{r}" [label="{aname}"];')
    else:
        raise PosetError(f"cannot export {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fig2_poset() -> LabelledPoset:
    """The three-element poset a < p > b with n_p = 2, labels [a, b]."""
    return make_poset(["p", "a", "b"], [("a", "p"), ("b", "p")], {"p": ("a", "b")})
