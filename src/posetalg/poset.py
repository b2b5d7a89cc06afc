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

from collections import defaultdict
from dataclasses import dataclass
from types import MappingProxyType


class PosetError(ValueError):
    """Raised for malformed posets, DSL input, or unknown elements."""


def _reject_bare_string(names, what, error):
    """A collection of names given as one string would split into its
    characters, so it is rejected with the given error type."""
    if isinstance(names, str):
        raise error(f"{what} {names!r} is a bare string, not a collection of names")


def _require_count(value, what, error):
    """Raise the given error type unless value is a non-negative int; a
    bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise error(f"{what} {value!r} is not a non-negative int")


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
    Both maps are keyed in element order and are read-only views of copies
    of the mappings passed in.  The constructor checks all of this and
    raises PosetError on the first part that fails.
    """

    elements: tuple[str, ...]
    strict: MappingProxyType[str, frozenset[str]]
    labels: MappingProxyType[str, tuple[str, ...]]

    def __post_init__(self):
        elements = tuple(self.elements)
        if list(elements) != sorted(set(elements)):
            raise PosetError(f"elements {elements} are not sorted and distinct")
        known = set(elements)
        odd = known ^ self.strict.keys()
        if odd:
            p = min(odd, key=str)
            raise PosetError(f"strict map has {'no' if p in known else 'a stray'} key {p!r}")
        strict = {p: frozenset(self.strict[p]) for p in elements}
        for p, below in strict.items():
            if p in below:
                raise PosetError(f"{p!r} is strictly below itself")
            for q in below:
                if q not in known:
                    raise PosetError(f"strict map of {p!r} holds unknown element {q!r}")
                if not strict[q] <= below:
                    r = min(strict[q] - below, key=str)
                    raise PosetError(f"strict order not transitive: {r!r} < {q!r} < {p!r}, not {r!r} < {p!r}")
        labels = _cover_labels(elements, strict, self.labels)
        self.__dict__.update(elements=elements, strict=MappingProxyType(strict), labels=MappingProxyType(labels))

    @classmethod
    def _trusted(cls, elements, strict, labels):
        """A poset from parts known valid: the sorted element tuple, a
        transitive irreflexive down-set map and the labels of the elements
        with lower covers, both dicts keyed in element order.  Nothing is
        checked or copied, so the caller must not keep the dicts."""
        poset = object.__new__(cls)
        poset.__dict__.update(elements=elements, strict=MappingProxyType(strict), labels=MappingProxyType(labels))
        return poset

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
        return self.lt(q, p) or q == p

    def n_covers(self, p):
        if p not in self.labels:
            self.check(p)
        return len(self.labels.get(p, ()))

    def label_index(self, p, q):
        """1-based label of the cover q of p."""
        try:
            return self.labels[p].index(q) + 1
        except (KeyError, ValueError):
            self.check(p), self.check(q)
            raise PosetError(f"{q!r} is not a lower cover of {p!r}") from None

    def minimal(self):
        return tuple(p for p in self.elements if not self.strict[p])

    def maximal(self):
        below = set().union(*self.strict.values())
        return tuple(p for p in self.elements if p not in below)


def compute_lower_covers(strict, p):
    """{q : q < p and the interval [q, p] is {q, p}}."""
    below = strict[p]
    return below - set().union(*(strict[r] for r in below))


def _cover_labels(elements, strict, labels, auto=lambda p, covers: ()):
    """The label map of a valid strict order, keyed in element order: each
    element with lower covers takes ``labels[p]``, else ``auto(p, covers)``,
    and must list its lower covers once each.  A ``labels`` entry for a
    non-element or for an element without lower covers raises PosetError."""
    stray = labels.keys() - {p for p in elements if strict[p]}
    if stray:
        p = min(stray)
        reason = "has no lower covers" if p in strict else "is not an element"
        raise PosetError(f"label entry for {p!r}, which {reason}")
    out = {}
    for p in elements:
        if strict[p]:
            covers = compute_lower_covers(strict, p)
            lab = tuple(labels[p]) if p in labels else auto(p, covers)
            if set(lab) != covers or len(lab) != len(covers):
                raise PosetError(
                    f"label map of {p!r} is not a bijection onto its lower covers "
                    f"(labels {lab}, covers {sorted(covers)})"
                )
            out[p] = lab
    return out


def make_poset(elements, cover_pairs=(), labels=None):
    """Build a LabelledPoset from strict-relation pairs (q, p) meaning q < p.

    The transitive closure is computed internally; when ``labels`` omits an
    element, its covers are auto-labelled by first appearance in
    ``cover_pairs``, then id.  A ``labels`` entry for an unknown element or
    for an element without lower covers raises PosetError.  Given labels
    are checked against the covers once; the closure is valid as built, so
    the poset is not checked again.
    """
    elements = tuple(sorted(elements))
    if len(set(elements)) != len(elements):
        raise PosetError("duplicate element ids")
    cover_pairs = list(cover_pairs)  # read twice: a generator would run dry
    strict = {e: frozenset(v) for e, v in transitive_closure(elements, cover_pairs).items()}
    first = {}
    for i, (a, b) in enumerate(cover_pairs):
        first.setdefault((a, b), i)

    def auto(p, covers):
        return tuple(sorted(covers, key=lambda q: (first.get((q, p), len(cover_pairs)), q)))

    return LabelledPoset._trusted(elements, strict, _cover_labels(elements, strict, dict(labels or {}), auto))


# ---------------------------------------------------------------------------
# poset DSL


def _sections(text: str, heads):
    """The (head, tokens) sections of a DSL text, in order, for the poset
    and quiver DSLs: ``#`` starts a line comment and ``;`` separates
    sections.  A section head must be one of ``heads`` and appear at most
    once; once the sections run out, the first of ``heads`` must have
    appeared with tokens.  Errors surface in reading order."""
    src = " ".join(ln.split("#", 1)[0] for ln in text.splitlines())
    seen = {}
    for section in src.split(";"):
        toks = section.split()
        if not toks:
            continue
        head, rest = toks[0], toks[1:]
        if head in seen:
            raise PosetError(f"duplicate section {head!r}")
        if head not in heads:
            raise PosetError(f"unknown section {head!r}")
        seen[head] = rest
        yield head, rest
    if not seen.get(heads[0]):
        raise PosetError(f"missing {heads[0]} section")


def _check_ids(ids, heads):
    """Raise PosetError on an id that is a section head or holds one of the
    DSL's marks: either means two sections ran together without a ``;``."""
    for i in ids:
        mark = next((m for m in ("<", ":", "->", "[", "]", ",") if m in i), None)
        if i in heads or mark:
            what = "is a section head" if i in heads else f"holds {mark!r}"
            raise PosetError(f"id {i!r} {what}: is a ';' missing between sections?")


def parse_poset(text: str) -> LabelledPoset:
    """Parse the poset DSL.

    ``elems <id>+ ; covers (<id> '<' <id>)* ; labels (<id> ':' '[' <id> (',' <id>)* ']')*``
    Sections are semicolon-separated, ``#`` starts a line comment.  An id
    that is a section head or holds ``<``, ``:``, ``->``, ``[``, ``]`` or
    ``,`` raises PosetError.
    """
    elements, covers, labels = [], [], {}
    heads = ("elems", "covers", "labels")
    for head, rest in _sections(text, heads):
        if head == "elems":
            _check_ids(rest, heads)
            if len(set(rest)) != len(rest):
                raise PosetError("duplicate element ids")
            elements = rest
        elif head == "covers":
            for tok in rest:
                if "<" not in tok:
                    raise PosetError(f"bad cover {tok!r}, expected q<p")
                q, _, p = tok.partition("<")
                _check_ids((q, p), heads)
                covers.append((q, p))
        else:  # labels
            for tok in rest:
                if ":" not in tok or not tok.endswith("]"):
                    raise PosetError(f"bad label entry {tok!r}, expected p:[q,...]")
                p, _, body = tok.partition(":")
                body = body.strip()
                if not body.startswith("["):
                    raise PosetError(f"bad label entry {tok!r}")
                if p in labels:
                    raise PosetError(f"duplicate label entry {tok!r} for {p!r}")
                ids = tuple(body[1:-1].split(",")) if len(body) > 2 else ()
                if "" in ids:
                    raise PosetError(f"empty id in label entry {tok!r}")
                _check_ids((p, *ids), heads)
                labels[p] = ids
    return make_poset(elements, covers, labels or None)


# ---------------------------------------------------------------------------
# lower sets


@dataclass(frozen=True)
class LowerSet:
    """A downward-closed subset of a poset; ``members`` is stored as a
    frozenset."""

    poset: LabelledPoset
    members: frozenset[str]

    def __post_init__(self):
        _reject_bare_string(self.members, "lower set", PosetError)
        self.__dict__.update(members=frozenset(self.members))
        for p in self.members:
            self.poset.check(p)
            if not self.poset.strict[p] <= self.members:
                raise PosetError(f"{sorted(self.members)} is not downward closed at {p!r}")

    def __contains__(self, p):
        return p in self.members

    def union(self, other):
        return LowerSet(self.poset, self.members | self._same_poset(other))

    def intersection(self, other):
        return LowerSet(self.poset, self.members & self._same_poset(other))

    def _same_poset(self, other):
        if not isinstance(other, LowerSet) or other.poset != self.poset:
            raise PosetError("the operand is not a lower set of the same poset")
        return other.members

    def sorted(self):
        return tuple(sorted(self.members))


def _closed_sets(items, close):
    """Every set the closure operator ``close`` fixes, by (size, sorted members).
    Each closed set but close(()) is the closure of a smaller one plus one item,
    so the search never builds an unclosed set and its cost follows its output."""
    start = frozenset(close(()))
    found, todo = {start}, [start]
    while todo:
        s = todo.pop()
        for t in {frozenset(close(s | {x})) for x in items if x not in s} - found:
            found.add(t)
            todo.append(t)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def lower_sets(poset: LabelledPoset) -> list[LowerSet]:
    """All lower sets, by (size, members); join is union, meet intersection."""
    closed = _closed_sets(poset.elements, lambda s: frozenset(s).union(*(poset.strict[p] for p in s)))
    return [LowerSet(poset, s) for s in closed]


def down_set(poset: LabelledPoset, p: str) -> LowerSet:
    poset.check(p)
    return LowerSet(poset, poset.strict[p] | {p})


def boundary(lset: LowerSet) -> frozenset[str]:
    """A together with every p of its poset that has some lower cover inside A."""
    a, poset = lset.members, lset.poset
    extra = {p for p in poset.elements if set(lower_covers(poset, p)) & a}
    return frozenset(a | extra)


# ---------------------------------------------------------------------------
# covers, chains, heights


def lower_covers(poset: LabelledPoset, p: str) -> tuple[str, ...]:
    """The lower covers of p in label order."""
    poset.check(p)
    return poset.labels.get(p, ())


def _require_cover(poset, p, q, error):
    """Raise the given error type unless q is a lower cover of p."""
    if q not in lower_covers(poset, p):
        raise error(f"{q!r} is not a lower cover of {p!r}")


def _descents(poset: LabelledPoset, p: str):
    """Every descending cover path from p, as a tuple that starts at p.

    The walk is depth first with covers in label order, so the paths come
    in lexicographic order on their label indices, each path before its
    extensions.
    """
    poset.check(p)
    stack = [(p,)]
    while stack:
        path = stack.pop()
        yield path
        stack += [path + (q,) for q in reversed(poset.labels.get(path[-1], ()))]


def maximal_chains(poset: LabelledPoset, p: str) -> list[tuple[str, ...]]:
    """Maximal chains of the down-set of p, ascending, ending at p.

    Enumeration is lexicographic on the label indices of the descent from p,
    so the output order is reproducible.
    """
    return [path[::-1] for path in _descents(poset, p) if not poset.labels.get(path[-1])]


def _chain_counts(poset: LabelledPoset) -> dict:
    """The number of maximal chains of each element's down-set, in one pass
    up the cover labels by ascending down-set size: 1 at a minimal element,
    else the sum over its lower covers."""
    out = {}
    for q in sorted(poset.elements, key=lambda e: len(poset.strict[e])):
        out[q] = sum(out[c] for c in poset.labels.get(q, ())) or 1
    return out


def height(poset: LabelledPoset, p: str) -> int:
    """Length of the longest chain below p (0 for minimal elements), in one
    pass up the cover labels of its down-set, by ascending down-set size."""
    poset.check(p)
    out = {}
    for q in sorted(poset.strict[p] | {p}, key=lambda e: len(poset.strict[e])):
        out[q] = max((out[c] + 1 for c in poset.labels.get(q, ())), default=0)
    return out[p]


def depth(poset: LabelledPoset, p: str) -> int:
    """Length of the longest chain above p (0 for maximal elements)."""
    poset.check(p)
    return _depths(poset)[p]


def _depths(poset: LabelledPoset) -> dict:
    """The depth of every element, in one pass down the cover labels.

    An element has more elements below it than any element below it has,
    so by descending down-set size every element comes after all above it.
    """
    out = dict.fromkeys(poset.elements, 0)
    for p in sorted(poset.elements, key=lambda e: -len(poset.strict[e])):
        for q in poset.labels.get(p, ()):
            out[q] = max(out[q], out[p] + 1)
    return out


# ---------------------------------------------------------------------------
# the quiver T(P)


@dataclass(frozen=True)
class Quiver:
    """Finite quiver; arrows are (name, source, range), ordered per vertex.

    The constructor stores both parts as tuples and raises PosetError for a
    repeated vertex or arrow name, an arrow entry that is not a triple, or
    an endpoint outside the vertex set."""

    vertices: tuple[str, ...]
    arrows: tuple[tuple[str, str, str], ...]

    def __post_init__(self):
        _reject_bare_string(self.vertices, "vertices", PosetError)
        vertices, arrows = tuple(self.vertices), tuple(self.arrows)
        vs = set(vertices)
        if len(vs) != len(vertices):
            raise PosetError("duplicate vertex ids")
        names = set()
        for arrow in arrows:
            if not isinstance(arrow, tuple) or len(arrow) != 3:
                raise PosetError(f"arrow entry {arrow!r} is not a (name, source, range) triple")
            name, s, r = arrow
            if name in names:
                raise PosetError(f"duplicate arrow name {name!r}")
            names.add(name)
            if s not in vs or r not in vs:
                raise PosetError(f"arrow {name!r} has endpoint outside the vertex set")
        self.__dict__.update(vertices=vertices, arrows=arrows)

    def out_arrows(self, v):
        return tuple(a for a in self.arrows if a[1] == v)


def quiver_T(poset: LabelledPoset) -> Quiver:
    """Vertices are the elements; one arrow p -> q per lower cover q of p."""
    arrows = []
    for p in poset.elements:
        for q in lower_covers(poset, p):
            arrows.append((f"{p}->{q}", p, q))
    return Quiver(poset.elements, tuple(arrows))


def is_forest(poset: LabelledPoset) -> bool:
    """True iff every down-set is a chain.

    Equivalently no element has two lower covers: two incomparable elements
    below p have a minimal common upper bound x <= p, and the chains from
    them up to x arrive through two different lower covers of x.
    """
    return all(len(covers) < 2 for covers in poset.labels.values())


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
    # every q < p is a chain of covers, so keeping covers keeps the order
    return all(tuple(f[q] for q in covs) == lower_covers(dst, f[p]) for p, covs in src.labels.items())


def _relation_isos(elems1, rel1, elems2, rel2):
    """Every bijection elems1 -> elems2 carrying rel1 exactly onto rel2, as
    a dict, in the order of a backtracking search over the sorted elements.

    Relations are sets of ordered pairs (self-pairs allowed).  A bijection
    keeps each element's signature (in-degree, out-degree, self-pair), which
    prunes the search.  One pass over each relation gives every pair end its
    in- and out-neighbour sets; the signatures are their sizes, and a
    candidate is tested by membership in them.  Nothing is copied.
    """
    elems1, elems2 = sorted(elems1), sorted(elems2)
    if len(elems1) != len(elems2) or len(rel1) != len(rel2):
        return

    def neighbours(rel):
        ins, outs = defaultdict(set), defaultdict(set)
        for a, b in rel:
            outs[a].add(b)
            ins[b].add(a)
        return ins, outs

    (in1, out1), (in2, out2) = neighbours(rel1), neighbours(rel2)

    def signatures(elems, ins, outs):
        return {e: (len(ins[e]), len(outs[e]), e in outs[e]) for e in elems}

    sig1, sig2 = signatures(elems1, in1, out1), signatures(elems2, in2, out2)
    if sorted(sig1.values()) != sorted(sig2.values()):
        return

    assignment = {}
    used = set()

    def ok(a, b):
        if sig1[a] != sig2[b]:
            return False
        ia, oa, ib, ob = in1[a], out1[a], in2[b], out2[b]
        for c, d in assignment.items():
            if (c in oa) != (d in ob) or (c in ia) != (d in ib):
                return False
        return True

    def search(i):
        if i == len(elems1):
            yield dict(assignment)
            return
        a = elems1[i]
        for b in elems2:
            if b not in used and ok(a, b):
                assignment[a] = b
                used.add(b)
                yield from search(i + 1)
                del assignment[a]
                used.discard(b)

    yield from search(0)


def relation_iso(elems1, rel1, elems2, rel2):
    """The first bijection ``_relation_isos`` finds, or None; on equal pairs
    of distinct elements that is the identity, returned with no search."""
    ordered = sorted(elems1)
    if ordered == sorted(elems2) and rel1 == rel2 and len(set(ordered)) == len(ordered):
        return {e: e for e in ordered}
    return next(_relation_isos(elems1, rel1, elems2, rel2), None)


def poset_iso(p1: LabelledPoset, p2: LabelledPoset):
    rel1 = {(q, p) for p in p1.elements for q in p1.strict[p]}
    rel2 = {(q, p) for p in p2.elements for q in p2.strict[p]}
    return relation_iso(p1.elements, rel1, p2.elements, rel2)


# ---------------------------------------------------------------------------
# the catalogue: orderly generation
#
# A strict order on the indices 0..n-1 that is natural (i < j whenever i is
# below j) is stored as a relation mask: bit k stands for the k-th pair of
# [(i, j) for i < j] in row-major order, so the pairs (i, *) of a higher
# row i sit above those of every lower row.  ``above[x]`` is the bitmask of
# the indices strictly above x.  Each isomorphism class is represented by
# its least relation mask over all natural labellings.


def _natural_relation(n, mask):
    """The set of index pairs (i, j), i < j, whose bits are set in mask.

    The catalogue's cover labels follow this set's iteration order, which
    int-tuple hashing fixes given the order of insertion, so the expression
    must build it pair by pair in bit order.
    """
    pairs = [(i, j) for i in range(n) for j in range(n) if i < j]
    return {pairs[k] for k in range(len(pairs)) if mask >> k & 1}


def _above_masks(n, rel):
    above = [0] * n
    for i, j in rel:
        above[i] |= 1 << j
    return above


def _canonical_mask(n, above):
    """The least relation mask of the poset over its natural labellings.

    The poset lives on 0..n-1 under any labelling.  Labels are handed out
    from n-1 down; the element labelled i must be maximal among those left,
    and its row (the labels above it) fills the mask bits of row i, which
    outweigh every row below.  So the least mask takes, label by label, the
    least row any surviving partial labelling can offer, and keeps every
    partial labelling that offers it.  Partial labellings that agree on the
    labelled set and on the labels above each unlabelled element have the
    same futures, and are kept once.
    """
    below = [[x for x in range(n) if above[x] >> y & 1] for y in range(n)]
    states = {(0, (0,) * n)}  # (labelled set, labels above each element)
    mask = 0
    for label in range(n - 1, -1, -1):
        best, survivors = None, set()
        for done, rows in states:
            for y in range(n):
                if done >> y & 1 or above[y] & ~done:
                    continue
                row = rows[y]
                if best is None or row < best:
                    best, survivors = row, set()
                if row == best:
                    new = list(rows)
                    new[y] = 0
                    for x in below[y]:
                        new[x] |= 1 << label
                    survivors.add((done | 1 << y, tuple(new)))
        states = survivors
        # row ``label`` starts at bit label * (2n - label - 1) / 2 and
        # holds the pairs (label, j) for j = label + 1 .. n - 1
        mask |= best >> (label + 1) << (label * (2 * n - label - 1) // 2)
    return mask


def _order_masks(max_n):
    """``levels[n]``, n = 0..max_n: the canonical relation masks of the
    posets on n points, ascending.

    Removing a maximal element leaves a poset on n-1 points and a down-set
    below it, so each n-point class arises from a canonical (n-1)-point
    representative by adding one new maximal element above one down-set.
    """
    levels = [[0]]
    for n in range(1, max_n + 1):
        found = set()
        for mask in levels[-1]:
            above = _above_masks(n - 1, _natural_relation(n - 1, mask))
            below = [sum(1 << x for x in range(n - 1) if above[x] >> y & 1) for y in range(n - 1)]
            top = 1 << (n - 1)
            for down in range(top):
                if any(down >> y & 1 and below[y] & ~down for y in range(n - 1)):
                    continue
                grown = [a | top if down >> x & 1 else a for x, a in enumerate(above)]
                found.add(_canonical_mask(n, grown + [0]))
        levels.append(sorted(found))
    return levels


def _automorphisms(n, rel):
    """Every automorphism of the strict order rel on 0..n-1, as a tuple of
    images."""
    return [tuple(f[x] for x in range(n)) for f in _relation_isos(range(n), rel, range(n), rel)]


def enumerate_posets(n: int) -> list[LabelledPoset]:
    """All posets on n elements up to isomorphism (elements x0..x{n-1}).

    Each class comes out once, as its representative with the least
    relation mask over all natural labellings: bit k of the mask is set
    when x{i} < x{j} for the k-th index pair i < j in row-major order.
    The posets are in ascending mask order.  The relation handed to
    ``make_poset`` is the set of the mask's index pairs, so the covers of
    each element are labelled in that set's iteration order.  This is the
    output of the old search over every relation and all n! relabellings,
    which the tests keep as an oracle; the classes are now grown one point
    at a time (see ``_order_masks``).
    """
    ids = [f"x{i}" for i in range(n)]
    return [
        make_poset(ids, [(ids[a], ids[b]) for a, b in _natural_relation(n, mask)])
        for mask in _order_masks(n)[n]
    ]


# ---------------------------------------------------------------------------
# DOT export


def to_dot(obj, name="G") -> str:
    """DOT digraph for a LabelledPoset (Hasse diagram) or a Quiver; ids and
    arrow names are quoted with ``\\`` and ``"`` escaped."""

    def quote(text):
        return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"digraph {name} {{"]
    if isinstance(obj, LabelledPoset):
        for p in obj.elements:
            lines.append(f"  {quote(p)};")
        for p in obj.elements:
            for i, q in enumerate(lower_covers(obj, p), start=1):
                lines.append(f'  {quote(p)} -> {quote(q)} [label="{i}"];')
    elif isinstance(obj, Quiver):
        for v in obj.vertices:
            lines.append(f"  {quote(v)};")
        for aname, s, r in obj.arrows:
            lines.append(f"  {quote(s)} -> {quote(r)} [label={quote(aname)}];")
    else:
        raise PosetError(f"cannot export {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def fig2_poset() -> LabelledPoset:
    """The three-element poset a < p > b with n_p = 2, labels [a, b]."""
    return make_poset(["p", "a", "b"], [("a", "p"), ("b", "p")], {"p": ("a", "b")})
