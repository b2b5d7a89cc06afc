import hashlib
import itertools
import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetalg.poset import LowerSet, enumerate_posets, fig2_poset, lower_covers, make_poset
from posetalg import leavitt as leavitt_module
from posetalg.ratfunc import Poly, t_poly
from posetalg.leavitt import (
    AlgElement,
    AlgebraError,
    TermKey,
    _lemma26_exhaustive,
    format_element,
    generator,
    grade,
    in_ideal,
    injectivity_probe,
    involute,
    one,
    parse_element,
    project_mod_ideal,
    scalar_element,
    sigma_j_index,
)

FIG2 = fig2_poset()


def chain(n):
    ids = [f"c{i}" for i in range(n + 1)]
    return make_poset(ids, [(ids[i], ids[i + 1]) for i in range(n)])


def diamond():
    return make_poset(
        ["b", "q1", "q2", "p"], [("b", "q1"), ("b", "q2"), ("q1", "p"), ("q2", "p")]
    )


def claw():
    # one vertex over three covers, labelled out of name order
    return make_poset(
        ["a", "b", "c", "p"], [("a", "p"), ("b", "p"), ("c", "p")], {"p": ("c", "a", "b")}
    )


# posets with paths of two and three steps, and vertices with several covers
DEEP = [chain(2), chain(3), diamond(), claw()]
DEEP_IDS = ["chain2", "chain3", "diamond", "claw"]


def g(kind, *args, poset=FIG2):
    return generator(poset, kind, *args)


def random_element(poset, rng, maxlen=3):
    gens = [("e", p) for p in poset.elements]
    for p in poset.elements:
        for q in lower_covers(poset, p):
            gens += [(k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    gens += [("t", 1), ("t", 2)]
    x = one(poset)
    for _ in range(rng.randint(1, maxlen)):
        x = x * generator(poset, *rng.choice(gens))
    return x


# -- twist index -----------------------------------------------------------------


def test_sigma_j_index():
    # two covers: everything lands on index 1
    assert sigma_j_index(2, 1, 2) == 1
    assert sigma_j_index(2, 2, 1) == 1
    # three covers
    assert sigma_j_index(3, 1, 2) == 1
    assert sigma_j_index(3, 1, 3) == 2
    assert sigma_j_index(3, 2, 1) == 1
    assert sigma_j_index(3, 2, 3) == 2
    assert sigma_j_index(3, 3, 1) == 1
    assert sigma_j_index(3, 3, 2) == 2
    with pytest.raises(AlgebraError):
        sigma_j_index(1, 1, 1)


# -- generators -------------------------------------------------------------------


def test_generator_shapes():
    ep = g("e", "p")
    assert list(ep.terms) == [TermKey((), "p", (), ())]
    epq = g("epq", "p", "a")
    key = list(epq.terms)[0]
    assert key.left == (("p", "a", 0),) and key.right == (("p", "a", 0),)
    al = g("alpha", "p", "a")
    assert list(al.terms)[0].powers == (("a", 1),)
    assert list(g("alphabar", "p", "a").terms)[0].powers == (("a", -1),)
    with pytest.raises(AlgebraError):
        g("beta", "a", "p")
    with pytest.raises(AlgebraError):
        g("nope", "p")


@pytest.mark.parametrize("i", [0, -1, True, 1.0, "1"])
def test_t_index_is_a_positive_int(i):
    # the twist t_i -> t_{i+n_p-1} would move t_0 onto a slot's t
    with pytest.raises(AlgebraError, match="is not a positive int"):
        g("t", i)


def test_parse_rejects_t0():
    for text in ("t0", "t00 * e[p]", "t0^-1"):
        with pytest.raises(AlgebraError, match="scalar index 0 is not a positive int"):
            parse_element(FIG2, text)


@pytest.mark.parametrize(
    "kind, args, msg",
    [
        ("alpha", ("p",), "malformed generator"),
        ("e", ("p", "a"), "malformed generator"),
        ("t", (), "malformed generator"),
        ("alpha", ("p", "a", "x"), "malformed generator"),
        ("gamma", ("p", "a"), "unknown generator"),
        (["alpha"], ("p", "a"), "unknown generator"),
    ],
)
def test_malformed_generators_are_typed_errors(kind, args, msg):
    with pytest.raises(AlgebraError, match=msg):
        generator(FIG2, kind, *args)


def all_generators(poset):
    """Every generator kind of the poset: e and eprime at each vertex, the
    five cover kinds at each cover, one t and one scalar."""
    gens = [generator(poset, "t", 2), generator(poset, "scalar", 3)]
    for p in poset.elements:
        gens += [generator(poset, "e", p), generator(poset, "eprime", p)]
        for q in lower_covers(poset, p):
            gens += [generator(poset, k, p, q) for k in ("epq", "alpha", "alphabar", "beta", "betabar")]
    return gens


@pytest.mark.hashseed
def test_generators_and_their_products_digest():
    # pins the rewriting engine's output on every generator and pairwise product
    h = hashlib.sha256()
    for poset in [FIG2, diamond(), claw()]:
        gens = all_generators(poset)
        for x in gens:
            h.update(repr(x).encode())
        for x, y in itertools.product(gens, repeat=2):
            h.update(repr(x * y).encode())
    assert h.hexdigest() == "7c9a303246f54026405a509386d8fdfaae427571d4797456bdd1619f4d0d91aa"


def test_eprime_expansion():
    assert g("eprime", "p") == g("e", "p") - g("epq", "p", "a") - g("epq", "p", "b")
    # no covers: eprime = e
    assert g("eprime", "a") == g("e", "a")


def test_unit_decomposition():
    assert g("e", "p") + g("e", "a") + g("e", "b") == one(FIG2)


# -- multiplication: the defining relations ---------------------------------------


def test_pair_inverses():
    assert g("alphabar", "p", "a") * g("alpha", "p", "a") == g("e", "p")
    assert g("alpha", "p", "a") * g("alphabar", "p", "a") == g("e", "p") - g("epq", "p", "a")
    assert g("betabar", "p", "a") * g("beta", "p", "a") == g("e", "a")
    assert g("beta", "p", "a") * g("betabar", "p", "a") == g("epq", "p", "a")


def test_same_cover_kills():
    assert (g("alphabar", "p", "a") * g("beta", "p", "a")).is_zero()
    assert (g("betabar", "p", "a") * g("alpha", "p", "a")).is_zero()


def test_scalar_twist_through_steps():
    # lambda beta = beta sigma(lambda)
    assert g("t", 2) * g("beta", "p", "a") == g("beta", "p", "a") * g("t", 3)
    # betabar lambda = sigma(lambda) betabar
    assert g("betabar", "p", "a") * g("t", 1) == g("t", 2) * g("betabar", "p", "a")


def test_cross_cover_twists():
    assert g("alpha", "p", "b") * g("beta", "p", "a") == g("beta", "p", "a") * g("t", 1)
    assert g("betabar", "p", "a") * g("alpha", "p", "b") == g("t", 1) * g("betabar", "p", "a")
    lhs = parse_element(FIG2, "t1^-1 * B[p,a]")
    assert lhs == g("betabar", "p", "a") * g("alphabar", "p", "b")


def test_idempotent_orthogonality():
    assert (g("epq", "p", "a") * g("epq", "p", "b")).is_zero()
    assert g("epq", "p", "a") * g("epq", "p", "a") == g("epq", "p", "a")
    assert (g("e", "a") * g("e", "b")).is_zero()


def test_operands_must_share_poset():
    other = make_poset(["q", "p"], [("q", "p")])
    with pytest.raises(AlgebraError):
        g("e", "p") * generator(other, "e", "p")


def test_associativity_surrogate():
    rng = random.Random(11)
    for _ in range(500):
        x, y, z = (random_element(FIG2, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)


def test_mixed_power_expansion_terminates_consistently():
    # alpha^2 alphabar^2 expanded two ways must agree with associativity
    al, ab = g("alpha", "p", "a"), g("alphabar", "p", "a")
    lhs = (al * al) * (ab * ab)
    rhs = al * ((al * ab) * ab)
    assert lhs == rhs
    # and act like e(p) after enough alpha on the right
    assert lhs * (al * al) == al * al


# -- involution -------------------------------------------------------------------


def test_involution_action():
    assert involute(g("alpha", "p", "a")) == g("alphabar", "p", "a")
    assert involute(g("e", "p")) == g("e", "p")
    assert involute(g("t", 1) * g("beta", "p", "a")) == g("betabar", "p", "a") * parse_element(
        FIG2, "t1^-1"
    )


def test_involution_properties():
    rng = random.Random(5)
    for _ in range(60):
        x, y = random_element(FIG2, rng), random_element(FIG2, rng)
        assert involute(involute(x)) == x
        assert involute(x * y) == involute(y) * involute(x)
        assert involute(x + y) == involute(x) + involute(y)


def test_involution_reverses_the_steps_of_a_long_path():
    c2 = chain(2)
    down = g("beta", "c2", "c1", poset=c2) * g("beta", "c1", "c0", poset=c2)
    up = g("betabar", "c1", "c0", poset=c2) * g("betabar", "c2", "c1", poset=c2)
    assert involute(down) == up
    assert involute(up) == down


@st.composite
def path_terms(draw, poset):
    """A nonzero term built from generators: a descent from a drawn top
    with alpha powers, a t power, a monomial at the bottom vertex, and an
    ascent with alphabar powers."""

    def gen(*args):
        return generator(poset, *args)

    def walk(start, step):
        path = [start]
        while (nexts := step(path[-1])) and draw(st.booleans()):
            path.append(draw(st.sampled_from(nexts)))
        return path

    down = walk(draw(st.sampled_from(poset.elements)), lambda p: lower_covers(poset, p))
    bottom = down[-1]
    up = walk(bottom, lambda q: [u for u in poset.elements if q in lower_covers(poset, u)])
    x = gen("e", down[0])
    for u, v in zip(down, down[1:]):
        for _ in range(draw(st.integers(0, 2))):
            x = x * gen("alpha", u, v)
        x = x * gen("beta", u, v)
    if draw(st.booleans()):
        x = x * gen("t", draw(st.integers(1, 3)))
    for q in lower_covers(poset, bottom):
        e = draw(st.integers(-2, 2))
        for _ in range(abs(e)):
            x = x * gen("alpha" if e > 0 else "alphabar", bottom, q)
    for v, u in zip(up, up[1:]):
        x = x * gen("betabar", u, v)
        for _ in range(draw(st.integers(0, 2))):
            x = x * gen("alphabar", u, v)
    return x


@st.composite
def elements(draw, poset):
    """A sum of one to three path terms with small nonzero integer
    coefficients."""
    x = AlgElement(poset)
    for term in draw(st.lists(path_terms(poset), min_size=1, max_size=3)):
        x = x + term.scale(draw(st.sampled_from((1, -1, 2, -2))))
    return x


@pytest.mark.parametrize("poset", DEEP, ids=DEEP_IDS)
def test_involution_is_an_anti_automorphism_beyond_height_one(poset):
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(elements(poset), elements(poset))
    def check(x, y):
        assert involute(x * y) == involute(y) * involute(x)
        assert involute(involute(x)) == x
        assert involute(x + y) == involute(x) + involute(y)

    check()


@pytest.mark.parametrize("poset", DEEP, ids=DEEP_IDS)
def test_involution_swaps_the_path_pairs_of_the_grading(poset):
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(elements(poset))
    def check(x):
        mirrored = grade(involute(x))
        assert set(mirrored) == {(g2, g1) for g1, g2 in grade(x)}
        for (g1, g2), comp in grade(x).items():
            assert mirrored[(g2, g1)] == involute(comp)

    check()


@pytest.mark.parametrize("poset", DEEP, ids=DEEP_IDS)
def test_probe_isolates_a_trivial_pair_beyond_height_one(poset):
    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(elements(poset))
    def check(x):
        if x.is_zero():
            return
        p, z1, z2, res = injectivity_probe(x)
        assert z1 * x * z2 == res
        corner = generator(poset, "e", p) * res * generator(poset, "e", p)
        assert any(not k.left and not k.right and k.mid == p for k in corner.terms)

    check()


# -- grading -----------------------------------------------------------------------


def test_grade_examples():
    assert list(grade(g("e", "p"))) == [(("p",), ("p",))]
    assert list(grade(g("beta", "p", "a"))) == [(("p", "a"), ("a",))]
    comps = grade(g("alpha", "p", "a") + g("beta", "p", "a"))
    assert len(comps) == 2


def test_grade_components_sum_back():
    rng = random.Random(3)
    for _ in range(40):
        x = random_element(FIG2, rng) + random_element(FIG2, rng)
        total = AlgElement(FIG2)
        for comp in grade(x).values():
            total = total + comp
        assert total == x


def test_grade_multiplicative_compatibility():
    rng = random.Random(9)
    for _ in range(40):
        x, y = random_element(FIG2, rng), random_element(FIG2, rng)
        gx, gy = grade(x), grade(y)
        for (g1, g2), cx in gx.items():
            for (d1, d2), cy in gy.items():
                prod = cx * cy
                for (h1, h2) in grade(prod):
                    # the left path of a product term extends or prunes g1,
                    # and symmetrically for the right path
                    assert h1[0] == g1[0] and h2[0] == d2[0]


# -- ideals ------------------------------------------------------------------------


def test_in_ideal():
    assert in_ideal(g("e", "a"), {"a"})
    assert not in_ideal(g("e", "p"), {"a"})
    assert in_ideal(AlgElement(FIG2), {"a"})
    assert in_ideal(g("beta", "p", "a"), {"a"})


def test_project_mod_ideal():
    x = g("e", "p") + g("e", "a")
    assert project_mod_ideal(x, {"a"}) == g("e", "p")
    assert project_mod_ideal(x, set()) == x
    assert project_mod_ideal(g("beta", "p", "a"), {"a"}).is_zero()
    assert project_mod_ideal(g("epq", "p", "a"), {"a"}).is_zero()


def test_ideal_functions_reject_a_bare_string():
    poset = make_poset(["a1", "b1", "p1"], [("a1", "p1"), ("b1", "p1")])
    x = generator(poset, "e", "a1")
    for f in (in_ideal, project_mod_ideal):
        with pytest.raises(AlgebraError, match="lower set 'a1' is a bare string"):
            f(x, "a1")
    assert in_ideal(x, {"a1"}) and in_ideal(x, LowerSet(poset, {"a1"}))
    assert project_mod_ideal(x, {"a1"}).is_zero() and project_mod_ideal(x, LowerSet(poset, {"a1"})).is_zero()


def test_ideal_functions_take_only_lower_sets_of_the_poset():
    # a LowerSet of another poset, an id that is no element and a set that
    # is not down-closed each raise; a lower set of the poset is accepted
    chain = make_poset(["a", "b"], [("a", "b")])
    e_a, e_p = g("e", "a"), g("e", "p")
    bad = [
        (e_a, LowerSet(chain, {"a"}), "another poset"),
        (e_a, {"a", "nosuch"}, "nosuch"),
        (e_p, {"p"}, "not downward closed"),
        (e_a, 5, None),
    ]
    for f in (in_ideal, project_mod_ideal):
        for x, lower, message in bad:
            with pytest.raises(AlgebraError, match=message):
                f(x, lower)
    for lower in ({"a"}, frozenset({"a"}), ["a"], LowerSet(FIG2, {"a"}), LowerSet(fig2_poset(), {"a"})):
        assert in_ideal(e_a, lower) and not in_ideal(e_p, lower)
        assert project_mod_ideal(e_a + e_p, lower) == e_p


def test_project_is_ring_hom_on_samples():
    rng = random.Random(13)
    for lower in ({"a"}, {"b"}, {"a", "b"}):
        for _ in range(30):
            x, y = random_element(FIG2, rng), random_element(FIG2, rng)
            assert project_mod_ideal(x + y, lower) == project_mod_ideal(
                x, lower
            ) + project_mod_ideal(y, lower)
            assert project_mod_ideal(x * y, lower) == project_mod_ideal(
                x, lower
            ) * project_mod_ideal(y, lower)


# -- injectivity probe --------------------------------------------------------------


def test_probe_beta():
    p, z1, z2, res = injectivity_probe(g("beta", "p", "a"))
    assert p == "a"
    assert not res.is_zero()


def test_probe_trivial():
    p, z1, z2, res = injectivity_probe(g("e", "p"))
    assert p == "p" and z1 == one(FIG2) and z2 == one(FIG2)


def test_probe_mixed():
    x = g("alpha", "p", "a") + g("beta", "p", "a")
    p, z1, z2, res = injectivity_probe(x)
    assert p == "p"
    assert any(k.mid == "p" and not k.left and not k.right for k in res.terms)


def test_probe_random_nonzero():
    rng = random.Random(21)
    for _ in range(50):
        x = random_element(FIG2, rng)
        if x.is_zero():
            continue
        p, z1, z2, res = injectivity_probe(x)
        assert z1 * x * z2 == res
        corner = g("e", p) * res * g("e", p)
        assert any(
            k.left == () and k.right == () and k.mid == p for k in corner.terms
        )


def test_probe_rejects_zero():
    with pytest.raises(AlgebraError):
        injectivity_probe(AlgElement(FIG2))


# -- lemma 2.6-style sandwich identities ---------------------------------------------


def test_betabar_monomial_beta_sandwich():
    covers = lower_covers(FIG2, "p")
    for exps in itertools.product(range(-2, 3), repeat=2):
        m = one(FIG2)
        for q, e in zip(covers, exps):
            kind = "alpha" if e > 0 else "alphabar"
            for _ in range(abs(e)):
                m = m * g(kind, "p", q)
        for q1, q2 in itertools.product(covers, repeat=2):
            res = g("betabar", "p", q1) * m * g("beta", "p", q2)
            if q1 != q2:
                assert res.is_zero()
            else:
                for key in res.terms:
                    assert key == TermKey((), q1, (), ())


# -- syntax ------------------------------------------------------------------------


def test_parse_examples():
    assert parse_element(FIG2, "a[p,a]") == g("alpha", "p", "a")
    assert parse_element(FIG2, "A[p,a]") == g("alphabar", "p", "a")
    assert parse_element(FIG2, "e[p,a]") == g("epq", "p", "a")
    assert parse_element(FIG2, "t3") == g("t", 3)
    assert parse_element(FIG2, "t3^-1 * t3") == one(FIG2)
    assert parse_element(FIG2, "1/2 * e[p] + 1/2 * e[p]") == g("e", "p")
    assert parse_element(FIG2, "b[p,a] * B[p,a]") == g("epq", "p", "a")
    assert parse_element(FIG2, "a[p,a]^2") == g("alpha", "p", "a") * g("alpha", "p", "a")
    assert parse_element(FIG2, "e[p] - e[p]").is_zero()
    assert parse_element(FIG2, "(e[p] + e[a]) * e[a]") == g("e", "a")


def test_parse_binary_minus_before_a_number():
    # numbers are unsigned tokens, so "-" between operands is subtraction
    assert parse_element(FIG2, "t1-1") == parse_element(FIG2, "t1 - 1") == g("t", 1) - one(FIG2)
    assert parse_element(FIG2, "2-1") == parse_element(FIG2, "2 - 1") == one(FIG2)
    assert parse_element(FIG2, "a[p,a]-2") == parse_element(FIG2, "a[p,a] - 2")
    assert parse_element(FIG2, "t1^-1-t1") == parse_element(FIG2, "t1^-1 - t1")
    for text in ("t1^t2", "t1^1/2", "t1^"):
        with pytest.raises(AlgebraError, match="integer exponent"):
            parse_element(FIG2, text)


def test_parse_power_of_a_large_exponent():
    # repeated squaring takes about log2(n) products, not n
    def too_slow(signum, frame):
        raise TimeoutError("t1^100000 took over a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(1)
    try:
        x = parse_element(FIG2, "t1^100000")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert x == scalar_element(FIG2, t_poly(1, 100000))


def test_parse_power_matches_the_repeated_product():
    base_text = "(a[p,a] + t1 * e[p] - 2 * B[p,a] + e[p,b])"
    base = parse_element(FIG2, base_text)
    for n in range(7):
        acc = one(FIG2)
        for _ in range(n):
            acc = acc * base
        assert parse_element(FIG2, f"{base_text}^{n}") == acc, n
    assert parse_element(FIG2, "t2^-5") == scalar_element(FIG2, t_poly(2, -5))


def test_parse_errors():
    with pytest.raises(AlgebraError):
        parse_element(FIG2, "q[p,a]")
    with pytest.raises(AlgebraError):
        parse_element(FIG2, "a[p,a] +")
    with pytest.raises(AlgebraError):
        parse_element(FIG2, "a[p,a]^-1")


def test_format_round_trip():
    rng = random.Random(17)
    for _ in range(40):
        x = random_element(FIG2, rng) - random_element(FIG2, rng)
        assert parse_element(FIG2, format_element(x)) == x


def graded_json(x):
    comps = []
    for (g1, g2), comp in sorted(grade(x).items()):
        comps.append(
            {
                "path_left": list(g1),
                "path_right": list(g2),
                "end": g1[-1],
                "component": format_element(comp),
            }
        )
    return {"poset": list(x.poset.elements), "components": comps}


def test_graded_json():
    blob = graded_json(g("alpha", "p", "a") + g("beta", "p", "a"))
    assert blob["poset"] == ["a", "b", "p"]
    ends = {c["end"] for c in blob["components"]}
    assert ends == {"p", "a"}


def lemma26_per_pair(poset):
    """Lemma 2.6's check as it was, with betabar * m formed again for every
    q2, kept as the oracle; it reads the module's ``generator`` when run."""
    generator = leavitt_module.generator
    for p in poset.elements:
        covers = lower_covers(poset, p)
        if not covers:
            continue
        for exps in itertools.product(range(-2, 3), repeat=len(covers)):
            m = one(poset)
            for q, e in zip(covers, exps):
                kind = "alpha" if e > 0 else "alphabar"
                for _ in range(abs(e)):
                    m = m * generator(poset, kind, p, q)
            for q in covers:
                for q2 in covers:
                    res = generator(poset, "betabar", p, q) * m * generator(poset, "beta", p, q2)
                    if q != q2:
                        if not res.is_zero():
                            return False
                    else:
                        for key in res.terms:
                            if key.left or key.right or key.powers or key.mid != q:
                                return False
    return True


def test_lemma26_matches_the_per_pair_loop(monkeypatch):
    star3 = make_poset(["t", "a", "b", "c"], [("a", "t"), ("b", "t"), ("c", "t")])
    posets = [p for n in range(5) for p in enumerate_posets(n)] + [star3]
    for poset in posets:
        assert _lemma26_exhaustive(poset) == lemma26_per_pair(poset) is True
    # with beta read as alpha the sandwiches fail, and both loops say so
    real = leavitt_module.generator
    monkeypatch.setattr(leavitt_module, "generator", lambda P, kind, *a: real(P, "alpha" if kind == "beta" else kind, *a))
    for poset in [FIG2, diamond(), star3]:
        assert _lemma26_exhaustive(poset) == lemma26_per_pair(poset) is False


def star(k):
    leaves = [f"q{i}" for i in range(k)]
    return make_poset(["p"] + leaves, [(q, "p") for q in leaves])


def test_lemma26_monomials_are_their_normal_form():
    # the powers sit on distinct covers, so the product of the alpha and
    # alphabar powers is the one term _lemma26_exhaustive builds directly
    for poset in [p for n in range(6) for p in enumerate_posets(n)]:
        for p in poset.elements:
            covers = lower_covers(poset, p)
            alphas = {q: (generator(poset, "alpha", p, q), generator(poset, "alphabar", p, q)) for q in covers}
            for exps in itertools.product(range(-2, 3), repeat=len(covers)):
                m = one(poset)
                for q, e in zip(covers, exps):
                    for _ in range(abs(e)):
                        m = m * alphas[q][e < 0]
                powers = tuple(sorted((q, e) for q, e in zip(covers, exps) if e))
                direct = AlgElement(poset, {TermKey((), p, powers, ()): 1})
                assert direct == (m if any(exps) else generator(poset, "e", p))


def test_lemma26_matches_the_per_pair_loop_on_four_covers(monkeypatch):
    star4 = star(4)
    assert _lemma26_exhaustive(star4) == lemma26_per_pair(star4) is True
    real = leavitt_module.generator
    monkeypatch.setattr(leavitt_module, "generator", lambda P, kind, *a: real(P, "alpha" if kind == "beta" else kind, *a))
    assert _lemma26_exhaustive(star4) == lemma26_per_pair(star4) is False
