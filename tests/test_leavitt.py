import itertools
import random

import pytest

from posetalg.poset import fig2_poset, lower_covers, make_poset
from posetalg.ratfunc import Poly, t_poly
from posetalg.leavitt import (
    AlgElement,
    AlgebraError,
    TermKey,
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
