from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bunzeta import mass
from bunzeta.groups import builtin_group, group_order
from bunzeta.mass import (
    MassValue,
    compositions,
    hn_ss_mass,
    mass_bun,
    mass_gl_component,
    zagier_ss_mass,
)
from bunzeta.zeta import class_number, quasi_residue, zeta_from_counts


def p1_rank2_split_bundle_mass(q):
    """Oracle: sum of 1/|Aut| over the degree-0 split rank-2 bundles on the
    projective line, O(a) + O(-a) for a >= 0.

    Aut(O + O) = GL_2(F_q); for a > 0 the automorphisms are the invertible
    upper-triangular matrices with Hom(O(-a), O(a)) = H^0(O(2a)) in the
    corner, so |Aut| = (q-1)^2 q^(2a+1).  The a-sum is a geometric series,
    summed exactly.
    """
    total = Fraction(1, (q ** 2 - 1) * (q ** 2 - q))
    first = Fraction(1, (q - 1) ** 2 * q ** 3)
    total += first / (1 - Fraction(1, q ** 2))
    return total


def p1_rank2_semistable_mass(q, d):
    """Oracle: the only semistable split bundles of rank 2 on the projective
    line are O(a) + O(a), so the degree-d semistable mass is 1/|GL_2(F_q)|
    for even d and 0 otherwise."""
    if d % 2 == 0:
        return Fraction(1, (q ** 2 - 1) * (q ** 2 - q))
    return Fraction(0)


def p1_sl2_split_bundle_mass(q):
    """Oracle: same bundles with trivialized determinant, O(a) + O(-a);
    Aut(O + O) = SL_2(F_q), and for a > 0 the determinant-1 condition cuts
    the diagonal torus to (q-1), so |Aut| = (q-1) q^(2a+1)."""
    total = Fraction(1, (q ** 2 - 1) * q)  # |SL_2| = q(q^2-1)
    first = Fraction(1, (q - 1) * q ** 3)
    total += first / (1 - Fraction(1, q ** 2))
    return total


def test_mass_bun_p1_oracles(zeta_catalog):
    zp2 = zeta_catalog["P1/F2"]
    assert mass_bun(builtin_group("Gm", 1), zp2).value == 1
    assert mass_bun(builtin_group("GL", 2), zp2).value == Fraction(1, 3)
    assert mass_bun(builtin_group("GL", 2), zp2).value == \
        p1_rank2_split_bundle_mass(2)
    assert mass_bun(builtin_group("SL", 2), zp2).value == \
        p1_sl2_split_bundle_mass(2) == Fraction(1, 3)
    zp3 = zeta_catalog["P1/F3"]
    assert mass_bun(builtin_group("GL", 2), zp3).value == \
        p1_rank2_split_bundle_mass(3)
    assert mass_bun(builtin_group("SL", 2), zp3).value == \
        p1_sl2_split_bundle_mass(3)


def test_gm_mass_is_pic0_weighted_count(zeta_catalog):
    # Pic^0 has h points, each with automorphism group F_q^*
    for key, z in zeta_catalog.items():
        expected = Fraction(class_number(z), z.q - 1)
        got = mass_bun(builtin_group("Gm", 1), z).value
        assert got == expected == quasi_residue(z) * Fraction(z.q) ** (z.g - 1)


def test_mass_gl_component_pinned(zeta_catalog):
    assert mass_gl_component(1, zeta_catalog["P1/F2"]).value == 1
    assert mass_gl_component(1, zeta_catalog["E1"]).value == 3
    assert mass_gl_component(2, zeta_catalog["P1/F2"]).value == Fraction(1, 3)


def test_mass_gl_component_matches_mass_bun(zeta_catalog):
    for z in zeta_catalog.values():
        for n in (1, 2, 3):
            assert mass_gl_component(n, z).value == \
                mass_bun(builtin_group("GL", n), z).value


def test_zagier_pinned(zeta_catalog):
    zp2 = zeta_catalog["P1/F2"]
    assert zagier_ss_mass(1, 5, zp2).value == mass_gl_component(1, zp2).value
    assert zagier_ss_mass(2, 0, zp2).value == Fraction(1, 6)
    assert zagier_ss_mass(2, 1, zp2).value == 0


def test_hn_pinned(zeta_catalog):
    zp2 = zeta_catalog["P1/F2"]
    assert hn_ss_mass(1, 3, zp2).value == mass_gl_component(1, zp2).value
    assert hn_ss_mass(2, 0, zp2).value == Fraction(1, 6)
    assert hn_ss_mass(2, 1, zp2).value == 0


def test_hn_stratum_structure_p1():
    # the rank-2 degree-0 strata on the projective line are
    # O(a) + O(-a) with mass q^-(2a+1): total - sum = 1/6 at q = 2
    q = 2
    strata = Fraction(1, q ** 3) / (1 - Fraction(1, q ** 2))
    assert Fraction(1, 3) - strata == Fraction(1, 6)


def test_semistable_matches_split_bundle_oracle(zeta_catalog):
    for key, q in (("P1/F2", 2), ("P1/F3", 3)):
        z = zeta_catalog[key]
        for d in (0, 1):
            assert zagier_ss_mass(2, d, z).value == p1_rank2_semistable_mass(q, d)


def test_zagier_equals_hn_exactly(zeta_catalog):
    for key, z in zeta_catalog.items():
        for n in range(1, 9 if key == "E1" else 8):
            total = mass_gl_component(n, z).value
            for d in range(n):
                a = zagier_ss_mass(n, d, z).value
                b = hn_ss_mass(n, d, z).value
                assert a == b, (z.q, z.g, n, d)
                assert 0 <= a <= total


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(st.sampled_from([2, 3, 4, 5]), st.integers(min_value=0, max_value=60),
       st.integers(min_value=0, max_value=400))
def test_zagier_equals_hn_on_random_curves(q, raw1, raw2):
    # draw counts inside the Weil window with the parity constraint
    # N_2 == N_1 (mod 2) built in; skip the remaining draws that are not
    # the counts of a genus-2 curve (positivity/Weil obstructions)
    w1 = int(2 * 2 * q ** 0.5)
    n1 = max(0, q + 1 - w1) + raw1 % (2 * w1 + 1)
    w2 = int(2 * 2 * q)
    n2 = max(0, q * q + 1 - w2) + raw2 % (2 * w2 + 1)
    n2 += (n1 + n2) % 2
    try:
        z = zeta_from_counts(q, 2, [n1, n2])
    except Exception:
        assume(False)
    for n in (2, 3, 4, 5):
        for d in range(n):
            assert zagier_ss_mass(n, d, z).value == hn_ss_mass(n, d, z).value


def test_periodicity_in_degree(zeta_catalog):
    for z in (zeta_catalog["P1/F2"], zeta_catalog["E1"]):
        for n in (2, 3):
            for d in range(n):
                assert zagier_ss_mass(n, d, z).value == \
                    zagier_ss_mass(n, d + n, z).value == \
                    zagier_ss_mass(n, d - n, z).value
                assert hn_ss_mass(n, d, z).value == \
                    hn_ss_mass(n, d + n, z).value


def test_coprime_type_on_elliptic_curves_counts_stable_bundles():
    """Independent oracle from the classical genus-1 classification: for
    gcd(n, d) = 1 every semistable bundle is stable with scalar
    automorphisms, and the stable moduli space is isomorphic to the curve,
    so M^ss(n, d) = h/(q - 1)."""
    for q, n1 in [(2, 3), (2, 4), (3, 4), (3, 7), (5, 8)]:
        z = zeta_from_counts(q, 1, [n1])
        h = class_number(z)
        for n, d in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]:
            assert hn_ss_mass(n, d, z).value == Fraction(h, q - 1), (q, n1, n, d)
            assert zagier_ss_mass(n, d, z).value == Fraction(h, q - 1)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_trivial_component_on_p1(zeta_catalog, n):
    # on the projective line only O(a)^n is semistable: mass 1/|GL_n(F_q)|
    # in degree 0 and 0 in degrees not divisible by n
    zp2 = zeta_catalog["P1/F2"]
    assert hn_ss_mass(n, 0, zp2).value == \
        Fraction(1, group_order(builtin_group("GL", n), 2))
    for d in range(1, n):
        assert hn_ss_mass(n, d, zp2).value == 0
        assert zagier_ss_mass(n, d, zp2).value == 0


def test_hn_rejects_mass_outside_total(zeta_catalog, monkeypatch):
    z = zeta_catalog["E1"]
    total = mass_gl_component(2, z).value
    monkeypatch.setattr(mass, "_hn_strata_sums",
                        lambda n, z: [2 * total] * n)
    mass._hn_masses.cache_clear()  # a failed call caches nothing
    with pytest.raises(ArithmeticError, match="outside"):
        hn_ss_mass(2, 0, z)


def test_tamagawa_scaling(zeta_catalog):
    z = zeta_catalog["E1"]
    doubled = builtin_group("Sp", 2, tamagawa=Fraction(2))
    single = builtin_group("Sp", 2)
    assert mass_bun(doubled, z).value == 2 * mass_bun(single, z).value


def test_compositions_enumeration():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(6))) == 32
    assert list(compositions(2, min_parts=2)) == [(1, 1)]


def test_mass_value_rejects_negative(zeta_catalog):
    with pytest.raises(ValueError):
        MassValue(Fraction(-1), ((1, 0), zeta_catalog["P1/F2"]))


def test_invalid_rank_rejected(zeta_catalog):
    with pytest.raises(ValueError):
        zagier_ss_mass(0, 0, zeta_catalog["P1/F2"])
    with pytest.raises(ValueError):
        hn_ss_mass(0, 0, zeta_catalog["P1/F2"])
    with pytest.raises(ValueError):
        mass_gl_component(0, zeta_catalog["P1/F2"])
