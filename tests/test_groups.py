from fractions import Fraction

import numpy as np
import pytest

from bunzeta.cli import build_groups
from bunzeta.groups import (
    GroupSpec,
    builtin_group,
    mass_ratio,
)


def group_order(spec, q, r=1):
    """|G(F_(q^r))| = Q^dim * prod_j (1 - Q^(-d_j)) with Q = q^r, exact:
    the mass ratio scaled back to a count, which must be a positive
    integer for a well-formed spec."""
    Q = q ** r
    val = mass_ratio(spec, q, r) * Q ** spec.dim
    if val.denominator != 1 or val <= 0:
        raise ValueError(
            f"{spec.name}: order {val} at q^r = {Q} is not a positive integer; "
            "malformed GroupSpec")
    return val.numerator


def brute_force_gl_order(n, p):
    """Oracle: enumerate all n x n matrices over F_p, count the invertible."""
    mats = _all_matrices(n, p)
    dets = np.round(np.linalg.det(mats)).astype(np.int64) % p
    return int(np.count_nonzero(dets))


def brute_force_sl_order(n, p):
    mats = _all_matrices(n, p)
    dets = np.round(np.linalg.det(mats)).astype(np.int64) % p
    return int(np.count_nonzero(dets == 1))


def brute_force_sp4_order(p):
    """Oracle: 4 x 4 matrices preserving the standard symplectic form."""
    mats = _all_matrices(4, p)
    J = np.zeros((4, 4), dtype=np.int64)
    J[0, 2] = J[1, 3] = 1
    J[2, 0] = J[3, 1] = -1
    prods = np.einsum("nji,jk,nkl->nil", mats, J % p, mats) % p
    keep = (prods == (J % p)).all(axis=(1, 2))
    return int(np.count_nonzero(keep))


def _all_matrices(n, p):
    count = p ** (n * n)
    idx = np.arange(count)
    digits = np.empty((count, n * n), dtype=np.int64)
    for k in range(n * n):
        digits[:, k] = idx % p
        idx //= p
    return digits.reshape(count, n, n)


# ---------------------------------------------------------------------------
# builtin degree tables
# ---------------------------------------------------------------------------


def test_builtin_tables_pinned():
    gl2 = builtin_group("GL", 2)
    assert (gl2.dim, gl2.degrees) == (4, (1, 2))
    gm = builtin_group("Gm", 1)
    assert (gm.dim, gm.degrees) == (1, (1,))
    sp4 = builtin_group("Sp", 2)
    assert (sp4.dim, sp4.degrees) == (10, (2, 4))
    sl3 = builtin_group("SL", 3)
    assert (sl3.dim, sl3.degrees) == (8, (2, 3))
    so5 = builtin_group("SO-odd", 2)
    assert (so5.dim, so5.degrees) == (10, (2, 4))
    so6 = builtin_group("SO-even", 3)
    assert (so6.dim, so6.degrees) == (15, (2, 3, 4))
    gl5 = builtin_group("GL", 5)
    assert (gl5.dim, gl5.degrees) == (25, (1, 2, 3, 4, 5))


def test_builtin_rejects_bad_parameters():
    with pytest.raises(ValueError):
        builtin_group("Gm", 2)
    with pytest.raises(ValueError):
        builtin_group("SL", 1)
    with pytest.raises(ValueError):
        builtin_group("SO-even", 1)
    with pytest.raises(ValueError):
        builtin_group("E8", 8)


# ---------------------------------------------------------------------------
# orders vs brute force
# ---------------------------------------------------------------------------


def test_gm_order():
    gm = builtin_group("Gm", 1)
    for q in (2, 3, 4, 9):
        assert group_order(gm, q) == q - 1


def test_group_orders_vs_matrix_enumeration():
    assert group_order(builtin_group("GL", 2), 2) == brute_force_gl_order(2, 2) == 6
    assert group_order(builtin_group("GL", 2), 3) == brute_force_gl_order(2, 3) == 48
    assert group_order(builtin_group("GL", 3), 2) == brute_force_gl_order(3, 2) == 168
    assert group_order(builtin_group("SL", 2), 3) == brute_force_sl_order(2, 3) == 24
    assert group_order(builtin_group("Sp", 2), 2) == brute_force_sp4_order(2) == 720


def test_gl_order_product_identity():
    for n in (1, 2, 3, 4):
        for q in (2, 3, 5):
            expected = 1
            for i in range(n):
                expected *= q ** n - q ** i
            assert group_order(builtin_group("GL", n), q) == expected


def test_group_order_over_extensions():
    # |GL_2(F_4)| through r = 2 equals the order over the field of 4 elements
    gl2 = builtin_group("GL", 2)
    assert group_order(gl2, 2, r=2) == (16 - 1) * (16 - 4)
    assert group_order(gl2, 4, r=1) == group_order(gl2, 2, r=2)


def test_order_positive_integer_across_samples():
    for family, n in [("GL", 3), ("SL", 3), ("Sp", 2), ("SO-odd", 2),
                      ("SO-even", 2)]:
        spec = builtin_group(family, n)
        for q in (2, 3, 4, 5, 9):
            for r in (1, 2):
                assert group_order(spec, q, r) > 0


def test_malformed_spec_noninteger_order():
    bad = GroupSpec("bad", dim=2, degrees=(2, 2))
    with pytest.raises(ValueError):
        group_order(bad, 2)


# ---------------------------------------------------------------------------
# mass ratio
# ---------------------------------------------------------------------------


def test_mass_ratio_pinned():
    assert mass_ratio(builtin_group("Gm", 1), 4) == Fraction(3, 4)
    gl2 = builtin_group("GL", 2)
    assert mass_ratio(gl2, 2) == Fraction(3, 8)
    assert mass_ratio(gl2, 2) == Fraction(group_order(gl2, 2), 2 ** 4)


def test_mass_ratio_monotone_in_r():
    for family, n in [("GL", 2), ("GL", 3), ("Sp", 2)]:
        spec = builtin_group(family, n)
        for q in (2, 3, 4):
            values = [mass_ratio(spec, q, r) for r in range(1, 6)]
            assert all(Fraction(0) < v < 1 for v in values)
            assert all(a < b for a, b in zip(values, values[1:]))


def test_mass_ratio_matches_order():
    for family, n in [("GL", 2), ("SL", 2), ("Sp", 2)]:
        spec = builtin_group(family, n)
        for q in (2, 3):
            for r in (1, 2):
                assert mass_ratio(spec, q, r) == \
                    Fraction(group_order(spec, q, r), q ** (r * spec.dim))


def mass_ratio_oracle(spec, q, r=1):
    """prod_j (1 - q^(-r d_j)) as a running Fraction product."""
    val = Fraction(1)
    for d in spec.degrees:
        val *= 1 - Fraction(1, (q ** r) ** d)
    return val


def test_mass_ratio_matches_fraction_oracle():
    specs = [builtin_group(family, n) for family, n in
             [("Gm", 1), ("GL", 1), ("GL", 4), ("SL", 3), ("Sp", 3),
              ("SO-odd", 2), ("SO-even", 3), ("SO-even", 4)]]
    specs.append(GroupSpec("G2", 14, (2, 6), Fraction(3, 7)))
    for spec in specs:
        for q in (2, 3, 4, 5, 7, 9):
            for r in (1, 2, 3):
                assert mass_ratio(spec, q, r) == \
                    mass_ratio_oracle(spec, q, r), (spec.name, q, r)


# ---------------------------------------------------------------------------
# config ingestion
# ---------------------------------------------------------------------------


def test_build_groups_family():
    [spec] = build_groups({"groups": [{"family": "GL", "n": 2}]})
    assert spec == builtin_group("GL", 2)


def test_build_groups_raw_g2():
    [g2] = build_groups({"groups": [
        {"name": "G2", "dim": 14, "degrees": [2, 6], "tamagawa": "1"}]})
    # |G_2(F_2)| = 2^14 (1 - 2^-2)(1 - 2^-6) = 12096
    assert group_order(g2, 2) == 12096
    assert g2.tamagawa == 1


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("neg", dim=0, degrees=(1,))
    with pytest.raises(ValueError):
        GroupSpec("degzero", dim=4, degrees=(0, 1))
    with pytest.raises(ValueError):
        GroupSpec("overrank", dim=1, degrees=(1, 1))
    with pytest.raises(ValueError):
        GroupSpec("tau", dim=1, degrees=(1,), tamagawa=Fraction(-1))
