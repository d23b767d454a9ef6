import functools
import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from bunzeta import mass
from bunzeta.cli import build_curves
from bunzeta.groups import FAMILIES, builtin_group
from bunzeta.mass import (
    compositions,
    hn_ss_mass,
    mass_bun,
    mass_gl_component,
    semistable_mass,
    zagier_ss_mass,
)
from bunzeta.zeta import class_number, quasi_residue, zeta_from_counts
from test_groups import group_order
from test_zeta import quasi_residue_oracle, special_value_oracle


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
    assert mass_bun(builtin_group("Gm", 1), zp2) == 1
    assert mass_bun(builtin_group("GL", 2), zp2) == Fraction(1, 3)
    assert mass_bun(builtin_group("GL", 2), zp2) == \
        p1_rank2_split_bundle_mass(2)
    assert mass_bun(builtin_group("SL", 2), zp2) == \
        p1_sl2_split_bundle_mass(2) == Fraction(1, 3)
    zp3 = zeta_catalog["P1/F3"]
    assert mass_bun(builtin_group("GL", 2), zp3) == \
        p1_rank2_split_bundle_mass(3)
    assert mass_bun(builtin_group("SL", 2), zp3) == \
        p1_sl2_split_bundle_mass(3)


def test_gm_mass_is_pic0_weighted_count(zeta_catalog):
    # Pic^0 has h points, each with automorphism group F_q^*
    for key, z in zeta_catalog.items():
        expected = Fraction(class_number(z), z.q - 1)
        got = mass_bun(builtin_group("Gm", 1), z)
        assert got == expected == quasi_residue(z) * Fraction(z.q) ** (z.g - 1)


def mass_bun_oracle(spec, z):
    """The product formula as a running Fraction product, on the Fraction
    oracles of the zeta values."""
    q, g = z.q, z.g
    c1 = sum(1 for d in spec.degrees if d == 1)
    val = spec.tamagawa * Fraction(q) ** ((g - 1) * spec.dim)
    val *= quasi_residue_oracle(z) ** c1
    for d in spec.degrees:
        if d >= 2:
            val *= special_value_oracle(z, d)
    return val


BUILTIN_SPECS = [("Gm", 1), ("GL", 1), ("GL", 2), ("GL", 5), ("SL", 2),
                 ("SL", 6), ("Sp", 1), ("Sp", 3), ("SO-odd", 2),
                 ("SO-even", 2), ("SO-even", 3)]


@pytest.mark.parametrize("tamagawa", [None, Fraction(3, 7)],
                         ids=["tau-1", "tau-3/7"])
def test_mass_bun_matches_fraction_oracle(zeta_catalog, genus6_zeta,
                                          random_zetas, tamagawa):
    zetas = [*zeta_catalog.values(), genus6_zeta, *random_zetas]
    # every family: g - 1 and rho's 1 - g give q-exponents of both signs
    assert {0, 1, 6} <= {z.g for z in zetas}
    assert {family for family, _ in BUILTIN_SPECS} == set(FAMILIES)
    for family, n in BUILTIN_SPECS:
        spec = builtin_group(family, n, tamagawa)
        for z in zetas:
            assert mass_bun(spec, z) == mass_bun_oracle(spec, z), \
                (spec.name, z)


def test_mass_gl_component_pinned(zeta_catalog):
    assert mass_gl_component(1, zeta_catalog["P1/F2"]) == 1
    assert mass_gl_component(1, zeta_catalog["E1"]) == 3
    assert mass_gl_component(2, zeta_catalog["P1/F2"]) == Fraction(1, 3)


def test_mass_gl_component_matches_mass_bun(zeta_catalog):
    for z in zeta_catalog.values():
        for n in (1, 2, 3):
            assert mass_gl_component(n, z) == \
                mass_bun(builtin_group("GL", n), z)


def test_zagier_pinned(zeta_catalog):
    zp2 = zeta_catalog["P1/F2"]
    assert zagier_ss_mass(1, 5, zp2) == mass_gl_component(1, zp2)
    assert zagier_ss_mass(2, 0, zp2) == Fraction(1, 6)
    assert zagier_ss_mass(2, 1, zp2) == 0


def test_hn_pinned(zeta_catalog):
    zp2 = zeta_catalog["P1/F2"]
    assert hn_ss_mass(1, 3, zp2) == mass_gl_component(1, zp2)
    assert hn_ss_mass(2, 0, zp2) == Fraction(1, 6)
    assert hn_ss_mass(2, 1, zp2) == 0


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
            assert zagier_ss_mass(2, d, z) == p1_rank2_semistable_mass(q, d)


def rank2_deficit(z, d):
    """Oracle: M(2) - M^ss(2, d) = (h/(q-1))^2 q^(g-1+r)/(q^2-1) with
    r = d mod 2, the mass of the unstable rank-2 bundles of degree d.  The
    HN stratum of the extensions of L' by L with deg L - deg L' = k has
    mass (h/(q-1))^2 q^(g-1-k), and k runs over 2 - r, 4 - r, ..."""
    q, r = z.q, d % 2
    return Fraction(class_number(z), q - 1) ** 2 \
        * Fraction(q) ** (z.g - 1 + r) / (q ** 2 - 1)


def test_rank2_semistable_deficit(zeta_catalog, catalog_zeta):
    # the catalog, E1 among it, and the curves of the config files that
    # count in about a second: odd characteristic, and a nonzero
    # character at infinity (f9-g5), included
    root = Path(__file__).resolve().parents[1]
    paths = [root / "configs" / f"{name}.json"
             for name in ("demo", "f2-g22", "f9-g5")] + \
        [root / "bench" / "workloads" / f"{name}.json"
         for name in ("family", "zeta-heavy")]
    zetas = [*zeta_catalog.values(),
             *(catalog_zeta(name) for name in ("C3", "klein", "E3"))]
    zetas += [model.zeta() for path in paths
              for model in build_curves(json.loads(path.read_text()))]
    assert len(zetas) == 24 and {z.q for z in zetas} == {2, 3, 9}
    for z in zetas:
        total = mass_gl_component(2, z)
        for d in range(4):
            assert total - semistable_mass(2, d, z) == rank2_deficit(z, d), \
                (z, d)


def _zagier_per_d(n, d, z):
    """Oracle: Zagier's composition sum for one d, in Fraction arithmetic."""
    q, g = z.q, z.g
    total = Fraction(0)
    for comp in compositions(n):
        k = len(comp)
        partial = list(itertools.accumulate(comp))
        cross = sum(comp[i] * comp[j] for i in range(k) for j in range(i + 1, k))
        num = 0  # n times the fractional part of the q-exponent
        denom = Fraction(1)
        for l in range(k - 1):
            pair = comp[l] + comp[l + 1]
            num += pair * ((partial[l] * d) % n)
            denom *= 1 - Fraction(q) ** pair
        assert num % n == 0
        term = Fraction(q) ** ((g - 1) * cross + num // n) / denom
        for part in comp:
            term *= mass_gl_component(part, z)
        total += term
    return total


@functools.cache
def _transfer_hn_masses(n, z):
    """Oracle: M^ss(n, 0..n-1) by the residue-class transfer below."""
    total = mass_gl_component(n, z)
    if n == 1:
        return (total,)
    return tuple(total - strata for strata in _transfer_strata_sums(n, z))


def _transfer_strata_sums(n, z):
    """Oracle: the stratum sums by a transfer over the parts of each
    composition, in Fraction arithmetic.  The state after part i is
    (r_i, sum_(j <= i) r_j + sum_(l < i) s_l u_l mod n); part i + 1
    multiplies in its r-factor and the residue classes of u_i."""
    qf = Fraction(z.q)
    sums = [Fraction(0)] * n
    for comp in compositions(n):
        if len(comp) == 1:
            continue  # a stratum has at least two parts
        s = [0, *itertools.accumulate(comp)]  # s[i] = n_1 + ... + n_i
        cross = (n * n - sum(part * part for part in comp)) // 2
        weight = qf ** ((z.g - 1) * cross)
        states = {(r, r): _transfer_part_factor(comp[0], r, n - s[1], z)
                  for r in range(comp[0])}
        for i in range(1, len(comp)):
            w = s[i] * (n - s[i])
            weight /= 1 - qf ** (-n * w)
            # classes[e][rho]: sum of q^(-w u) over e <= u < e + n with
            # s_i u = rho (mod n); times the factor just put into weight it
            # is the sum over all u >= e in that class
            classes = [[Fraction(0)] * n for _ in range(2)]
            for e in (0, 1):
                for u in range(e, e + n):
                    classes[e][s[i] * u % n] += qf ** (-w * u)
            nxt: dict = {}
            for (r_prev, t), acc in states.items():
                for r in range(comp[i]):
                    e = int(r * comp[i - 1] >= r_prev * comp[i])
                    f = acc * _transfer_part_factor(
                        comp[i], r, n - s[i + 1] - s[i], z)
                    for rho, c in enumerate(classes[e]):
                        if c:
                            key = (r, (t + r + rho) % n)
                            nxt[key] = nxt.get(key, 0) + f * c
            states = nxt
        for (_, t), acc in states.items():
            sums[t] += weight * acc
    return sums


def _transfer_part_factor(n_i, r, coeff, z):
    """M^ss(n_i, r) q^(-r coeff): the r-dependent factor of one part."""
    return _transfer_hn_masses(n_i, z)[r] * Fraction(z.q) ** (-r * coeff)


@functools.cache
def _composition_hn_masses(n, z):
    """Oracle: M^ss(n, 0..n-1) by the per-composition sum below."""
    total = mass_gl_component(n, z)
    if n == 1:
        return (total,)
    return tuple(total - strata for strata in _composition_strata_sums(n, z))


def _composition_strata_sums(n, z):
    """Oracle: the stratum sums one composition at a time, on integers.

    Per composition: the residue tuples (r_1..r_k) are summed as integers,
    keyed by their pattern (e_1..e_(k-1)) and by sum r_i mod n; each
    pattern's class vectors are convolved over Z/n once, and each d's
    composition terms are added as integers over one common denominator.
    """
    q = z.q
    # M^ss(m, r) = nums[m][r] / dens[m]: one denominator per rank m < n
    nums, dens = {}, {}
    for m in range(1, n):
        vals = _composition_hn_masses(m, z)
        dens[m] = math.lcm(*(v.denominator for v in vals))
        nums[m] = [v.numerator * (dens[m] // v.denominator) for v in vals]
    terms = []  # (den, numerators by d) per composition
    for comp in compositions(n):
        k = len(comp)
        if k == 1:
            continue  # a stratum has at least two parts
        s = [0, *itertools.accumulate(comp)]  # s[i] = n_1 + ... + n_i
        cross = (n * n - sum(part * part for part in comp)) // 2
        # part i's factor M^ss(n_i, r) q^(-r c_i), c_i = n - s_i - s_(i-1),
        # times dens[n_i] q^top to an integer; keys skip the r with M^ss = 0
        factors, shift = [], 0
        for i, part in enumerate(comp):
            c = n - s[i + 1] - s[i]
            top = (part - 1) * max(c, 0)
            shift += top
            factors.append({r: v * q ** (top - r * c)
                            for r, v in enumerate(nums[part]) if v})
        # classes[l][e][rho] = sum_(u=e)^(e+n-1) [s_l u = rho] q^(w_l (n-u));
        # over q^(n w_l) - 1 it sums q^(-w_l u) over all u >= e in class rho
        ws = [s[l] * (n - s[l]) for l in range(1, k)]
        classes = []
        for l, w in enumerate(ws, start=1):
            pair = ([0] * n, [0] * n)
            for e in (0, 1):
                for u in range(e, e + n):
                    pair[e][s[l] * u % n] += q ** (w * (n - u))
            classes.append(pair)
        acc: dict = {}  # pattern -> integer numerators by sum r_i mod n
        for rs in itertools.product(*factors):
            pattern = tuple(int(rs[l + 1] * comp[l] >= rs[l] * comp[l + 1])
                            for l in range(k - 1))
            acc.setdefault(pattern, [0] * n)[sum(rs) % n] += math.prod(
                f[r] for f, r in zip(factors, rs))
        total = [0] * n
        for pattern, vec in acc.items():
            for pair, e in zip(classes, pattern):
                vec = [sum(vec[(rho - j) % n] * c
                           for j, c in enumerate(pair[e]) if c)
                       for rho in range(n)]
            total = [a + b for a, b in zip(total, vec)]
        power = (z.g - 1) * cross - shift
        den = math.prod(dens[part] for part in comp) * math.prod(
            q ** (n * w) - 1 for w in ws)
        terms.append((den * q ** max(-power, 0),
                      [a * q ** max(power, 0) for a in total]))
    common = math.lcm(*(den for den, _ in terms))
    return [Fraction(sum(row[d] * (common // den) for den, row in terms),
                     common) for d in range(n)]


@pytest.mark.parametrize("key", ["P1/F2", "P1/F3", "E1", "C2", "C6"])
def test_prefix_transfer_matches_composition_oracle(zeta_catalog,
                                                    genus6_zeta, key):
    z = genus6_zeta if key == "C6" else zeta_catalog[key]
    for n in range(1, 11 if key == "E1" else 9):
        assert mass._hn_masses(n, z) == _composition_hn_masses(n, z), (key, n)


@pytest.mark.parametrize("key", ["P1/F2", "P1/F3", "E1", "C2", "C6"])
def test_integer_routes_match_fraction_oracles(zeta_catalog, genus6_zeta,
                                               key):
    z = genus6_zeta if key == "C6" else zeta_catalog[key]
    for n in range(1, 9):
        assert mass._hn_masses(n, z) == _transfer_hn_masses(n, z), (key, n)
    for n in range(1, 11 if key == "E1" else 9):
        assert mass._zagier_masses(n, z) == tuple(
            _zagier_per_d(n, d, z) for d in range(n)), (key, n)


def test_zagier_equals_hn_exactly(zeta_catalog):
    for key, z in zeta_catalog.items():
        for n in range(1, 17 if key == "E1" else 9):
            total = mass_gl_component(n, z)
            for d in range(n):
                a = zagier_ss_mass(n, d, z)
                b = hn_ss_mass(n, d, z)
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
    for n in range(2, 8):
        for d in range(n):
            assert zagier_ss_mass(n, d, z) == hn_ss_mass(n, d, z)


def test_periodicity_in_degree(zeta_catalog):
    for z in (zeta_catalog["P1/F2"], zeta_catalog["E1"]):
        for n in (2, 3):
            for d in range(n):
                assert zagier_ss_mass(n, d, z) == \
                    zagier_ss_mass(n, d + n, z) == \
                    zagier_ss_mass(n, d - n, z)
                assert hn_ss_mass(n, d, z) == \
                    hn_ss_mass(n, d + n, z)


def test_coprime_type_on_elliptic_curves_counts_stable_bundles():
    """Independent oracle from the classical genus-1 classification: for
    gcd(n, d) = 1 every semistable bundle is stable with scalar
    automorphisms, and the stable moduli space is isomorphic to the curve,
    so M^ss(n, d) = h/(q - 1)."""
    for q, n1 in [(2, 3), (2, 4), (3, 4), (3, 7), (5, 8)]:
        z = zeta_from_counts(q, 1, [n1])
        h = class_number(z)
        for n, d in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 3), (5, 2)]:
            assert hn_ss_mass(n, d, z) == Fraction(h, q - 1), (q, n1, n, d)
            assert zagier_ss_mass(n, d, z) == Fraction(h, q - 1)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_trivial_component_on_p1(zeta_catalog, n):
    # on the projective line only O(a)^n is semistable: mass 1/|GL_n(F_q)|
    # in degree 0 and 0 in degrees not divisible by n
    zp2 = zeta_catalog["P1/F2"]
    assert hn_ss_mass(n, 0, zp2) == \
        Fraction(1, group_order(builtin_group("GL", n), 2))
    for d in range(1, n):
        assert hn_ss_mass(n, d, zp2) == 0
        assert zagier_ss_mass(n, d, zp2) == 0


def test_hn_rejects_mass_outside_total(zeta_catalog, monkeypatch):
    z = zeta_catalog["E1"]
    total = mass_gl_component(2, z)
    monkeypatch.setattr(mass, "_hn_strata_sums",
                        lambda n, z: [2 * total] * n)
    mass._hn_masses.cache_clear()  # a failed call caches nothing
    with pytest.raises(ArithmeticError, match="outside"):
        hn_ss_mass(2, 0, z)


def test_tamagawa_scaling(zeta_catalog):
    z = zeta_catalog["E1"]
    doubled = builtin_group("Sp", 2, tamagawa=Fraction(2))
    single = builtin_group("Sp", 2)
    assert mass_bun(doubled, z) == 2 * mass_bun(single, z)


def test_compositions_enumeration():
    assert sorted(compositions(3)) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert len(list(compositions(6))) == 32
    assert list(compositions(0)) == [()]


def test_mass_bun_rejects_negative(zeta_catalog, monkeypatch):
    # a negative special value stands for a defect upstream of the product
    monkeypatch.setattr(mass, "special_value_parts", lambda z, d: (-1, 1))
    with pytest.raises(ValueError, match="SL2: negative mass -"):
        mass_bun(builtin_group("SL", 2), zeta_catalog["E1"])
    # Gm has no degree >= 2, so no special value enters its mass
    assert mass_bun(builtin_group("Gm", 1), zeta_catalog["E1"]) == 3


def test_invalid_rank_rejected(zeta_catalog):
    with pytest.raises(ValueError):
        zagier_ss_mass(0, 0, zeta_catalog["P1/F2"])
    with pytest.raises(ValueError):
        hn_ss_mass(0, 0, zeta_catalog["P1/F2"])
    with pytest.raises(ValueError):
        mass_gl_component(0, zeta_catalog["P1/F2"])
