import math
import random
from fractions import Fraction

import pytest

from bunzeta.asymptotics import (
    DOMINANCE_MAX_RANK,
    RhsResult,
    TVData,
    _finite_tail,
    _neglog_q_terms,
    convergence_report,
    dominance_check,
    ln_lower,
    log_q_fraction,
    rhs_general,
    rhs_group,
    sqrt_enclosure,
    tv_bound,
)
from bunzeta.groups import builtin_group
from bunzeta.zeta import zeta_from_counts


def tv_sum_term(tv: TVData, trunc: int) -> float:
    """Oracle: the summed part ``-sum_(m<=trunc) beta_m log_q((q^m - 1)/q^m)``,
    binary64, of rhs_pic.  rhs_general on the constant-sheaf local values
    ``L(m) = (q^m - 1)/q^m`` lists the same exact terms and reproduces it
    bit-exactly."""
    q = tv.q
    pairs = [(b, Fraction(q ** m - 1, q ** m))
             for m, b in tv.beta if m <= trunc]
    return math.fsum(_neglog_q_terms(q, pairs))


def rhs_pic(tv: TVData, trunc: int) -> RhsResult:
    """Oracle: the Picard form ``1 - sum_(m<=trunc) beta_m
    log_q((q^m - 1)/q^m)`` with certified tail, written out for the
    one-dimensional torus; ``rhs_group`` on Gm reproduces it bit-exactly,
    as the term lists coincide as exact rationals."""
    value = 1.0 + tv_sum_term(tv, trunc)
    tail = float(_finite_tail(tv, trunc, (1,)))
    return RhsResult(value, tail)


def random_feasible_tv(rng, qs=(2, 3, 4, 5, 9), max_degree=25):
    q = rng.choice(qs)
    support = rng.sample(range(1, max_degree + 1), k=rng.randint(1, 6))
    beta = {m: Fraction(rng.randint(1, 40), rng.randint(41, 500))
            for m in support}
    tv = TVData(q, tuple(beta.items()))
    bound = tv_bound(tv)
    if bound > 1:
        scale = Fraction(1, 2) / bound
        tv = TVData(q, tuple((m, b * scale) for m, b in beta.items()))
    assert tv_bound(tv) <= 1
    return tv


# ---------------------------------------------------------------------------
# enclosures and the feasibility bound
# ---------------------------------------------------------------------------


def test_sqrt_enclosure():
    lo, hi = sqrt_enclosure(2)
    assert lo < hi and lo * lo <= 2 <= hi * hi
    assert hi - lo <= Fraction(1, 2 ** 63)
    lo4, hi4 = sqrt_enclosure(4)
    assert lo4 == hi4 == 2


def test_ln_lower_is_a_lower_bound():
    for q in (2, 3, 4, 9, 16):
        lb = ln_lower(q)
        assert 0 < float(lb) <= math.log(q)
        assert math.log(q) - float(lb) < 1e-6


def test_tv_bound_pinned():
    assert tv_bound(TVData(q=4, beta=((1, Fraction(1)),))) == 1
    assert tv_bound(TVData(q=9, beta=((1, Fraction(2)),))) == 1
    assert tv_bound(TVData(q=4, beta=())) == 0
    # even powers are exact: q = 2, m = 2 gives q^(m/2) - 1 = 1
    assert tv_bound(TVData(q=2, beta=((2, Fraction(1, 4)),))) == Fraction(1, 2)


def test_tv_bound_certified_for_odd_powers():
    # the reported value must upper-bound the true sum
    tv = TVData(q=2, beta=((1, Fraction(1, 3)),))
    true = (1 / 3) / (math.sqrt(2) - 1)
    assert float(tv_bound(tv)) >= true
    assert float(tv_bound(tv)) - true < 1e-12


def test_infeasible_is_flag_not_error():
    tv = TVData(q=2, beta=((1, Fraction(1)),))
    assert tv_bound(tv) > 1  # bound ~ 2.41


def test_tvdata_drops_zero_densities():
    # TVData alone drops them: the evaluators and the report see the same
    # value whether a zero density is given or its degree left out
    assert TVData(4, ((1, Fraction(1)), (2, Fraction(0)))) == \
        TVData(4, ((1, Fraction(1)),))
    # before the other checks: a zero density at degree 0 or twice is no error
    assert TVData(4, ((0, 0), (1, 1), (1, 0))).beta == ((1, 1),)


def test_tvdata_validation():
    with pytest.raises(ValueError):
        TVData(q=6, beta=())  # not a prime power
    with pytest.raises(ValueError):
        TVData(q=4, beta=((0, Fraction(1)),))
    with pytest.raises(ValueError):
        TVData(q=4, beta=((1, Fraction(-1)),))
    with pytest.raises(ValueError):
        TVData(q=4, beta=((1, Fraction(1)), (1, Fraction(2))))
    for L in (Fraction(0), Fraction(-3, 4)):
        with pytest.raises(ValueError, match=r"groups\[1\]\.L: must be > 0"):
            TVData(q=4, beta=(), groups=((1, 1, Fraction(1, 2)), (2, 1, L)))
    for r in (0, -1):
        with pytest.raises(ValueError,
                           match=rf"groups\[1\]\.deg: must be >= 1, got {r}"):
            TVData(q=4, beta=(), groups=((1, 1, Fraction(1, 2)), (r, 1, 1)))


# ---------------------------------------------------------------------------
# rhs evaluators
# ---------------------------------------------------------------------------


def test_rhs_pic_pinned():
    tv4 = TVData(q=4, beta=((1, Fraction(1)),))
    r = rhs_pic(tv4, 10)
    assert abs(r.value - (1 - math.log(3 / 4) / math.log(4))) < 1e-15
    assert abs(r.value - 1.2075187496394219) < 1e-12
    tv9 = TVData(q=9, beta=((1, Fraction(2)),))
    assert abs(rhs_pic(tv9, 10).value
               - (1 - 2 * math.log(8 / 9) / math.log(9))) < 1e-15
    zero = rhs_pic(TVData(q=4, beta=()), 10)
    assert zero.value == 1.0 and zero.tail == 0.0


def test_rhs_pic_tail_zero_beyond_support():
    tv = TVData(q=4, beta=((1, Fraction(1)), (3, Fraction(1, 8))))
    assert rhs_pic(tv, 3).tail == 0.0
    assert rhs_pic(tv, 2).tail > 0.0


def test_rhs_group_pinned():
    tv4 = TVData(q=4, beta=((1, Fraction(1)),))
    gl2 = builtin_group("GL", 2)
    expected = 4 - math.log((3 / 4) * (15 / 16)) / math.log(4)
    assert abs(rhs_group(tv4, gl2, 10).value - expected) < 1e-15
    assert rhs_group(TVData(q=4, beta=()), gl2, 10).value == 4.0


def test_rhs_group_gm_equals_rhs_pic_bitwise():
    rng = random.Random(20240)
    gm = builtin_group("Gm", 1)
    for _ in range(20):
        tv = random_feasible_tv(rng)
        M = rng.randint(1, 30)
        a, b = rhs_pic(tv, M), rhs_group(tv, gm, M)
        assert a.value == b.value  # bit-exact
        assert a.tail == b.tail


def test_rhs_values_exceed_dim_for_positive_beta():
    # each summand is positive (log_q of a ratio in (0,1) enters with a
    # minus), so nonzero densities push the value strictly above dim G
    tv = TVData(q=4, beta=((1, Fraction(1)),))
    for n in (1, 2, 3, 4):
        v = rhs_group(tv, builtin_group("GL", n), 10).value
        assert v > n * n


def test_rhs_monotone_increasing_in_beta():
    a = TVData(q=4, beta=((1, Fraction(1, 2)),))
    b = TVData(q=4, beta=((1, Fraction(3, 4)),))
    assert rhs_pic(a, 5).value < rhs_pic(b, 5).value
    gl2 = builtin_group("GL", 2)
    assert rhs_group(a, gl2, 5).value < rhs_group(b, gl2, 5).value


def test_rhs_general_pinned():
    assert rhs_general([(1, Fraction(1), Fraction(1))], 4, 1).value == 0.0
    r = rhs_general([(1, Fraction(1, 2), Fraction(3, 4))], 4, 1)
    assert abs(r.value - (-0.5 * math.log(3 / 4) / math.log(4))) < 1e-15
    assert abs(r.value - 0.10375937481971109) < 1e-12


def test_rhs_general_constant_sheaf_specialization():
    rng = random.Random(7)
    for _ in range(10):
        tv = random_feasible_tv(rng)
        M = 30
        groups = [(m, b, Fraction(tv.q ** m - 1, tv.q ** m))
                  for m, b in tv.beta if m <= M]
        r = rhs_general(groups, tv.q, 2)
        assert r.value == tv_sum_term(tv, M)  # exact float equality


def test_rhs_general_envelope_flag():
    # L far from 1 at high degree violates the weight-1/2 decay envelope
    ok = rhs_general([(1, Fraction(1), Fraction(3, 4))], 4, 2)
    assert ok.envelope_ok
    bad = rhs_general([(12, Fraction(1), Fraction(1, 2))], 4, 1)
    assert not bad.envelope_ok


def test_rhs_general_rejects_nonpositive_local_values():
    with pytest.raises(ValueError):
        rhs_general([(1, Fraction(1), Fraction(0))], 4, 1)
    with pytest.raises(ValueError):
        rhs_general([(1, Fraction(1), Fraction(-3, 4))], 4, 1)


def test_tail_soundness_under_doubling():
    rng = random.Random(99)
    for _ in range(200):
        tv = random_feasible_tv(rng)
        for M in (5, 10):
            short = rhs_pic(tv, M)
            long = rhs_pic(tv, 2 * M)
            assert abs(long.value - short.value) <= short.tail
        gl2 = builtin_group("GL", 2)
        short = rhs_group(tv, gl2, 10)
        long = rhs_group(tv, gl2, 40)
        assert abs(long.value - short.value) <= short.tail


def test_tail_is_the_support_bound_exactly():
    # the reported tail is the sum over the discarded degrees of
    # beta_m * sum_j x/((1 - x) ln q), x = q^(-m d_j), with the slack and
    # floor, for feasible and infeasible densities alike
    rng = random.Random(1312)
    slack, floor = Fraction(1_000_000_001, 10 ** 9), Fraction(1, 1 << 40)
    groups = [builtin_group("Gm", 1), builtin_group("GL", 2),
              builtin_group("SL", 3), builtin_group("Sp", 2)]
    kinds = set()
    for _ in range(40):
        tv = random_feasible_tv(rng)
        if rng.random() < 0.5:
            tv = TVData(tv.q, tuple((m, b * rng.randint(50, 5000))
                                    for m, b in tv.beta))
        kinds.add(tv_bound(tv) <= 1)
        degrees = [m for m, _ in tv.beta]
        lo, hi = degrees[0], degrees[-1]
        for M in {0, lo, rng.randint(lo, hi), hi - 1, hi, hi + 7}:
            lnq = ln_lower(tv.q)
            for spec in groups:
                exact = sum(b * x / ((1 - x) * lnq)
                            for m, b in tv.beta if m > M
                            for x in (Fraction(1, tv.q ** (m * d))
                                      for d in spec.degrees))
                expected = float(exact * slack + floor) if exact else 0.0
                assert rhs_group(tv, spec, M).tail == expected
                if spec.name == "Gm":
                    assert rhs_pic(tv, M).tail == expected
    assert kinds == {True, False}


def test_tail_soundness_for_infeasible_densities():
    # the tail bounds the actual discarded terms, so it holds whether or
    # not the densities are feasible
    tv = TVData(q=2, beta=((1, Fraction(1)), (12, Fraction(1000))))
    assert tv_bound(tv) > 1
    short = rhs_pic(tv, 10)
    long = rhs_pic(tv, 40)
    assert abs(long.value - short.value) <= short.tail


# ---------------------------------------------------------------------------
# lhs, empirical densities, dominance
# ---------------------------------------------------------------------------


def test_family_rows_lhs_pinned(zeta_catalog):
    rows = convergence_report([zeta_catalog["E1"]], builtin_group("Gm", 1),
                              4)["rows"]
    assert [(r["genus"], float(r["lhs"])) for r in rows] == \
        [(1, math.log(3) / math.log(2))]
    assert abs(float(rows[0]["lhs"]) - 1.5849625007211563) < 1e-15
    gl1 = convergence_report([zeta_catalog["E1"]], builtin_group("GL", 1), 4)
    assert [r["lhs"] for r in gl1["rows"]] == [r["lhs"] for r in rows]


def test_family_rejects_genus_zero(zeta_catalog):
    with pytest.raises(ValueError, match="family member 0 has genus 0"):
        convergence_report([zeta_catalog["P1/F2"]], builtin_group("Gm", 1), 4)


def _density_estimate(monkeypatch, fam, trunc):
    """The densities and member quotients of a Gm family report whose
    members have the (spectrum B_1..B_trunc, genus g) pairs of ``fam``: the
    member of genus g is y^2 + y = x^(2g+1) over F_2, its spectrum
    replaced by the given one."""
    from bunzeta import asymptotics
    from bunzeta.arith import FiniteField
    from bunzeta.curves import HyperellipticCurve

    spectra = iter([list(spectrum) for spectrum, _ in fam])
    monkeypatch.setattr(asymptotics, "degree_spectrum",
                        lambda counts: next(spectra))
    F2 = FiniteField.prime(2)
    zetas = [HyperellipticCurve.from_ints(F2, [1], [0] * (2 * g + 1) + [1])
             .zeta() if g else zeta_from_counts(2, 0, []) for _, g in fam]
    rep = convergence_report(zetas, builtin_group("Gm", 1), trunc)
    return rep["tv"]["beta"], rep["member_quotients"]


def test_empirical_tv_synthetic(monkeypatch):
    # family with B_1 = g gives the density estimate beta_1 = 1
    fam = [([g], g) for g in (2, 4, 8)]
    beta, quotients = _density_estimate(monkeypatch, fam, 1)
    assert beta == {"1": "1"}
    assert quotients == [{"1": "1"}] * 3


def test_empirical_tv_single_member(monkeypatch):
    beta, _ = _density_estimate(monkeypatch, [([3, 1], 1)], 2)
    assert beta == {"1": "3", "2": "1"}


def test_empirical_tv_two_members_keeps_sequences(monkeypatch):
    fam = [([3, 1], 1), ([2, 4], 2)]
    beta, quotients = _density_estimate(monkeypatch, fam, 2)
    assert beta == {"1": "1", "2": "2"}
    assert quotients == [{"1": "3", "2": "1"}, {"1": "1", "2": "2"}]


def test_empirical_tv_rejects_genus_zero(monkeypatch):
    with pytest.raises(ValueError, match="family member 0 has genus 0"):
        _density_estimate(monkeypatch, [([3], 0)], 1)
    with pytest.raises(ValueError, match="empty family"):
        convergence_report([], builtin_group("Gm", 1), 1)


def test_dominance_pinned_zero_beta():
    tv0 = TVData(q=4, beta=())
    res = dominance_check(tv0, builtin_group("GL", 2), 5)
    table = {tuple(r["composition"]): r["exponent"] for r in res["rows"]}
    assert table == {(2,): "4", (1, 1): "3"}
    assert res["dominant"] is True


def test_dominance_pinned_boundary():
    tv4 = TVData(q=4, beta=((1, Fraction(1)),))
    res = dominance_check(tv4, builtin_group("GL", 2), 10)
    table = {tuple(r["composition"]): float(r["exponent"])
             for r in res["rows"]}
    assert abs(table[(2,)] - 4.254073451835162) < 1e-12
    assert abs(table[(1, 1)] - 3.4150374992788437) < 1e-12
    assert res["dominant"]


def test_dominance_trivial_rank_one():
    res = dominance_check(TVData(q=4, beta=((1, Fraction(1)),)),
                          builtin_group("GL", 1), 5)
    assert res["dominant"] and len(res["rows"]) == 1


def test_dominance_table_only_for_small_gl():
    # the rank rule: a table for GL_n with n <= DOMINANCE_MAX_RANK alone;
    # Gm is GL_1 (degrees {1}, dim 1), and has GL_1's table
    tv = TVData(q=4, beta=((1, Fraction(1)),))
    assert DOMINANCE_MAX_RANK == 6
    assert len(dominance_check(tv, builtin_group("GL", 6), 5)["rows"]) == 32
    for family, n in [("GL", 7), ("SL", 3), ("Sp", 2)]:
        assert dominance_check(tv, builtin_group(family, n), 5) is None
    assert dominance_check(tv, builtin_group("Gm", 1), 5) == \
        dominance_check(tv, builtin_group("GL", 1), 5)


# ---------------------------------------------------------------------------
# convergence report
# ---------------------------------------------------------------------------


def test_convergence_report_pipeline(catalog_zeta):
    fam = [catalog_zeta(name) for name in ("E1", "C2", "C3")]
    gl2 = builtin_group("GL", 2)
    rep = convergence_report(fam, gl2, 8)
    assert [r["genus"] for r in rep["rows"]] == [1, 2, 3]
    assert all(math.isfinite(float(r["lhs"])) and math.isfinite(float(r["gap"]))
               for r in rep["rows"])
    assert len(rep["member_quotients"]) == 3
    assert rep["dominance"] is not None
    assert float(rep["rhs"]["tail"]) >= 0.0
    assert "not verifiable" in rep["note"]
    gaps = [float(r["ss_gap"]) for r in rep["rows"]]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))  # nonincreasing


def test_convergence_report_single_member(catalog_zeta):
    rep = convergence_report([catalog_zeta("E1")], builtin_group("Gm", 1), 6)
    assert len(rep["rows"]) == 1
    # rhs comes from that member's spectrum
    assert rep["tv"]["beta"]["1"] == "3"


def test_convergence_report_errors(catalog_zeta):
    gl2 = builtin_group("GL", 2)
    with pytest.raises(ValueError):
        convergence_report([], gl2, 5)
    with pytest.raises(ValueError):
        convergence_report([catalog_zeta("P1/F2")], gl2, 5)
    with pytest.raises(ValueError, match=r"sorted by genus: family member 0 "
                       r"\(g = 2\) comes before family member 1 \(g = 1\)"):
        convergence_report([catalog_zeta("C2"), catalog_zeta("E1")], gl2, 5)
    with pytest.raises(ValueError, match=r"different base fields: family "
                       r"member 0 \(q = 2\) and family member 1 \(q = 3\)"):
        convergence_report([catalog_zeta("E1"), catalog_zeta("E3")], gl2, 5)


def test_convergence_report_accepts_point_counts(curve_catalog):
    # counts from any source enter through zeta_from_counts
    z = zeta_from_counts(2, 1, curve_catalog["E1"].counts(1))
    rep = convergence_report([z], builtin_group("Gm", 1), 4)
    assert rep["rows"][0]["genus"] == 1


def test_convergence_report_dominance_limit(catalog_zeta):
    # the family section leaves the table out above DOMINANCE_MAX_RANK,
    # as the tv section does
    rep = convergence_report([catalog_zeta("E1")],
                             builtin_group("GL", DOMINANCE_MAX_RANK + 1), 4)
    assert rep["dominance"] is None
    assert "ss_lhs" in rep["rows"][0]


def test_report_json_round_trip(catalog_zeta):
    import json
    rep = convergence_report([catalog_zeta("E1"), catalog_zeta("C2")],
                             builtin_group("GL", 2), 6)
    blob = json.dumps(rep, sort_keys=True)
    assert json.loads(blob) == rep
    assert rep["rows"][0]["genus"] == 1
    # the exact and binary64 values re-parse from their strings
    tv = TVData(2, tuple((int(m), Fraction(b)) for m, b in
                         rep["member_quotients"][-1].items() if Fraction(b)))
    assert Fraction(rep["tv_bound"]) == tv_bound(tv)
    assert float(rep["rhs"]["value"]) == \
        rhs_group(tv, builtin_group("GL", 2), 6).value


def test_log_q_fraction_handles_huge_values():
    big = Fraction(2) ** 4000 * 3
    assert abs(log_q_fraction(big, 2) - (4000 + math.log2(3))) < 1e-9
    with pytest.raises(ValueError):
        log_q_fraction(Fraction(0), 2)


def test_convergence_report_raises_on_route_mismatch(catalog_zeta,
                                                     monkeypatch):
    from bunzeta import mass
    from bunzeta.mass import RouteMismatchError

    hn = mass.hn_ss_mass

    def skewed(n, d, z):
        return hn(n, d, z) + 1

    monkeypatch.setattr(mass, "hn_ss_mass", skewed)
    with pytest.raises(RouteMismatchError, match="Zagier"):
        convergence_report([catalog_zeta("E1"), catalog_zeta("C2")],
                           builtin_group("GL", 2), 4)
