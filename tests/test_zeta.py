import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bunzeta import cli, zeta
from bunzeta.zeta import (
    InconsistentCountsError,
    ZetaData,
    checked_counts,
    class_number,
    degree_spectrum,
    power_sums,
    quasi_residue,
    regenerate_counts,
    special_value,
    zeta_from_counts,
)


def zeta_series_oracle(z, order):
    """Independent expansion of P(T) * sum T^i * sum (qT)^j as exact
    rationals; coefficient n counts effective divisors of degree n."""
    coeffs = [Fraction(0)] * (order + 1)
    for i, a in enumerate(z.a):
        if i > order:
            break
        coeffs[i] = Fraction(a)
    out = [Fraction(0)] * (order + 1)
    for n in range(order + 1):
        acc = Fraction(0)
        for i in range(n + 1):
            # sum_(j+k = n-i) q^j = (q^(n-i+1) - 1)/(q - 1)
            acc += coeffs[i] * Fraction(z.q ** (n - i + 1) - 1, z.q - 1)
        out[n] = acc
    return out


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_reconstruction_pinned():
    assert zeta_from_counts(2, 0, []).a == (1,)
    assert zeta_from_counts(5, 1, [8]).a == (1, 2, 5)
    z = zeta_from_counts(2, 1, [3])
    assert z.a == (1, 0, 2)
    # frozen off exhaustive enumeration of y^2 + y = x^3 over F_4: the
    # curve is maximal there, N_2 = q^2 + 1 + 2g q = 9
    assert regenerate_counts(z, 2) == [3, 9]


def test_functional_equation_holds_and_is_enforced():
    z = zeta_from_counts(2, 2, [3, 5])
    g, q = z.g, z.q
    for i in range(2 * g + 1):
        assert z.a[2 * g - i] == q ** (g - i) * z.a[i]
    with pytest.raises(InconsistentCountsError):
        ZetaData(q=2, g=1, a=(1, 1, 3))  # a_2 != q a_0


def test_reconstruction_rejects_wrong_arity():
    # g or g + 1 counts: the last of g + 1 is the guard
    for g, counts in ((1, [3, 9, 9]), (2, [3]), (0, [3, 5])):
        with pytest.raises(ValueError, match="leading counts") as exc:
            zeta_from_counts(2, g, counts)
        assert type(exc.value) is ValueError
    assert zeta_from_counts(2, 1, [3, 9]) == zeta_from_counts(2, 1, [3])
    assert zeta_from_counts(3, 0, [4]) == zeta_from_counts(3, 0, [])


def test_inconsistent_counts_rejected():
    # parity obstruction: a_2 is a half-integer
    with pytest.raises(InconsistentCountsError) as exc:
        zeta_from_counts(2, 2, [3, 4])
    assert "not an integer" in str(exc.value)
    # class number would be nonpositive, checked before any guard
    for counts in ([1, 1], [1, 1, 0]):
        with pytest.raises(InconsistentCountsError) as exc:
            zeta_from_counts(2, 2, counts)
        assert "P(1)" in str(exc.value)
    # a guard off the next Newton identity: E1 has N_2 = 9
    with pytest.raises(InconsistentCountsError) as exc:
        zeta_from_counts(2, 1, [3, 8])
    assert str(exc.value) == "guard count N_2 = 8 but P(T) regenerates 9"
    # the guard passes checked_counts first; at g = 0 its Weil interval is
    # the one count q + 1, so a wrong guard of the projective line fails there
    with pytest.raises(InconsistentCountsError) as exc:
        zeta_from_counts(3, 0, [5])
    assert str(exc.value) == ("N_1 = 5 violates the Weil bound "
                              "|N - q^m - 1| <= 2g q^(m/2) for q=3, g=0")
    # negative and Weil-violating given counts, with checked_counts' text
    for counts, want in (([3, -1], "N_2 = -1 < 0"),
                         ([3, 5, 30], "N_3 = 30 violates the Weil bound")):
        with pytest.raises(InconsistentCountsError) as exc:
            zeta_from_counts(2, 2, counts)
        assert str(exc.value).startswith(want)
    # Weil-violating regenerated counts
    with pytest.raises(InconsistentCountsError):
        ZetaData(q=2, g=1, a=(1, 10, 2))
    # P(T) = 1 + 2T + 5T^2 + 4T^3 + 4T^4 has integer coefficients, the
    # functional equation and P(1) > 0, and N_1, N_2 = 5, 11 lie in their
    # Weil intervals, but it regenerates N_3 = -1
    for build in (lambda: zeta_from_counts(2, 2, [5, 11]),
                  lambda: ZetaData(q=2, g=2, a=(1, 2, 5, 4, 4))):
        with pytest.raises(InconsistentCountsError,
                           match="regenerated N_3 = -1 < 0"):
            build()


def exp_series_oracle(q, g, counts):
    """a_0..a_g as the exact rational coefficients of
    ``(1 - T)(1 - qT) exp(sum N_m T^m / m)``, the exponential of the log
    of Z(T), without Newton's identities."""
    e = [Fraction(1)]
    for k in range(1, g + 1):
        e.append(sum(counts[j - 1] * e[k - j] for j in range(1, k + 1)) / k)
    e = [Fraction(0), Fraction(0)] + e  # e_(-2) = e_(-1) = 0 for the product
    return [e[k + 2] - (q + 1) * e[k + 1] + q * e[k] for k in range(g + 1)]


def reconstruction_oracle(q, g, counts):
    """The a of zeta_from_counts by the exp series: a count that fails
    ``checked_counts`` or the first noninteger a_k raises, and the
    functional equation gives a_(g+1)..a_(2g)."""
    checked_counts(q, g, counts)
    a = []
    for k, c in enumerate(exp_series_oracle(q, g, counts)):
        if c.denominator != 1:
            raise InconsistentCountsError(
                f"coefficient a_{k} = {c} is not an integer; "
                "counts are inconsistent")
        a.append(c.numerator)
    return tuple(a + [q ** (k - g) * a[2 * g - k]
                      for k in range(g + 1, 2 * g + 1)])


def log_series_counts(z, M):
    """N_1..N_M as m times the coefficients of log Z(T), with Z(T) from
    zeta_series_oracle: the Fraction route regenerate_counts takes past
    2g + 4."""
    lg = zeta._series_log(zeta_series_oracle(z, M), M)
    assert all((m * lg[m]).denominator == 1 for m in range(1, M + 1))
    return [int(m * lg[m]) for m in range(1, M + 1)]


def _outcome(compute):
    try:
        return compute()
    except InconsistentCountsError as e:
        return str(e)


def weil_product_counts(rng, q, g):
    """N_1..N_g of P(T) = prod_(i <= g) (1 - t_i T + q T^2) with random
    t_i^2 <= 4q, so every root of P has absolute value sqrt(q)."""
    s = [0] * g
    for _ in range(g):
        t = rng.randint(-math.isqrt(4 * q), math.isqrt(4 * q))
        prev, cur = 2, t  # power sums of the roots of x^2 - t x + q
        for m in range(g):
            s[m] += cur
            prev, cur = cur, t * cur - q * prev
    return [q ** m + 1 - s[m - 1] for m in range(1, g + 1)]


def test_newton_matches_exp_series_oracle():
    # 9000 count vectors drawn from the Weil window widened by 2 on each
    # side, which mostly fail at a noninteger a_k, and 1000 counts of Weil
    # polynomials, a third of them with one count moved by 1
    rng = random.Random(20)
    qs = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]
    accepted, rejected = set(), set()
    for i in range(10_000):
        q, g = rng.choice(qs), rng.randrange(9)
        if i < 9000:
            counts = []
            for m in range(1, g + 1):
                width = math.isqrt(4 * g * g * q ** m) + 2
                counts.append(max(0, q ** m + 1 + rng.randint(-width, width)))
        else:
            counts = weil_product_counts(rng, q, g)
            if g and rng.random() < 1 / 3:
                counts[rng.randrange(g)] += rng.choice((-1, 1))
        new = _outcome(lambda: zeta_from_counts(q, g, counts).a)
        old = _outcome(lambda: reconstruction_oracle(q, g, counts))
        if type(new) is str and type(old) is tuple:
            a = old  # integer coefficients: ZetaData must reject them alike
            old = _outcome(lambda: ZetaData(q=q, g=g, a=a).a)
        assert new == old, (q, g, counts)
        if type(new) is tuple:
            # the integer power sums against the log series, and the guard
            # N_(g+1): an admissible guard passes only if P(T) regenerates it
            series = log_series_counts(ZetaData(q=q, g=g, a=new), 2 * g + 4)
            assert [q ** m + 1 - s for m, s in enumerate(
                power_sums(new, 2 * g + 4), start=1)] == series, (q, g, new)
            n_next = series[g]
            for delta in (-1, 0, 1):
                guard = n_next + delta
                want = _outcome(lambda: checked_counts(q, g, counts + [guard]))
                if type(want) is not str:
                    want = new if not delta else (
                        f"guard count N_{g + 1} = {guard} but "
                        f"P(T) regenerates {n_next}")
                got = _outcome(
                    lambda: zeta_from_counts(q, g, counts + [guard]).a)
                assert got == want, (q, g, counts, guard)
        (accepted if type(new) is tuple else rejected).add((q, g, new))
    # both outcomes occur in bulk, and some P is accepted at every genus
    assert len(accepted) > 500 and len(rejected) > 5000
    assert {g for _, g, _ in accepted} == set(range(9))


def test_integer_checks_run_without_the_series(monkeypatch, capsys):
    # ZetaData, the guard, regenerations to 2g + 4 and the mass report never
    # call the Fraction series
    def refuse(*args):
        raise AssertionError("the Fraction log series ran")

    monkeypatch.setattr(zeta, "_series_log", refuse)
    assert zeta_from_counts(2, 1, [3]).a == (1, 0, 2)
    assert zeta_from_counts(2, 1, [3, 9]).a == (1, 0, 2)
    z = ZetaData(q=2, g=2, a=(1, 0, 0, 0, 4))
    assert regenerate_counts(z, 8) == [3, 5, 9, 33, 33, 65, 129, 193]
    with pytest.raises(AssertionError, match="series ran"):
        regenerate_counts(z, 9)
    demo = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
    assert cli.main(["mass", "--config", str(demo)]) == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize("a,k", [((1, Fraction(1, 2), 2), 1),
                                 ((1, 1.0, 2), 1),
                                 ((True, 2, 2), 0)])
def test_zeta_data_rejects_non_int_coefficients(a, k):
    with pytest.raises(InconsistentCountsError,
                       match=rf"^a_{k} = .* is not an int$"):
        ZetaData(q=2, g=1, a=a)


def test_round_trip_all_catalog_curves(curve_catalog):
    for model in curve_catalog.values():
        z = model.zeta(guard=True)
        top = max(2 * z.g, 2)
        assert regenerate_counts(z, top) == \
            [model.count_points(m) for m in range(1, top + 1)]


def test_regenerated_counts_beyond_2g_stay_in_weil_window(zeta_catalog):
    for z in zeta_catalog.values():
        for m, n_m in enumerate(regenerate_counts(z, 2 * z.g + 4), start=1):
            dev = n_m - z.q ** m - 1
            assert dev * dev <= 4 * z.g * z.g * z.q ** m


# ---------------------------------------------------------------------------
# derived invariants
# ---------------------------------------------------------------------------


def test_class_number_pinned(zeta_catalog):
    assert class_number(zeta_catalog["P1/F2"]) == 1
    assert class_number(zeta_catalog["P1/F3"]) == 1
    assert class_number(zeta_catalog["E1"]) == 3   # = N_1 at genus 1
    assert class_number(zeta_catalog["C2"]) == 5   # frozen off enumeration
    assert class_number(zeta_catalog["C2"]) >= 1


def test_genus_one_class_number_equals_n1():
    for q, n1 in [(2, 3), (2, 4), (3, 4), (5, 8)]:
        z = zeta_from_counts(q, 1, [n1])
        assert class_number(z) == n1


def test_quasi_residue_pinned(zeta_catalog):
    assert quasi_residue(zeta_catalog["P1/F2"]) == 2
    assert quasi_residue(zeta_catalog["P1/F3"]) == Fraction(3, 2)
    assert quasi_residue(zeta_catalog["E1"]) == 3  # 2^0 * 3 / 1


def test_special_value_pinned(zeta_catalog):
    assert special_value(zeta_catalog["P1/F2"], 2) == Fraction(8, 3)
    assert special_value(zeta_catalog["P1/F3"], 2) == Fraction(27, 16)
    assert special_value(zeta_catalog["E1"], 2) == 3  # (1 + 1/8) * 8/3


def test_special_value_served_by_series_summation(zeta_catalog):
    # independent oracle: partial sums of the divisor series at T = q^-2
    z = zeta_catalog["E1"]
    series = zeta_series_oracle(z, 30)
    partial = sum(series[n] * Fraction(1, 4 ** n) for n in range(31))
    exact = special_value(z, 2)
    assert all(c == int(c) and c >= 0 for c in series)
    assert 0 < exact - partial < Fraction(1, 4 ** 13)


def quasi_residue_oracle(z):
    """The scaled residue in Fraction arithmetic, q^(1-g) h / (q - 1)."""
    return Fraction(z.q) ** (1 - z.g) * class_number(z) / (z.q - 1)


def special_value_oracle(z, s):
    """zeta_X(s) in Fraction arithmetic: P(t) by Horner at t = q^-s, over
    (1 - t)(1 - q^(1-s))."""
    t = Fraction(1, z.q ** s)
    p_at_t = Fraction(0)
    for c in reversed(z.a):
        p_at_t = p_at_t * t + c
    return p_at_t / ((1 - t) * (1 - Fraction(1, z.q ** (s - 1))))


def test_integer_values_match_fraction_oracles(zeta_catalog, genus6_zeta,
                                               random_zetas):
    zetas = [*zeta_catalog.values(), genus6_zeta, *random_zetas]
    # g = 0 puts q^(2s-1) in the numerator, g >= 1 a power of q in the
    # denominator: both signs of the q-exponent occur
    assert {0, 1, 2, 3, 6} <= {z.g for z in zetas}
    for z in zetas:
        assert quasi_residue(z) == quasi_residue_oracle(z), z
        for s in range(2, 7):
            assert special_value(z, s) == special_value_oracle(z, s), (z, s)


def test_special_value_rejects_pole():
    z = zeta_from_counts(2, 0, [])
    with pytest.raises(ValueError):
        special_value(z, 1)
    with pytest.raises(ValueError):
        special_value(z, 0)


# ---------------------------------------------------------------------------
# degree spectrum
# ---------------------------------------------------------------------------


def test_degree_spectrum_pinned_p1():
    spec = degree_spectrum([3, 5, 9])
    assert spec == [3, 1, 2]  # B_3 = (9 - 3)/3


def test_degree_spectrum_e1(curve_catalog):
    # frozen off enumeration: N = (3, 9) so B = (3, 3)
    counts = curve_catalog["E1"].counts(2)
    assert counts == [3, 9]
    assert degree_spectrum(counts) == [3, 3]


def test_degree_spectrum_total_identity(curve_catalog):
    counts = curve_catalog["C2"].counts(6)
    spec = degree_spectrum(counts)
    for m in range(1, 7):
        assert sum(d * spec[d - 1] for d in range(1, m + 1)
                   if m % d == 0) == counts[m - 1]


def moebius(n):
    """The Moebius function of n >= 1, by trial division."""
    out, p = 1, 2
    while n > 1:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return out


def moebius_spectrum_oracle(counts):
    """B_1..B_M by Moebius inversion, m B_m = sum_(d|m) mu(m/d) N_d, with
    the first noninteger or negative B_m raised as degree_spectrum words
    it."""
    bs = []
    for m in range(1, len(counts) + 1):
        s = sum(moebius(m // d) * counts[d - 1]
                for d in range(1, m + 1) if m % d == 0)
        if s % m:
            raise InconsistentCountsError(
                f"B_{m} = {s}/{m} is not an integer; counts are inconsistent")
        if s < 0:
            raise InconsistentCountsError(
                f"B_{m} = {s // m} < 0; counts are inconsistent")
        bs.append(s // m)
    return bs


def test_moebius_oracle_small_values():
    assert [moebius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_degree_spectrum_sieve_matches_moebius_oracle(curve_catalog,
                                                      random_zetas):
    # enumerated counts of the catalog, and the counts P(T) regenerates to
    # 40 for random_zetas, past the Weil window for some of them; as given
    # and with one count moved by one, the outcome or the error text agrees
    cases = [model.counts(8) for model in curve_catalog.values()] + \
        [[z.q ** m + 1 - s for m, s in enumerate(power_sums(z.a, 40), 1)]
         for z in random_zetas]
    rng = random.Random(34)
    for counts in cases:
        assert _outcome(lambda: degree_spectrum(counts)) == \
            _outcome(lambda: moebius_spectrum_oracle(counts))
        moved = list(counts)
        moved[rng.randrange(len(moved))] += rng.choice((-1, 1))
        assert _outcome(lambda: degree_spectrum(moved)) == \
            _outcome(lambda: moebius_spectrum_oracle(moved))


def test_degree_spectrum_rejects_inconsistent():
    with pytest.raises(InconsistentCountsError):
        degree_spectrum([3, 6])  # non-integer
    with pytest.raises(InconsistentCountsError):
        degree_spectrum([5, 3])  # negative B_2
