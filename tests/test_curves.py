import math
import random
import time

import pytest

from bunzeta import curves
from bunzeta.arith import BudgetExceededError, FiniteField, ext_field
from bunzeta.curves import (
    HyperellipticCurve,
    PlaneCurve,
    PointCounts,
    ProjectiveLine,
    SingularModelError,
    WeilViolationError,
    _frobenius_orbits,
    count_points,
    count_series,
    genus_of,
)
from bunzeta.zeta import regenerate_counts, zeta_from_counts


def _ev(E, cs, x):
    acc = 0
    for c in reversed(cs):
        acc = E.add_c(E.mul_c(acc, x), c)
    return acc


def brute_affine_solutions(model, m):
    """Oracle: enumerate all (x, y) pairs in F_(q^m)^2 directly."""
    E = FiniteField.extension(model.base, m) if m > 1 else model.base
    n = 0
    for x in range(E.order):
        hx, fx = _ev(E, model.h, x), _ev(E, model.f, x)
        for y in range(E.order):
            lhs = E.add_c(E.mul_c(y, y), E.mul_c(hx, y))
            if lhs == fx:
                n += 1
    return n


def scan_singular(E, h, f, xs):
    """Reference oracle (the former production scan): the first (x, y) with
    x in ``xs`` at which y^2 + h(x) y = f(x) is singular over E, or None."""

    def deriv(cs):
        return [E.mul_c(c, E.embed_int(k)) for k, c in enumerate(cs)][1:]

    hp, fp = deriv(h), deriv(f)
    half = None if E.char == 2 else E.inv_c(E.embed_int(2))
    for x in xs:
        a = _ev(E, h, x)
        if E.char == 2:
            if a != 0:
                continue
            # unique y with y^2 = f(x)
            y = E.pow_c(_ev(E, f, x), E.order // 2)
            fx = E.add_c(E.mul_c(_ev(E, hp, x), y), _ev(E, fp, x))
            if fx == 0:
                return (x, y)
        else:
            y = E.neg_c(E.mul_c(a, half))  # zero of F_y = 2y + h(x)
            fval = E.sub_c(E.add_c(E.mul_c(y, y), E.mul_c(a, y)), _ev(E, f, x))
            if fval != 0:
                continue
            fx = E.sub_c(E.mul_c(_ev(E, hp, x), y), _ev(E, fp, x))
            if fx == 0:
                return (x, y)
    return None


def scan_verdict(model):
    """Oracle witness in the form SingularModelError carries, or None.

    The affine chart is scanned over F_(q^m), m <= g+1, which is complete:
    a singular x is a repeated root of a polynomial of degree <= 2g+2.
    The chart at infinity is the reversed model at u = 0.
    """
    g, h, f = model.genus(), model.h, model.f
    for m in range(1, g + 2):
        E = FiniteField.extension(model.base, m) if m > 1 else model.base
        w = scan_singular(E, h, f, range(E.order))
        if w is not None:
            return (m,) + w
    rev_h = [h[k] if k < len(h) else 0 for k in range(g + 1, -1, -1)]
    rev_f = [f[k] if k < len(f) else 0 for k in range(2 * g + 2, -1, -1)]
    w = scan_singular(model.base, rev_h, rev_f, [0])
    return None if w is None else (1, "infinity", w[1])


def certificate_verdict(model):
    try:
        model.validate()
    except SingularModelError as e:
        return e.witness
    return None


def random_models(seed, n):
    """Models over F_2, F_3, F_5 with g in {1, 2}, deg f in {2g+1, 2g+2}
    and deg h <= g+1 (h != 0 in characteristic 2)."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p, g = rng.choice((2, 3, 5)), rng.choice((1, 2))
        deg_f = rng.choice((2 * g + 1, 2 * g + 2))
        deg_h = rng.randrange(0 if p == 2 else -1, g + 2)
        f = [rng.randrange(p) for _ in range(deg_f)] + [rng.randrange(1, p)]
        h = [rng.randrange(p) for _ in range(deg_h)] + [rng.randrange(1, p)] \
            if deg_h >= 0 else []
        out.append(HyperellipticCurve.from_ints(
            ext_field(p, 1), h, f, name=f"p={p} h={h} f={f}"))
    return out


def tabled_field(base, m):
    E = FiniteField.extension(base, m)
    E.build_tables()
    return E


def powers(E, v, d):
    out = [1]
    for _ in range(d):
        out.append(E.mul_c(out[-1], v))
    return out


def form_value(E, monos, pw):
    """A form {(i, j, k): code} at a point given by the power lists of its
    three coordinates."""
    acc = 0
    for (i, j, k), c in monos.items():
        acc = E.add_c(acc, E.mul_c(E.mul_c(c, pw[0][i]),
                                   E.mul_c(pw[1][j], pw[2][k])))
    return acc


def form_and_partials(E, monos):
    out = [dict(monos), {}, {}, {}]
    for expo, c in monos.items():
        for axis, e in enumerate(expo):
            if e:
                low = tuple(v - (a == axis) for a, v in enumerate(expo))
                out[axis + 1][low] = E.add_c(out[axis + 1].get(low, 0),
                                             E.mul_c(c, E.embed_int(e)))
    return out


def projective_points(E, d):
    """(point, power lists) for (x:y:1), then (x:1:0), then (1:0:0), in
    code order."""
    pw = [powers(E, v, d) for v in range(E.order)]
    for x in range(E.order):
        for y in range(E.order):
            yield (x, y, 1), (pw[x], pw[y], pw[1])
    for x in range(E.order):
        yield (x, 1, 0), (pw[x], pw[1], pw[0])
    yield (1, 0, 0), (pw[1], pw[0], pw[0])


def plane_singular_at(model, E, pt):
    pw = [powers(E, v, model.degree) for v in pt]
    return all(form_value(E, form, pw) == 0
               for form in form_and_partials(E, model.monomials))


def plane_scan_verdict(model, bound):
    """Oracle (the former production scan): the first singular (m, x, y, z)
    over F_(q^m), m <= bound, or None."""
    for m in range(1, bound + 1):
        E = tabled_field(model.base, m)
        forms = form_and_partials(E, model.monomials)
        for pt, pw in projective_points(E, model.degree):
            if all(form_value(E, form, pw) == 0 for form in forms):
                return (m,) + pt
    return None


def plane_enumerated_count(model, m):
    """Oracle (the former production count): zeros of F on P^2(F_(q^m))."""
    E = tabled_field(model.base, m)
    return sum(form_value(E, model.monomials, pw) == 0
               for _, pw in projective_points(E, model.degree))


def random_plane_models(seed, n):
    """Forms over F_2 and F_3 of degree 1..3, each monomial present with
    probability 1/2 and a random nonzero coefficient."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p, d = rng.choice((2, 3)), rng.choice((1, 2, 3))
        entries = [(i, j, d - i - j, rng.randrange(1, p))
                   for i in range(d + 1) for j in range(d + 1 - i)
                   if rng.random() < 0.5]
        if entries:
            out.append(PlaneCurve.from_list(ext_field(p, 1), entries, d,
                                            name=f"p={p} {entries}"))
    return out


def random_quartics(seed, n):
    rng = random.Random(seed)
    return [PlaneCurve.from_list(
        ext_field(2, 1), [(i, j, 4 - i - j, 1) for i in range(5)
                          for j in range(5 - i) if rng.random() < 0.5],
        4, name=f"quartic-{k}") for k in range(n)]


KLEIN = [(3, 1, 0, 1), (0, 3, 1, 1), (1, 0, 3, 1)]
# the norm of x + a y + a^2 z, a in F_32 \ F_2: its only singular points
# are five conjugate points of degree 5
NORM_QUINTIC = [(0, 0, 5, 1), (0, 3, 2, 1), (0, 5, 0, 1), (1, 1, 3, 1),
                (1, 3, 1, 1), (2, 1, 2, 1), (3, 0, 2, 1), (3, 2, 0, 1),
                (5, 0, 0, 1)]
# the norm of a line over F_8: three conjugate singular points of degree 3
NORM_CUBIC = [(3, 0, 0, 1), (2, 1, 0, 1), (2, 0, 1, 1), (1, 1, 1, 1),
              (0, 3, 0, 1), (0, 2, 1, 1), (0, 0, 3, 1)]


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def test_genus_pinned(curve_catalog):
    assert genus_of(curve_catalog["P1/F2"]) == 0
    assert genus_of(curve_catalog["E1"]) == 1
    assert genus_of(curve_catalog["C2"]) == 2
    assert genus_of(curve_catalog["C3"]) == 3
    assert genus_of(curve_catalog["klein"]) == 3  # (4-1)(4-2)/2
    assert genus_of(curve_catalog["E3"]) == 1


# ---------------------------------------------------------------------------
# point counts vs pinned values / brute force
# ---------------------------------------------------------------------------


def test_projective_line_counts(curve_catalog):
    assert count_points(curve_catalog["P1/F2"], 3) == 9  # q^3 + 1
    assert count_series(curve_catalog["P1/F3"], 2).counts == (4, 10)


def test_e1_counts(curve_catalog):
    # affine solutions plus one point at infinity (deg f = 3 odd)
    e1 = curve_catalog["E1"]
    assert count_points(e1, 1) == 3
    assert count_points(e1, 1) == brute_affine_solutions(e1, 1) + 1
    assert count_points(e1, 2) == brute_affine_solutions(e1, 2) + 1 == 9


def test_e3_count(curve_catalog):
    e3 = curve_catalog["E3"]
    assert count_points(e3, 1) == 4
    assert count_points(e3, 1) == brute_affine_solutions(e3, 1) + 1


def test_count_series_weil_window(curve_catalog):
    pc = count_series(curve_catalog["E1"], 2)
    assert pc.counts[0] == 3
    assert abs(pc.counts[1] - 5) <= 2 * 2  # 2g q^(m/2) = 4 at g=1, q=2, m=2


def test_genus_10_counts_to_n11_match_zeta(F3):
    # N_11 is counted in F_(3^11), 177147 elements, with tables
    model = HyperellipticCurve.from_ints(F3, [], [1, 1] + [0] * 19 + [1])
    counts = count_series(model, 11).counts
    assert genus_of(model) == 10 and counts[10] == 175762
    z = zeta_from_counts(3, 10, counts[:10])
    assert list(counts) == regenerate_counts(z, 11)


@pytest.mark.parametrize("key", ["E1", "C2", "C3", "E3"])
def test_hyperelliptic_counts_match_pair_enumeration(curve_catalog, key):
    model = curve_catalog[key]
    assert len(model.f) % 2 == 0  # odd deg f: one point at infinity
    for m in (1, 2, 3):
        assert count_points(model, m) == brute_affine_solutions(model, m) + 1


def frobenius_orbit_count(q, m):
    """Burnside: the average number of x in F_(q^m) fixed by x -> x^(q^k)."""
    return sum(q ** math.gcd(k, m) for k in range(m)) // m


@pytest.mark.parametrize("p,m,over", [(3, 6, 1), (2, 8, 1), (2, 2, 2)],
                         ids=["F3^6", "F2^8", "F16/F4"])
def test_frobenius_orbits_partition_the_field(p, m, over):
    B = ext_field(p, over)
    E = tabled_field(B, m)
    q = B.order
    orbits = list(_frobenius_orbits(E, q))
    assert sum(size for _, size in orbits) == E.order
    assert all(m % size == 0 for _, size in orbits)
    assert len(orbits) == frobenius_orbit_count(q, m)
    seen = set()
    for x, size in orbits:
        conjugates = {E.pow_c(x, q ** k) for k in range(m)}
        assert len(conjugates) == size and min(conjugates) == x
        assert not conjugates & seen
        seen |= conjugates


@pytest.mark.parametrize("h,f", [([], [1, 1, 0, 0, 0, 1]),
                                 ([0, 1], [2, 0, 0, 0, 0, 1])],
                         ids=["h=0", "h=x"])
def test_orbit_counts_match_pair_enumeration_over_f5(h, f):
    model = HyperellipticCurve.from_ints(ext_field(5, 1), h, f, name="g2/F5")
    assert genus_of(model) == 2
    for m in (1, 2):
        assert count_points(model, m) == brute_affine_solutions(model, m) + 1


def test_count_evaluates_once_per_frobenius_orbit(F3, monkeypatch):
    # h and f are evaluated at one x per orbit, never at every x
    model = HyperellipticCurve.from_ints(F3, [], [0, 1, 0, 0, 0, 1])
    model.validate()
    calls = []
    evaluate = curves._eval_codes

    def counted(E, cs, x):
        calls.append(x)
        return evaluate(E, cs, x)

    monkeypatch.setattr(curves, "_eval_codes", counted)
    model.count_points(6)
    assert len(calls) == 2 * frobenius_orbit_count(3, 6) == 260


def test_klein_quartic_counts(curve_catalog):
    # frozen off exhaustive projective enumeration; N_3 = 24 is the
    # classical count of the Klein quartic over F_8
    assert count_series(curve_catalog["klein"], 3).counts == (3, 5, 24)


# ---------------------------------------------------------------------------
# points at infinity for even-degree models
# ---------------------------------------------------------------------------


def test_even_degree_infinity_rules(F2, F3):
    # z^2 + z = 1 is irreducible over F_2: 0 points at infinity over F_2,
    # 2 over F_4
    c_irred = HyperellipticCurve.from_ints(
        F2, [0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf0")
    assert count_points(c_irred, 1) == brute_affine_solutions(c_irred, 1)
    assert count_points(c_irred, 2) == brute_affine_solutions(c_irred, 2) + 2
    # h_(g+1) = 0: z^2 = 1 has exactly one root in characteristic 2
    c_ram = HyperellipticCurve.from_ints(
        F2, [0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf1")
    assert count_points(c_ram, 1) == brute_affine_solutions(c_ram, 1) + 1
    # odd characteristic: number of square roots of the leading coefficient
    c_split = HyperellipticCurve.from_ints(
        F3, [], [0, 1, 0, 0, 0, 0, 1], name="inf2")  # 1 is a square: 2 points
    assert count_points(c_split, 1) == brute_affine_solutions(c_split, 1) + 2
    c_inert = HyperellipticCurve.from_ints(
        F3, [], [0, 1, 0, 0, 0, 0, 2], name="inf0-odd")  # 2 is not a square
    assert count_points(c_inert, 1) == brute_affine_solutions(c_inert, 1)
    # odd characteristic with h_(g+1) != 0: z^2 + z = f_6 over F_3 has
    # discriminant 1 + f_6, giving 0 roots for f_6 = 1 and 1 for f_6 = 2
    # (f_5 != 0 keeps deg(h^2 + 4f) = 2g+1, so the model stays smooth)
    c_h0 = HyperellipticCurve.from_ints(
        F3, [0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf0-h")
    assert count_points(c_h0, 1) == brute_affine_solutions(c_h0, 1)
    c_h1 = HyperellipticCurve.from_ints(
        F3, [0, 0, 0, 1], [0, 1, 0, 0, 0, 1, 2], name="inf1-h")
    assert count_points(c_h1, 1) == brute_affine_solutions(c_h1, 1) + 1


# ---------------------------------------------------------------------------
# smoothness validation
# ---------------------------------------------------------------------------


def test_char2_h_zero_rejected(F2):
    with pytest.raises(SingularModelError):
        HyperellipticCurve.from_ints(F2, [], [0, 0, 0, 1])


def test_nodal_cubic_rejected(F2):
    nodal = HyperellipticCurve.from_ints(F2, [0, 1], [0, 0, 0, 1],
                                         name="nodal")
    with pytest.raises(SingularModelError) as exc:
        genus_of(nodal)
    assert exc.value.witness == (1, 0, 0)


def test_cusp_rejected(F3):
    cusp = HyperellipticCurve.from_ints(F3, [], [0, 0, 0, 1], name="cusp")
    with pytest.raises(SingularModelError) as exc:
        genus_of(cusp)
    assert exc.value.witness == (1, 0, 0)


@pytest.mark.parametrize("p,h,f", [(3, [0, 0, 1], [1, 0, 1, 0, 2]),
                                   (2, [1], [0, 0, 0, 0, 1])],
                         ids=["conic", "genus-0"])
def test_degenerate_at_infinity_rejected(p, h, f):
    # deg(h^2 + 4f) = 2 <= 2g, and y^2 + y = x^4 with h_2 = f_3 = h_1 = 0
    model = HyperellipticCurve.from_ints(ext_field(p, 1), h, f, name="degen")
    with pytest.raises(SingularModelError) as exc:
        genus_of(model)
    assert exc.value.witness == (1, "infinity", 1)
    assert "degen" in str(exc.value) and "infinity" in str(exc.value)


def test_odd_degree_f_with_top_h_has_two_points_at_infinity(F2):
    # y^2 + (x^2 + 1) y = x^3 + 1: z^2 + z = 0 at infinity has 2 roots
    model = HyperellipticCurve.from_ints(F2, [1, 0, 1], [1, 0, 0, 1],
                                         name="odd-f-top-h")
    counts = [count_points(model, m) for m in range(1, 5)]
    assert counts == regenerate_counts(zeta_from_counts(2, 1, counts[:1]), 4)
    assert counts[0] == brute_affine_solutions(model, 1) + 2


def test_low_degree_discriminant_stays_accepted(F3):
    # deg(h^2 + 4f) = 3 = 2g+1 although h_2^2 + 4 f_4 = 0: smooth at
    # infinity, with one rational point there
    model = HyperellipticCurve.from_ints(F3, [0, 0, 1], [0, 1, 0, 1, 2],
                                         name="F-deg-3")
    counts = count_series(model, 4).counts
    assert counts == (4, 16, 28, 64)
    assert list(counts) == regenerate_counts(
        zeta_from_counts(3, 1, counts[:1]), 4)


def test_validate_builds_no_extension_field(F2, F3, monkeypatch):
    models = [HyperellipticCurve.from_ints(F2, [1], [0] * 7 + [1]),
              HyperellipticCurve.from_ints(F2, [0, 0, 1], [0, 1, 0, 0, 0, 0, 1]),
              HyperellipticCurve.from_ints(F3, [0, 0, 1], [0, 1, 0, 1, 2])]

    def no_extension(cls, *args, **kw):
        raise AssertionError("validate() constructed an extension field")

    monkeypatch.setattr(FiniteField, "extension", classmethod(no_extension))
    for model in models:
        model.validate()


def test_certificate_agrees_with_scan_oracle():
    verdicts = [(scan_verdict(model), certificate_verdict(model))
                for model in random_models(2024, 600)]
    assert all(oracle == cert for oracle, cert in verdicts), next(
        v for v in verdicts if v[0] != v[1])
    # the sample exercises both charts and both outcomes
    assert any(o is None for o, _ in verdicts)
    assert any(o is not None and o[1] == "infinity" for o, _ in verdicts)
    assert any(o is not None and o[1] != "infinity" for o, _ in verdicts)


def test_accepted_models_are_self_consistent():
    accepted = 0
    for model in random_models(2024, 600):
        if certificate_verdict(model) is not None:
            continue
        accepted += 1
        g = model.genus()
        counts = [count_points(model, m) for m in range(1, 2 * g + 3)]
        z = zeta_from_counts(model.q, g, counts[:g])
        assert counts == regenerate_counts(z, 2 * g + 2), model.name
    assert accepted >= 300


def test_singular_plane_curve_rejected(F2):
    triangle = PlaneCurve.from_list(F2, [(1, 1, 1, 1)], 3, name="xyz")
    with pytest.raises(SingularModelError) as exc:
        genus_of(triangle)
    assert exc.value.witness is not None


def test_h_degree_bound_enforced(F2):
    with pytest.raises(ValueError):
        HyperellipticCurve.from_ints(F2, [0, 0, 0, 1], [0, 0, 0, 1])


def test_inhomogeneous_plane_form_rejected(F2):
    with pytest.raises(ValueError):
        PlaneCurve.from_list(F2, [(1, 0, 0, 1)], 4)


@pytest.mark.parametrize("entries,d,m", [(NORM_QUINTIC, 5, 5),
                                         (NORM_CUBIC, 3, 3)],
                         ids=["quintic", "cubic"])
def test_norm_of_a_line_rejected_at_its_degree(F2, entries, d, m):
    # every singular point has degree m = d, so a bound below m misses it
    # (the former bound-4 scan accepted the quintic as genus 6)
    model = PlaneCurve.from_list(F2, entries, d, name="norm")
    with pytest.raises(SingularModelError) as exc:
        genus_of(model)
    w = exc.value.witness
    assert w[0] == m and w[3] == 1
    assert plane_singular_at(model, FiniteField.extension(F2, m), w[1:])
    assert plane_scan_verdict(model, m - 1) is None


# ---------------------------------------------------------------------------
# invariants: Weil bound, budget
# ---------------------------------------------------------------------------


def test_point_counts_weil_enforced():
    with pytest.raises(WeilViolationError) as exc:
        PointCounts(q=2, g=0, counts=(4,))
    assert exc.value.m == 1
    PointCounts(q=2, g=1, counts=(3, 9))  # fine


def test_weil_bound_on_catalog(curve_catalog):
    for model in curve_catalog.values():
        g = genus_of(model)
        pc = count_series(model, max(2 * g, 2))
        for m, n_m in enumerate(pc.counts, start=1):
            dev = n_m - model.q ** m - 1
            assert dev * dev <= 4 * g * g * model.q ** m


def test_budget_exceeded(curve_catalog):
    # every count is charged q^m, the elements of the field it scans
    with pytest.raises(BudgetExceededError):
        count_points(curve_catalog["E1"], 30, budget=1 << 10)
    with pytest.raises(BudgetExceededError):
        count_points(curve_catalog["klein"], 11, budget=1 << 10)
    assert count_points(curve_catalog["klein"], 10, budget=1 << 10) > 0


def test_budget_refuses_cached_counts(curve_catalog):
    model = curve_catalog["E1"]
    count_points(model, 5)
    with pytest.raises(BudgetExceededError, match="budget 16"):
        count_points(model, 5, budget=16)


def test_count_above_table_limit_refused_fast(F2):
    # g = 10: N_11 is the last count under the table limit; N_21 would
    # scan 2^21 elements on digit polynomials, inside the default budget
    model = HyperellipticCurve.from_ints(F2, [1], [0, 1] + [0] * 19 + [1],
                                         name="g10")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"point count for g10 over GF\(2\^21\) of size "
                             r"2097152 exceeds the table limit 1048576"):
        count_points(model, 21)
    assert time.perf_counter() - start < 1.0


def test_plane_certificate_above_table_limit_refused_fast():
    # the Fermat sextic over F_5 needs slices over F_(5^m), m <= D = 15
    # (5^9 > 2^20); the certificate refuses F_(5^15) before it scans F_5
    model = PlaneCurve.from_list(
        ext_field(5, 1), [(6, 0, 0, 1), (0, 6, 0, 1), (0, 0, 6, 1)], 6,
        name="fermat6")
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError,
                       match=r"smoothness certificate for fermat6 over "
                             r"GF\(5\^15\) .* exceeds the table limit"):
        model.validate()
    assert time.perf_counter() - start < 1.0


def test_plane_certificate_stops_at_its_witness(monkeypatch):
    # x^5 + y^5 + x^2 y^2 z is singular at (0:0:1), a point over F_3 itself,
    # so the certificate needs none of F_(3^2)..F_(3^10)
    monkeypatch.setattr(FiniteField, "_prime_cache", {})
    base = FiniteField.prime(3)
    model = PlaneCurve.from_list(
        base, [(5, 0, 0, 1), (0, 5, 0, 1), (2, 2, 1, 1)], 5, name="quintic")
    with pytest.raises(SingularModelError) as exc:
        model.validate()
    assert exc.value.witness == (1, 0, 0, 1)
    assert base._extensions == {}


def test_counts_deterministic(curve_catalog):
    model = curve_catalog["C3"]
    assert [count_points(model, m) for m in (1, 2, 3)] == \
        [count_points(model, m) for m in (1, 2, 3)]


def test_curve_over_extension_base_field(curve_catalog):
    # the base-change of y^2 + y = x^3 to F_4: counting runs through
    # relative tower extensions F_4 -> F_16 and must agree with counting
    # the F_2 model over the even-degree extensions
    from bunzeta.arith import ext_field
    F4 = ext_field(2, 2)
    e4 = HyperellipticCurve.from_ints(F4, [1], [0, 0, 0, 1], name="E1xF4")
    assert genus_of(e4) == 1
    e1 = curve_catalog["E1"]
    for m in (1, 2, 3):
        assert count_points(e4, m) == count_points(e1, 2 * m)
    assert count_points(e4, 1) == brute_affine_solutions(e4, 1) + 1


def test_klein_smoothness_certificate_is_complete(F2, monkeypatch):
    # slices at x in F_(2^m), m <= d(d-1)/2 = 6, certify a plane quartic
    degrees = []
    extension = FiniteField.extension.__func__

    def recorded(cls, base, m, modulus=None):
        degrees.append(m)
        return extension(cls, base, m, modulus)

    monkeypatch.setattr(FiniteField, "extension", classmethod(recorded))
    PlaneCurve.from_list(F2, KLEIN, 4, name="klein-cert").validate()
    assert max(degrees) == 6


def test_plane_certificate_budget_names_model(F2):
    model = PlaneCurve.from_list(F2, KLEIN, 4, name="klein-budget")
    with pytest.raises(BudgetExceededError, match="smoothness certificate "
                                                  "for klein-budget"):
        model.validate(budget=32)


def test_plane_certificate_agrees_with_scan_oracle():
    # the scan runs to the Bezout bound (d-1)^2 >= d(d-1)/2
    models = random_plane_models(2026, 320) + random_quartics(2026, 4)
    singular = 0
    for model in models:
        d = model.degree
        oracle = plane_scan_verdict(model, (d - 1) ** 2)
        cert = certificate_verdict(model)
        assert (oracle is None) == (cert is None), (model.name, oracle, cert)
        if cert is None:
            for m in (1, 2, 3):
                assert count_points(model, m) == \
                    plane_enumerated_count(model, m), (model.name, m)
            # `zeta` enumerates only to N_(g+1); the kernel beyond that is
            # held to the counts P(T) regenerates, to N_(2g+2)
            g = model.genus()
            counts = [count_points(model, m) for m in range(1, 2 * g + 3)]
            z = zeta_from_counts(model.q, g, counts[:g])
            assert counts == regenerate_counts(z, 2 * g + 2), model.name
        else:
            singular += 1
            E = FiniteField.extension(model.base, cert[0])
            assert plane_singular_at(model, E, cert[1:]), (model.name, cert)
    # the sample exercises both outcomes
    assert 0 < singular < len(models)


def test_klein_counts_match_enumeration(curve_catalog):
    klein = curve_catalog["klein"]
    assert [count_points(klein, m) for m in range(1, 9)] == \
        [plane_enumerated_count(klein, m) for m in range(1, 9)]
