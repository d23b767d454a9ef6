import json
import math
import pathlib
import random
import time

import pytest

from bunzeta import arith, curves
from bunzeta.arith import BudgetExceededError, FiniteField, _pc_eval
from bunzeta.cli import build_curve
from bunzeta.curves import (
    HyperellipticCurve,
    PlaneCurve,
    ProjectiveLine,
    SingularModelError,
)
from bunzeta.zeta import (
    InconsistentCountsError,
    regenerate_counts,
    zeta_from_counts,
)


def _frobenius_orbits(E, q):
    """Oracle (the former production orbit walk): (x, orbit size) for the
    first x in code order of each orbit of x -> x^q on E, one field power
    per element."""
    seen = bytearray(E.order)
    for x in range(E.order):
        if seen[x]:
            continue
        size, y = 0, x
        while not seen[y]:
            seen[y] = 1
            size += 1
            y = E.pow_c(y, q)
        yield x, size


def frobenius_trace(E, a):
    """Oracle: the absolute trace a + a^p + ... + a^(p^(D-1)) of a code of
    E, D = E.degree, a code of the prime field."""
    acc = t = a
    for _ in range(E.degree - 1):
        t = E.pow_c(t, E.char)
        acc = E.add_c(acc, t)
    assert acc < E.char, (E, a, acc)
    return acc


def quadratic_root_count(E, a, c):
    """Oracle: the number of y in E with y^2 + a*y = c.  In odd
    characteristic the discriminant a^2 + 4c of y^2 + a y - c is a nonzero
    square iff disc^((Q - 1)/2) = 1 (Euler's criterion).  In
    characteristic 2, a = 0 gives one root, as squaring is a bijection,
    and otherwise y = a z gives z^2 + z = c/a^2, which has two roots iff
    Tr(c/a^2) = 0."""
    if E.char == 2:
        if a == 0:
            return 1
        t = E.mul_c(c, E.pow_c(E.inv_c(a), 2))
        return 2 if frobenius_trace(E, t) == 0 else 0
    disc = E.add_c(E.mul_c(a, a), E.mul_c(E.embed_int(4), c))
    if disc == 0:
        return 1
    return 2 if E.pow_c(disc, (E.order - 1) // 2) == 1 else 0


def test_euler_oracle_matches_enumeration():
    for pm in [(3, 1), (3, 2), (5, 1)]:
        E = FiniteField.of_order(*pm)
        E.build_tables()
        for a in range(E.order):
            for c in range(E.order):
                brute = sum(1 for y in range(E.order)
                            if E.add_c(E.mul_c(y, y), E.mul_c(a, y)) == c)
                assert quadratic_root_count(E, a, c) == brute, (pm, a, c)


def test_quadratic_root_counts_match_enumeration():
    # the characteristic-2 branch of the oracle, by its Frobenius-sum trace
    for pm in [(2, 1), (2, 2), (2, 3)]:
        F = FiniteField.of_order(*pm)
        F.build_tables()
        for a in range(F.order):
            for c in range(F.order):
                brute = sum(
                    1 for y in range(F.order)
                    if F.add_c(F.mul_c(y, y), F.mul_c(a, y)) == c)
                assert quadratic_root_count(F, a, c) == brute, (pm, a, c)


def orbit_count(model, m):
    """Oracle (the former production kernel): N_m of a hyperelliptic model
    on a tabled F_(q^m), with h and f evaluated by Horner at one x per
    Frobenius orbit, weighted by the orbit size, and the roots in y, at
    every x and of z^2 + h_(g+1) z = f_(2g+2) at infinity, counted by
    ``quadratic_root_count``."""
    E, g = tabled_field(model.base, m), model.genus()
    affine = sum(size * quadratic_root_count(E, _pc_eval(E, model.h, x),
                                             _pc_eval(E, model.f, x))
                 for x, size in _frobenius_orbits(E, model.q))
    return affine + quadratic_root_count(E, curves._coeff(model.h, g + 1),
                                         curves._coeff(model.f, 2 * g + 2))


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
            FiniteField.prime(p), h, f, name=f"p={p} h={h} f={f}"))
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


def plane_scan_oracle(model):
    """Oracle (the former production certificate): the first singular point
    in the certificate's order, or None.

    Points (X:1:0) over F_(q^m), m <= d, and then (1:0:0) are tested one by
    one; a singular X is a root of F(X, 1, 0), of degree <= d, unless every
    X is.  On z = 1, x runs over one element of each Frobenius orbit of
    F_(q^m), m <= D = d(d-1)/2, and y over the roots in F_(q^m) of the gcd
    of the slices at x.  D is complete: a reduced curve has <= D singular
    points (genus formula and Bezout), so an orbit of them has <= D, and a
    non-reduced one is singular at a point of degree <= d/2.
    """
    d = model.degree
    for m in range(1, d + 1):
        E = tabled_field(model.base, m)
        for x in range(E.order):
            if plane_singular_at(model, E, (x, 1, 0)):
                return m, x, 1, 0
    if plane_singular_at(model, model.base, (1, 0, 0)):
        return 1, 1, 0, 0
    for m in range(1, d * (d - 1) // 2 + 1):
        E = tabled_field(model.base, m)
        for x, _ in _frobenius_orbits(E, model.q):
            G = curves._common_factor(E, (model._slice(E, columns, x)
                                          for columns in model._columns))
            if len(G) != 1 and (y := curves._first_root_in(E, G)) is not None:
                return m, x, y, 1
    return None


def random_plane_models(seed, n, fields=(2, 3), degrees=(1, 2, 3)):
    """Forms over the prime fields F_p, p in ``fields``, of a degree in
    ``degrees``, each monomial present with probability 1/2 and a random
    nonzero coefficient."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        p, d = rng.choice(fields), rng.choice(degrees)
        entries = [(i, j, d - i - j, rng.randrange(1, p))
                   for i in range(d + 1) for j in range(d + 1 - i)
                   if rng.random() < 0.5]
        if entries:
            out.append(PlaneCurve.from_list(FiniteField.prime(p), entries,
                                            d, name=f"p={p} {entries}"))
    return out


def random_quartics(seed, n):
    rng = random.Random(seed)
    return [PlaneCurve.from_list(
        FiniteField.prime(2), [(i, j, 4 - i - j, 1) for i in range(5)
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


def fermat(d):
    return [(d, 0, 0, 1), (0, d, 0, 1), (0, 0, d, 1)]


# (p, degree, entries) of forms whose eliminant R on z = 1 degenerates
DEGENERATE_FORMS = {
    # F_y = 0: forms in y^2 over F_2, so Res_Y(F, F_y) = 0; R is F_x where
    # it is Y-free (the quartic) and Res_Y(F, F_x) where not (the quintic)
    "y2-quartic": (2, 4, [(0, 4, 0, 1), (1, 0, 3, 1), (2, 0, 2, 1),
                          (3, 0, 1, 1), (4, 0, 0, 1)]),
    "y2-quintic": (2, 5, [(0, 4, 1, 1), (1, 2, 2, 1), (5, 0, 0, 1),
                          (0, 0, 5, 1), (2, 0, 3, 1)]),
    # (x^2 + yz)^2: the conic divides F and its partials, so R = 0; it
    # meets z = 0, where its singular points are found first
    "squared-conic/F3": (3, 4, [(4, 0, 0, 1), (2, 1, 1, 2), (0, 2, 2, 1)]),
    "squared-conic/F5": (5, 4, [(4, 0, 0, 1), (2, 1, 1, 2), (0, 2, 2, 1)]),
    # the leading Y-coefficient of F is a multiple of x, and x divides R:
    # smooth over F_3 and F_5, and singular over F_27 above x = 0
    "lc-root/F3": (3, 5, [(0, 1, 4, 2), (0, 2, 3, 1), (0, 3, 2, 1),
                          (1, 2, 2, 2), (1, 3, 1, 1), (1, 4, 0, 2),
                          (2, 0, 3, 1), (4, 0, 1, 2)]),
    "lc-root/F5": (5, 4, [(0, 1, 3, 1), (0, 2, 2, 3), (1, 1, 2, 3),
                          (1, 3, 0, 2), (2, 0, 2, 3), (2, 2, 0, 3),
                          (3, 0, 1, 1), (4, 0, 0, 2)]),
    "lc-root-singular/F3": (3, 4, [(1, 0, 3, 2), (1, 2, 1, 1), (1, 3, 0, 2),
                                   (2, 0, 2, 1), (2, 2, 0, 2), (3, 1, 0, 2),
                                   (4, 0, 0, 2)]),
    "norm-quintic/F2": (2, 5, NORM_QUINTIC),
    # Fermat: F_x = d x^(d-1) is Y-free; x^d + y^d + z^d is (x + y + z)^d
    # when p = d, and smooth otherwise
    **{f"fermat{d}/F{p}": (p, d, fermat(d)) for p in (2, 3, 5) for d in (4, 5)},
}


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------


def test_genus_pinned(curve_catalog):
    pinned = {"P1/F2": 0, "E1": 1, "C2": 2, "C3": 3,
              "klein": 3,  # (4-1)(4-2)/2
              "E3": 1}
    for key, g in pinned.items():
        curve_catalog[key].validate()
        assert curve_catalog[key].genus() == g


# ---------------------------------------------------------------------------
# point counts vs pinned values / brute force
# ---------------------------------------------------------------------------


def test_projective_line_counts(curve_catalog):
    assert curve_catalog["P1/F2"].count_points(3) == 9  # q^3 + 1
    assert curve_catalog["P1/F3"].counts(2) == [4, 10]
    # the projective line scans nothing, so no budget refuses its counts
    assert curve_catalog["P1/F2"].counts(30, budget=1)[29] == 2 ** 30 + 1


def test_e1_counts(curve_catalog):
    # affine solutions plus one point at infinity (deg f = 3 odd)
    e1 = curve_catalog["E1"]
    assert e1.count_points(1) == 3
    assert e1.count_points(1) == brute_affine_solutions(e1, 1) + 1
    assert e1.count_points(2) == brute_affine_solutions(e1, 2) + 1 == 9


def test_e3_count(curve_catalog):
    e3 = curve_catalog["E3"]
    assert e3.count_points(1) == 4
    assert e3.count_points(1) == brute_affine_solutions(e3, 1) + 1


def test_count_series_weil_window(curve_catalog):
    counts = curve_catalog["E1"].counts(2)
    assert counts[0] == 3
    assert abs(counts[1] - 5) <= 2 * 2  # 2g q^(m/2) = 4 at g=1, q=2, m=2


def test_genus_10_counts_to_n11_match_zeta(F3):
    # N_11 is counted in F_(3^11), 177147 elements, with tables
    model = HyperellipticCurve.from_ints(F3, [], [1, 1] + [0] * 19 + [1])
    counts = model.counts(11)
    assert model.genus() == 10 and counts[10] == 175762
    z = zeta_from_counts(3, 10, counts[:10])
    assert counts == regenerate_counts(z, 11)
    assert zeta_from_counts(3, 10, counts) == z  # N_11 passes as the guard


@pytest.mark.parametrize("key", ["E1", "C2", "C3", "E3"])
def test_hyperelliptic_counts_match_pair_enumeration(curve_catalog, key):
    model = curve_catalog[key]
    assert len(model.f) % 2 == 0  # odd deg f: one point at infinity
    for m in (1, 2, 3):
        assert model.count_points(m) == brute_affine_solutions(model, m) + 1


def frobenius_orbit_count(q, m):
    """Burnside: the average number of x in F_(q^m) fixed by x -> x^(q^k)."""
    return sum(q ** math.gcd(k, m) for k in range(m)) // m


@pytest.mark.parametrize("p,m,over", [(3, 6, 1), (2, 8, 1), (2, 2, 2)],
                         ids=["F3^6", "F2^8", "F16/F4"])
def test_frobenius_orbits_partition_the_field(p, m, over):
    B = FiniteField.of_order(p, over)
    E = tabled_field(B, m)
    q = B.order
    orbits = list(_frobenius_orbits(E, q))
    assert sum(size for _, size in orbits) == E.order
    assert all(m % size == 0 for _, size in orbits)
    assert len(orbits) == frobenius_orbit_count(q, m)
    seen, partition = set(), set()
    for x, size in orbits:
        conjugates = {E.pow_c(x, q ** k) for k in range(m)}
        assert len(conjugates) == size and min(conjugates) == x
        assert not conjugates & seen
        seen |= conjugates
        partition.add(frozenset(conjugates))
    # the kernels' orbits, x = 0 and g^k over the cyclotomic cosets of k,
    # are the same sets with the same sizes
    reps = list(curves._orbit_reps(E, q, m))
    assert {frozenset(E.pow_c(x, q ** k) for k in range(m))
            for x, _ in reps} == partition
    assert sorted(size for _, size in reps) == \
        sorted(size for _, size in orbits)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 12), (3, 1), (3, 7), (4, 4),
                                 (5, 5), (7, 2), (9, 3)])
def test_cyclotomic_cosets_match_orbit_walk(q, m):
    # every orbit of k -> kq mod n walked and marked, least k first
    n = q ** m - 1
    seen, walked = bytearray(n), []
    for k in range(n):
        if not seen[k]:
            size, j = 0, k
            while not seen[j]:
                seen[j], size, j = 1, size + 1, j * q % n
            walked.append((k, size))
    assert list(curves._cyclotomic_cosets(q, m)) == walked


@pytest.mark.parametrize("h,f", [([], [1, 1, 0, 0, 0, 1]),
                                 ([0, 1], [2, 0, 0, 0, 0, 1])],
                         ids=["h=0", "h=x"])
def test_orbit_counts_match_pair_enumeration_over_f5(h, f):
    model = HyperellipticCurve.from_ints(FiniteField.prime(5), h, f,
                                         name="g2/F5")
    model.validate()
    assert model.genus() == 2
    for m in (1, 2):
        assert model.count_points(m) == brute_affine_solutions(model, m) + 1


def test_count_evaluates_once_per_frobenius_orbit(F3, monkeypatch):
    # F = h^2 + 4f is evaluated at x = 0 and at one x = g^k per cyclotomic
    # coset of k, never at every x
    model = HyperellipticCurve.from_ints(F3, [], [0, 1, 0, 0, 0, 1])
    model.validate()
    reps = []
    cosets = curves._cyclotomic_cosets

    def recorded(q, m):
        for k, size in cosets(q, m):
            reps.append((k, size))
            yield k, size

    monkeypatch.setattr(curves, "_cyclotomic_cosets", recorded)
    model.count_points(6)
    assert 1 + len(reps) == frobenius_orbit_count(3, 6) == 130
    n = 3 ** 6 - 1
    cosets = [{k * 3 ** i % n for i in range(6)} for k, _ in reps]
    assert [len(c) for c in cosets] == [size for _, size in reps]
    assert sorted(k for c in cosets for k in c) == list(range(n))


def random_smooth_models(base, seed, h_degrees, genus=2):
    """For each h degree (-1 for h = 0) and each deg f in {2g+1, 2g+2}, the
    first smooth model with seeded random coefficients (codes of the base
    field) and nonzero top coefficients."""
    rng = random.Random(seed)
    Q, g, out = base.order, genus, []
    for deg_h in h_degrees:
        for deg_f in (2 * g + 1, 2 * g + 2):
            while True:
                h = [rng.randrange(Q) for _ in range(deg_h)] + \
                    [rng.randrange(1, Q)] if deg_h >= 0 else []
                f = [rng.randrange(Q) for _ in range(deg_f)] + \
                    [rng.randrange(1, Q)]
                model = HyperellipticCurve(base, h, f, name=f"h={h} f={f}")
                if certificate_verdict(model) is None:
                    out.append(model)
                    break
    return out


@pytest.mark.parametrize("p,e,top", [(3, 1, 6), (5, 1, 6), (7, 1, 6),
                                     (3, 2, 5), (2, 2, 6), (2, 3, 5),
                                     (2, 4, 4)],
                         ids=["F3", "F5", "F7", "F9", "F4", "F8", "F16"])
def test_log_kernel_matches_orbit_oracle(p, e, top):
    # odd characteristic counts on logs, and F_4, F_8 and F_16 on bit
    # slices, against the per-x kernel; h = 0, a constant h and h of degree
    # 2, and deg f odd and even
    base = FiniteField.of_order(p, e)
    models = random_smooth_models(base, 2031 + base.order,
                                  (0, 2) if p == 2 else (-1, 0, 2))
    if e > 1:  # coefficients outside the prime field
        assert all(max(model.h + model.f) >= p for model in models)
    for model in models:
        for m in range(1, top + 1):
            assert model.count_points(m) == orbit_count(model, m), \
                (model.name, m)


def f2_config_curves():
    """The hyperelliptic curves over F_2 of the config files, bench
    workloads included."""
    root = pathlib.Path(__file__).resolve().parents[1]
    paths = sorted(root.glob("configs/*.json")) + \
        sorted(root.glob("bench/workloads/*.json"))
    return [build_curve(entry) for path in paths
            for entry in json.loads(path.read_text()).get("curves", [])
            if entry["kind"] == "hyperelliptic" and entry["p"] == 2
            and entry.get("e", 1) == 1]


def random_dense_f2_models(seed, genera):
    """Smooth models over F_2 with every coefficient of h and f drawn, h of
    degree 1..g+1 (so h != 1) and deg f in {2g+1, 2g+2}."""
    rng = random.Random(seed)
    out = []
    for g in genera:
        while True:
            h = [rng.randrange(2) for _ in range(rng.randint(1, g + 1))] + [1]
            f = [rng.randrange(2)
                 for _ in range(rng.choice((2 * g + 1, 2 * g + 2)))] + [1]
            model = HyperellipticCurve.from_ints(FiniteField.prime(2), h, f,
                                                 name=f"h={h} f={f}")
            if certificate_verdict(model) is None:
                out.append(model)
                break
    return out


def assert_sliced_matches_orbit_oracle(model, top):
    """The bit-sliced count equals the orbit kernel on a tabled F_(q^m),
    for m = 1..top."""
    for m in range(1, top + 1):
        assert model.count_points(m) == orbit_count(model, m), (model.name, m)


def test_sliced_counts_match_orbit_oracle_on_catalog_and_configs(
        curve_catalog):
    models = [model for model in curve_catalog.values()
              if model.kind == "hyperelliptic" and model.q == 2]
    models += f2_config_curves()
    assert len(models) >= 12  # E1, C2, C3, the demo and the workloads
    for model in models:
        assert_sliced_matches_orbit_oracle(model, min(2 * model.genus() + 2,
                                                      18))


def test_sliced_counts_match_orbit_oracle_on_random_dense_curves():
    # h has roots in some F_(2^m), so the h(x) = 0 branch is exercised
    for model in random_dense_f2_models(2027, [1, 2, 3, 4, 5, 6, 7, 8, 8]):
        assert_sliced_matches_orbit_oracle(model, 2 * model.genus() + 2)


def test_sliced_blocks_match_orbit_oracle(monkeypatch):
    # blocks of 4 codes: every F_(2^n), n > 2, runs the multi-block path,
    # and over F_4 the root search for the embedding runs it too
    monkeypatch.setattr(curves, "_BLOCK_BITS", 2)
    for model in random_dense_f2_models(2028, [1, 2, 3]):
        assert_sliced_matches_orbit_oracle(model, 2 * model.genus() + 2)
    for model in random_smooth_models(FiniteField.of_order(2, 2), 2028,
                                      (0, 2)):
        assert_sliced_matches_orbit_oracle(model, 5)


@pytest.mark.parametrize("block_bits", [20, 2])
def test_embedding_sends_a_to_the_least_root(monkeypatch, block_bits):
    # the image of a, the class of x in B = B'[x]/(mu), is the least root of
    # mu's image in K = F_(2^n), and the map respects sums and products;
    # F16/F4 is a tower, whose codes are digits over F_4
    monkeypatch.setattr(curves, "_BLOCK_BITS", block_bits)
    rng = random.Random(2032)
    F4 = FiniteField.of_order(2, 2)
    for B, n in [(F4, 2), (F4, 4), (F4, 6), (FiniteField.of_order(2, 3), 6),
                 (FiniteField.of_order(2, 4), 8), (FiniteField.of_order(2, 3), 9),
                 (FiniteField.extension(F4, 2), 8)]:
        E = FiniteField.of_order(2, n)
        E.build_tables()
        image = curves._SlicedField(E).embedding(B)
        mu = [image(c) for c in B.modulus]
        assert image(B.encode((0, 1))) == next(
            r for r in range(E.order) if _pc_eval(E, mu, r) == 0), (B, n)
        for _ in range(20):
            a, b = rng.randrange(B.order), rng.randrange(B.order)
            assert image(a ^ b) == image(a) ^ image(b)
            assert image(B.mul_c(a, b)) == E.mul_c(image(a), image(b))


def test_sliced_trace_bits_match_frobenius_trace():
    # Tr(t^i) from Newton's power sums against the Frobenius sum
    # t^i + t^(2i) + ... of the oracle
    for m in range(1, 21):
        E = FiniteField.of_order(2, m)
        assert curves._SlicedField(E)._trace == \
            [i for i in range(m) if frobenius_trace(E, 1 << i)], m


def test_f2_counts_build_no_tables(monkeypatch):
    # over F_2, F_4 and F_8, up to F_(2^12)
    models = random_dense_f2_models(2029, [2]) + [
        random_smooth_models(FiniteField.of_order(2, e), 2029, (2,))[0]
        for e in (2, 3)]
    oracle = [[orbit_count(model, m) for m in range(1, 12 // model.base.degree + 1)]
              for model in models]

    def no_tables(self):
        raise AssertionError("a count in characteristic 2 built field tables")

    monkeypatch.setattr(FiniteField, "build_tables", no_tables)
    for model, counts in zip(models, oracle):
        assert model.counts(len(counts)) == counts, model.name


def test_f4_count_beyond_the_table_limit():
    # F_(4^11) has 2^22 elements, over the 2^20 table limit: it passes the
    # count gate, and N_11 equals the count P(T) regenerates
    root = pathlib.Path(__file__).resolve().parents[1]
    entry, = json.loads((root / "configs/f4-g9.json").read_text())["curves"]
    model = build_curve(entry)
    assert model.q ** 11 > arith._TABLE_MAX_ORDER
    assert model.count_points(11) == regenerate_counts(model.zeta(), 11)[10]


def test_klein_quartic_counts(curve_catalog):
    # frozen off exhaustive projective enumeration; N_3 = 24 is the
    # classical count of the Klein quartic over F_8
    assert curve_catalog["klein"].counts(3) == [3, 5, 24]


# ---------------------------------------------------------------------------
# points at infinity for even-degree models
# ---------------------------------------------------------------------------


def test_even_degree_infinity_rules(F2, F3):
    # z^2 + z = 1 is irreducible over F_2: 0 points at infinity over F_2,
    # 2 over F_4
    c_irred = HyperellipticCurve.from_ints(
        F2, [0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf0")
    assert c_irred.count_points(1) == brute_affine_solutions(c_irred, 1)
    assert c_irred.count_points(2) == brute_affine_solutions(c_irred, 2) + 2
    # h_(g+1) = 0: z^2 = 1 has exactly one root in characteristic 2
    c_ram = HyperellipticCurve.from_ints(
        F2, [0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf1")
    assert c_ram.count_points(1) == brute_affine_solutions(c_ram, 1) + 1
    # odd characteristic: number of square roots of the leading coefficient
    c_split = HyperellipticCurve.from_ints(
        F3, [], [0, 1, 0, 0, 0, 0, 1], name="inf2")  # 1 is a square: 2 points
    assert c_split.count_points(1) == brute_affine_solutions(c_split, 1) + 2
    c_inert = HyperellipticCurve.from_ints(
        F3, [], [0, 1, 0, 0, 0, 0, 2], name="inf0-odd")  # 2 is not a square
    assert c_inert.count_points(1) == brute_affine_solutions(c_inert, 1)
    # odd characteristic with h_(g+1) != 0: z^2 + z = f_6 over F_3 has
    # discriminant 1 + f_6, giving 0 roots for f_6 = 1 and 1 for f_6 = 2
    # (f_5 != 0 keeps deg(h^2 + 4f) = 2g+1, so the model stays smooth)
    c_h0 = HyperellipticCurve.from_ints(
        F3, [0, 0, 0, 1], [0, 1, 0, 0, 0, 0, 1], name="inf0-h")
    assert c_h0.count_points(1) == brute_affine_solutions(c_h0, 1)
    c_h1 = HyperellipticCurve.from_ints(
        F3, [0, 0, 0, 1], [0, 1, 0, 0, 0, 1, 2], name="inf1-h")
    assert c_h1.count_points(1) == brute_affine_solutions(c_h1, 1) + 1


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
        nodal.validate()
    assert exc.value.witness == (1, 0, 0)


def test_cusp_rejected(F3):
    cusp = HyperellipticCurve.from_ints(F3, [], [0, 0, 0, 1], name="cusp")
    with pytest.raises(SingularModelError) as exc:
        cusp.validate()
    assert exc.value.witness == (1, 0, 0)


@pytest.mark.parametrize("p,h,f", [(3, [0, 0, 1], [1, 0, 1, 0, 2]),
                                   (2, [1], [0, 0, 0, 0, 1])],
                         ids=["conic", "genus-0"])
def test_degenerate_at_infinity_rejected(p, h, f):
    # deg(h^2 + 4f) = 2 <= 2g, and y^2 + y = x^4 with h_2 = f_3 = h_1 = 0
    model = HyperellipticCurve.from_ints(FiniteField.prime(p), h, f,
                                         name="degen")
    with pytest.raises(SingularModelError) as exc:
        model.validate()
    assert exc.value.witness == (1, "infinity", 1)
    assert "degen" in str(exc.value) and "infinity" in str(exc.value)


def test_odd_degree_f_with_top_h_has_two_points_at_infinity(F2):
    # y^2 + (x^2 + 1) y = x^3 + 1: z^2 + z = 0 at infinity has 2 roots
    model = HyperellipticCurve.from_ints(F2, [1, 0, 1], [1, 0, 0, 1],
                                         name="odd-f-top-h")
    counts = [model.count_points(m) for m in range(1, 5)]
    assert counts == regenerate_counts(zeta_from_counts(2, 1, counts[:1]), 4)
    assert counts[0] == brute_affine_solutions(model, 1) + 2


def test_low_degree_discriminant_stays_accepted(F3):
    # deg(h^2 + 4f) = 3 = 2g+1 although h_2^2 + 4 f_4 = 0: smooth at
    # infinity, with one rational point there
    model = HyperellipticCurve.from_ints(F3, [0, 0, 1], [0, 1, 0, 1, 2],
                                         name="F-deg-3")
    counts = model.counts(4)
    assert counts == [4, 16, 28, 64]
    assert counts == regenerate_counts(
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
        counts = [model.count_points(m) for m in range(1, 2 * g + 3)]
        z = zeta_from_counts(model.q, g, counts[:g])
        assert counts == regenerate_counts(z, 2 * g + 2), model.name
    assert accepted >= 300


def test_singular_plane_curve_rejected(F2):
    triangle = PlaneCurve.from_list(F2, [(1, 1, 1, 1)], 3, name="xyz")
    with pytest.raises(SingularModelError) as exc:
        triangle.validate()
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
        model.validate()
    w = exc.value.witness
    assert w[0] == m and w[3] == 1
    assert plane_singular_at(model, FiniteField.extension(F2, m), w[1:])
    assert plane_scan_verdict(model, m - 1) is None


# ---------------------------------------------------------------------------
# invariants: Weil bound, budget
# ---------------------------------------------------------------------------


def test_point_counts_weil_enforced(monkeypatch):
    # a genus-0 count off q^m + 1 leaves the Weil interval at once
    line = ProjectiveLine(FiniteField.prime(2), name="P1/F2")
    assert line.counts(2) == [3, 5]
    monkeypatch.setattr(ProjectiveLine, "_count",
                        lambda self, m: self.q ** m + 1 + (m == 2))
    with pytest.raises(InconsistentCountsError) as exc:
        line.counts(2)
    assert str(exc.value).startswith("N_2 = 6 violates the Weil bound")


def test_weil_bound_on_catalog(curve_catalog):
    for model in curve_catalog.values():
        g = model.genus()
        counts = model.counts(max(2 * g, 2))
        assert counts == [model.count_points(m)
                          for m in range(1, len(counts) + 1)]
        for m, n_m in enumerate(counts, start=1):
            dev = n_m - model.q ** m - 1
            assert dev * dev <= 4 * g * g * model.q ** m


def test_budget_exceeded(curve_catalog):
    # every count is charged q^m, the elements of the field it scans
    with pytest.raises(BudgetExceededError):
        curve_catalog["E1"].count_points(30, budget=1 << 10)
    with pytest.raises(BudgetExceededError):
        curve_catalog["klein"].count_points(11, budget=1 << 10)
    assert curve_catalog["klein"].count_points(10, budget=1 << 10) > 0


def test_budget_refuses_cached_counts(curve_catalog):
    model = curve_catalog["E1"]
    model.count_points(5)
    with pytest.raises(BudgetExceededError, match="budget 16"):
        model.count_points(5, budget=16)


def test_count_above_table_limit_refused_fast(F3, count_log):
    # g = 11 over F_3: N_12 is the last count under the table limit; N_13
    # would scan 3^13 elements on digit polynomials, inside the default
    # budget; counts(13) is refused with the same text before N_1..N_12 run
    model = HyperellipticCurve.from_ints(F3, [], [2, 2] + [0] * 21 + [1],
                                         name="g11")
    for call in (model.count_points, model.counts):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError,
                           match=r"point count for g11 over GF\(3\^13\) of "
                                 r"size 1594323 exceeds the table limit "
                                 r"1048576"):
            call(13)
        assert time.perf_counter() - start < 1.0
    assert count_log == []


def test_f2_count_charged_against_the_budget_alone(F2, count_log):
    # over F_2 no table is built: a budget below 2^21 refuses N_21 before
    # N_1..N_20 run, and the default budget admits it (two blocks of 2^20
    # codes), and N_22 (four), with the counts P(T) regenerates
    model = HyperellipticCurve.from_ints(F2, [1], [0, 1] + [0] * 19 + [1],
                                         name="g10")
    for call in (model.count_points, model.counts):
        with pytest.raises(BudgetExceededError,
                           match=r"point count for g10 over GF\(2\^21\) of "
                                 r"size 2097152 exceeds the budget 2097151"):
            call(21, (1 << 21) - 1)
    assert count_log == []
    count_log.real = True
    z = zeta_from_counts(2, 10, model.counts(10))
    assert [model.count_points(m) for m in (21, 22)] == \
        regenerate_counts(z, 22)[20:]


def test_plane_certificate_above_table_limit_refused_fast():
    # the Fermat sextic over F_5 (g = 10) is certified smooth with no field
    # scanned; its point counts are held to the table limit, and counts(11)
    # is refused before N_1 is counted
    model = PlaneCurve.from_list(FiniteField.prime(5), fermat(6), 6,
                                 name="fermat6")
    start = time.perf_counter()
    model.validate()
    with pytest.raises(BudgetExceededError,
                       match=r"point count for fermat6 over GF\(5\^11\) .* "
                             r"exceeds the table limit"):
        model.counts(11)
    assert time.perf_counter() - start < 1.0


def test_plane_certificate_stops_at_its_witness(monkeypatch):
    # x^5 + y^5 + x^2 y^2 z is singular at (0:0:1), a point over F_3 itself,
    # so the certificate needs none of F_(3^2)..F_(3^10)
    extension, degrees = FiniteField.extension, []

    def recorded(cls, base, m):
        degrees.append(m)
        return extension(base, m)

    monkeypatch.setattr(FiniteField, "extension", classmethod(recorded))
    model = PlaneCurve.from_list(
        FiniteField.prime(3), [(5, 0, 0, 1), (0, 5, 0, 1), (2, 2, 1, 1)], 5,
        name="quintic")
    with pytest.raises(SingularModelError) as exc:
        model.validate()
    assert exc.value.witness == (1, 0, 0, 1)
    assert degrees == [1]  # F_3 itself, and no extension


def test_counts_deterministic(curve_catalog):
    model = curve_catalog["C3"]
    assert [model.count_points(m) for m in (1, 2, 3)] == \
        [model.count_points(m) for m in (1, 2, 3)]


def test_curve_over_extension_base_field(curve_catalog):
    # the base-change of y^2 + y = x^3 to F_4: counting runs through
    # relative tower extensions F_4 -> F_16 and must agree with counting
    # the F_2 model over the even-degree extensions
    F4 = FiniteField.of_order(2, 2)
    e4 = HyperellipticCurve.from_ints(F4, [1], [0, 0, 0, 1], name="E1xF4")
    e4.validate()
    assert e4.genus() == 1
    e1 = curve_catalog["E1"]
    for m in (1, 2, 3):
        assert e4.count_points(m) == e1.count_points(2 * m)
    assert e4.count_points(1) == brute_affine_solutions(e4, 1) + 1


def test_klein_certificate_builds_no_field(F2, monkeypatch):
    # R = gcd(Res_Y(F_x, F_y), Res_Y(F, F_y)) = gcd(x^7 + 1, x^2) = 1
    def refused(*args, **kw):
        raise AssertionError("validate() built a field or a table")

    monkeypatch.setattr(FiniteField, "extension", classmethod(refused))
    monkeypatch.setattr(FiniteField, "build_tables", refused)
    PlaneCurve.from_list(F2, KLEIN, 4, name="klein-cert").validate()


def test_plane_certificate_budget_names_model(F2):
    # the quintic's singular points lie over F_32: the witness search scans
    # F_2..F_16 and is refused at F_32
    model = PlaneCurve.from_list(F2, NORM_QUINTIC, 5, name="norm-budget")
    with pytest.raises(BudgetExceededError, match=r"smoothness certificate "
                                                  r"for norm-budget over "
                                                  r"GF\(2\^5\)"):
        model.validate(budget=16)


def test_plane_certificate_agrees_with_scan_oracle():
    # degree-5 forms over F_5 are left out: the oracle would scan F_(5^10),
    # above the table limit
    models = random_plane_models(2026, 320) + random_quartics(2026, 4) + \
        random_plane_models(2026, 24, (2, 3, 5), (4,)) + \
        random_plane_models(2026, 8, (2, 3), (5,)) + \
        [PlaneCurve.from_list(FiniteField.prime(p), entries, d, name=name)
         for name, (p, d, entries) in DEGENERATE_FORMS.items()]
    singular = 0
    for model in models:
        oracle, cert = plane_scan_oracle(model), certificate_verdict(model)
        assert oracle == cert, (model.name, oracle, cert)
        if cert is None:
            for m in (1, 2, 3):
                assert model.count_points(m) == \
                    plane_enumerated_count(model, m), (model.name, m)
            # `zeta` enumerates only to N_(g+1); the kernel beyond that is
            # held to the counts P(T) regenerates, to N_(2g+2), where that
            # field is small
            g = model.genus()
            if model.q ** (2 * g + 2) <= 1 << 14:
                counts = [model.count_points(m) for m in range(1, 2 * g + 3)]
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
    assert [klein.count_points(m) for m in range(1, 9)] == \
        [plane_enumerated_count(klein, m) for m in range(1, 9)]
