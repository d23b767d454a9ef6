import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunzeta.arith import (
    BudgetExceededError,
    FiniteField,
    _pc_add,
    _pc_deriv,
    _pc_mul,
    _pc_sub,
    _pc_trim,
    ext_field,
    moebius,
)
from bunzeta.curves import HyperellipticCurve, _eval_codes, count_points


# ---------------------------------------------------------------------------
# irreducible moduli
# ---------------------------------------------------------------------------


def brute_is_irreducible(p, coeffs):
    """Oracle: trial division by every lower-degree monic polynomial."""
    m = len(coeffs) - 1

    def polymul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
        return out

    for d in range(1, m):
        for lower in itertools.product(range(p), repeat=d):
            divisor = list(lower) + [1]
            for e in range(1, m - d + 1):
                for lo2 in itertools.product(range(p), repeat=e):
                    if e + d != m:
                        continue
                    other = list(lo2) + [1]
                    if polymul(divisor, other) == list(coeffs):
                        return False
    return True


def test_find_irreducible_pinned():
    assert ext_field(2, 1).modulus == (0, 1)        # x
    assert ext_field(2, 2).modulus == (1, 1, 1)     # x^2+x+1
    assert ext_field(3, 2).modulus == (1, 0, 1)     # x^2+1


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_find_irreducible_vs_trial_division(p, m):
    codes = list(ext_field(p, m).modulus)
    assert codes[-1] == 1
    assert brute_is_irreducible(p, codes)
    # minimality: every lexicographically smaller monic vector is reducible
    for lower in itertools.product(range(p), repeat=m):
        cand = list(lower) + [1]
        if cand == codes:
            break
        assert not brute_is_irreducible(p, cand)


def test_find_irreducible_rejects_degree_zero():
    with pytest.raises(ValueError):
        ext_field(2, 0)


# ---------------------------------------------------------------------------
# field construction and enumeration
# ---------------------------------------------------------------------------


def test_field_elements_f2():
    F2 = ext_field(2, 1)
    assert [[F2.mul_c(a, b) for b in range(2)] for a in range(2)] == \
        [[0, 0], [0, 1]]
    assert [[F2.add_c(a, b) for b in range(2)] for a in range(2)] == \
        [[0, 1], [1, 0]]


def test_field_elements_f4_frobenius():
    F4 = ext_field(2, 2)
    for e in range(4):
        sq = F4.mul_c(e, e)
        assert F4.mul_c(sq, sq) == e


def test_f9_has_four_nonzero_squares():
    F9 = ext_field(3, 2)
    squares = {F9.mul_c(e, e) for e in range(1, 9)}
    assert len(squares) == 4


def test_field_elements_budget():
    # a count over F_(2^20) enumerates the field; the budget stops it first
    E1 = HyperellipticCurve.from_ints(ext_field(2, 1), [1], [0, 0, 0, 1])
    with pytest.raises(BudgetExceededError) as exc:
        count_points(E1, 20, budget=1 << 10)
    assert exc.value.size == 1 << 20


@pytest.mark.parametrize("p,m", [(2, 12), (3, 5), (5, 3), (7, 2), (2, 6)])
def test_frobenius_identity_exhaustive(p, m):
    F = ext_field(p, m)
    assert F.order == p ** m <= 1 << 12
    F.build_tables()  # the counting kernels run with tables; so does this
    assert all(F.pow_c(a, F.order) == a for a in range(F.order))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (2, 8), (5, 2), (3, 4)]),
       st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_field_axioms_sampled(pm, x, y, z):
    F = ext_field(*pm)
    a, b, c = x % F.order, y % F.order, z % F.order
    assert F.add_c(a, b) == F.add_c(b, a)
    assert F.mul_c(a, b) == F.mul_c(b, a)
    assert F.mul_c(F.mul_c(a, b), c) == F.mul_c(a, F.mul_c(b, c))
    assert F.add_c(F.add_c(a, b), c) == F.add_c(a, F.add_c(b, c))
    assert F.mul_c(a, F.add_c(b, c)) == F.add_c(F.mul_c(a, b), F.mul_c(a, c))
    assert F.add_c(a, F.neg_c(a)) == 0
    if b:
        assert F.mul_c(F.mul_c(a, b), F.inv_c(b)) == a


def test_relative_tower_is_a_field():
    F9 = ext_field(3, 2)
    F81 = FiniteField.extension(F9, 2)
    assert F81.order == 81
    assert all(F81.pow_c(a, 81) == a for a in range(81))
    # base-field codes embed as constants: arithmetic must agree
    for a in range(9):
        for b in range(9):
            assert F9.mul_c(a, b) == F81.mul_c(a, b)
            assert F9.add_c(a, b) == F81.add_c(a, b)


def digit_walk_copy(F):
    """Oracle: F with the same moduli down the tower and no tables, so
    extension-field arithmetic runs on digit polynomials over the base
    field (the ``_pc_*`` helpers)."""
    if F.base is None:
        return F
    return FiniteField.extension(digit_walk_copy(F.base), F.rel_degree,
                                 modulus=F.modulus)


def raise_digit_walk(monkeypatch, F):
    """Make every base-field addition raise, so arithmetic on F that
    falls back to digit polynomials fails."""
    def walked(*args):
        raise AssertionError(f"{F} walked base-field digits")

    for op in ("add_c", "neg_c", "sub_c"):
        monkeypatch.setattr(F.base, op, walked)


@pytest.mark.parametrize("p,m,over", [(3, 2, 1), (3, 3, 1), (5, 2, 1),
                                      (7, 2, 1), (3, 2, 2)],
                         ids=["F9", "F27", "F25", "F49", "F81/F9"])
def test_zech_addition_matches_digit_walk(p, m, over, monkeypatch):
    F = FiniteField.extension(ext_field(p, over), m)
    oracle = digit_walk_copy(F)
    assert oracle._exp is None
    pairs = list(itertools.product(range(F.order), repeat=2))
    expected = ([oracle.add_c(a, b) for a, b in pairs],
                [oracle.sub_c(a, b) for a, b in pairs],
                [oracle.neg_c(a) for a in range(F.order)])
    F.build_tables()
    raise_digit_walk(monkeypatch, F)
    assert ([F.add_c(a, b) for a, b in pairs],
            [F.sub_c(a, b) for a, b in pairs],
            [F.neg_c(a) for a in range(F.order)]) == expected


@pytest.mark.parametrize("p,m,over", [(2, 4, 1), (3, 3, 1), (2, 3, 2),
                                      (3, 2, 2)],
                         ids=["F16", "F27", "F64/F4", "F81/F9"])
def test_table_less_arithmetic_matches_tables(p, m, over, monkeypatch):
    F = FiniteField.extension(ext_field(p, over), m)
    oracle = digit_walk_copy(F)
    assert oracle._exp is None
    elements = range(F.order)
    pairs = list(itertools.product(elements, repeat=2))

    def table(K):
        return ([K.add_c(a, b) for a, b in pairs],
                [K.sub_c(a, b) for a, b in pairs],
                [K.mul_c(a, b) for a, b in pairs],
                [K.neg_c(a) for a in elements],
                [K.inv_c(a) for a in elements if a])

    expected = table(oracle)
    F.build_tables()
    raise_digit_walk(monkeypatch, F)
    assert table(F) == expected


def test_zech_addition_sampled_in_f3_9(monkeypatch):
    F = ext_field(3, 9)
    oracle = digit_walk_copy(F)
    rng = random.Random(9)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order))
             for _ in range(10 ** 4)]
    expected = [(oracle.add_c(a, b), oracle.sub_c(a, b), oracle.neg_c(a))
                for a, b in pairs]
    F.build_tables()
    raise_digit_walk(monkeypatch, F)
    assert [(F.add_c(a, b), F.sub_c(a, b), F.neg_c(a))
            for a, b in pairs] == expected


def test_explicit_modulus_validation():
    F2 = ext_field(2, 1)
    with pytest.raises(ValueError):
        FiniteField.extension(F2, 2, modulus=(1, 0, 1))  # (x+1)^2, reducible
    F4 = FiniteField.extension(F2, 2, modulus=(1, 1, 1))
    assert F4.order == 4


def test_quadratic_root_counts_match_enumeration():
    for pm in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)]:
        F = ext_field(*pm)
        F.build_tables()
        for a in range(F.order):
            for c in range(F.order):
                brute = sum(
                    1 for y in range(F.order)
                    if F.add_c(F.mul_c(y, y), F.mul_c(a, y)) == c)
                assert F.quadratic_root_count(a, c) == brute, (pm, a, c)


# ---------------------------------------------------------------------------
# exact rationals
# ---------------------------------------------------------------------------


nonzero_rationals = st.fractions(
    min_value=Fraction(-10 ** 6), max_value=Fraction(10 ** 6)).filter(bool)


@given(nonzero_rationals, nonzero_rationals)
def test_rational_inverse_product(a, b):
    assert (a / b) * (b / a) == 1


@given(st.fractions())
def test_rational_normalization(x):
    assert x.denominator > 0
    from math import gcd
    assert gcd(x.numerator, x.denominator) == 1
    assert Fraction(x.numerator, x.denominator) == x


# ---------------------------------------------------------------------------
# polynomials over element codes
# ---------------------------------------------------------------------------


def test_dense_poly_normalizes_leading_zeroes():
    F3 = ext_field(3, 1)
    assert _pc_trim([1, 0, 0]) == [1]
    assert _pc_trim([]) == [] and _pc_trim([0, 0]) == []
    assert _pc_add(F3, [0, 0, 1], [0, 0, 2]) == []  # x^2 - x^2 = 0


F9_polys = st.lists(st.integers(min_value=0, max_value=8), max_size=6)


@settings(max_examples=80, deadline=None)
@given(F9_polys, F9_polys, st.integers(min_value=0, max_value=8))
def test_poly_evaluation_is_ring_homomorphism(a, b, x):
    F = ext_field(3, 2)

    def ev(cs):
        return _eval_codes(F, cs, x)

    assert ev(_pc_add(F, a, b)) == F.add_c(ev(a), ev(b))
    assert ev(_pc_mul(F, a, b)) == F.mul_c(ev(a), ev(b))
    assert ev(_pc_sub(F, [], a)) == F.neg_c(ev(a))


def test_poly_evaluation_over_field_elements():
    F9 = ext_field(3, 2)
    pa, pb = [1, 2, 0, 1], [2, 2]
    for x in range(9):
        ea, eb = _eval_codes(F9, pa, x), _eval_codes(F9, pb, x)
        assert _eval_codes(F9, _pc_mul(F9, pa, pb), x) == F9.mul_c(ea, eb)
        assert _eval_codes(F9, _pc_add(F9, pa, pb), x) == F9.add_c(ea, eb)


def test_poly_derivative():
    F7 = ext_field(7, 1)
    assert _pc_deriv(F7, [5, 3, 0, 2]) == [3, 0, 6]
    # derivative kills p-th powers in characteristic p
    F2 = ext_field(2, 1)
    assert _pc_deriv(F2, [1, 0, 1]) == []  # 1 + x^2


def test_moebius_small_values():
    assert [moebius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]
