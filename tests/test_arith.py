import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bunzeta import arith
from bunzeta.arith import (
    BudgetExceededError,
    FiniteField,
    _lex_smallest_irreducible_codes,
    _pc_add,
    _pc_deriv,
    _pc_distinct_degree,
    _pc_eval,
    _pc_gcd,
    _pc_is_irreducible,
    _pc_mod,
    _pc_mul,
    _pc_powmod,
    _pc_quo,
    _pc_sub,
    _pc_trim,
    divisors,
    is_prime,
    is_prime_power,
    moebius,
)
from bunzeta.curves import HyperellipticCurve


# ---------------------------------------------------------------------------
# irreducible moduli
# ---------------------------------------------------------------------------


def trial_division_is_irreducible(B, f):
    """Oracle: f (monic, degree m >= 1, codes over B) has no monic divisor
    of degree 1..m/2, found by long division."""
    m = len(f) - 1
    for d in range(1, m // 2 + 1):
        for lower in itertools.product(range(B.order), repeat=d):
            rem = list(f)
            for k in range(m, d - 1, -1):
                c = rem[k]
                for i, di in enumerate(lower):
                    rem[k - d + i] = B.sub_c(rem[k - d + i], B.mul_c(c, di))
            if not any(rem[:d]):
                return False
    return True


# the canonical (lex-smallest) moduli over F_p, little-endian coefficient
# digits; they fix every field's codes, hence every reported witness
CANONICAL_MODULI = {
    2: {2: "111", 3: "1011", 4: "10011", 5: "100101", 6: "1000011",
        7: "10000011", 8: "100011011", 9: "1000000011", 10: "10000001001",
        11: "100000000101", 12: "1000000001001", 13: "10000000011011",
        14: "100000000100001", 15: "1000000000000011",
        16: "10000000000101011", 17: "100000000000001001",
        18: "1000000000000001001", 19: "10000000000000100111",
        20: "100000000000000001001"},
    3: {2: "101", 3: "1021", 4: "10111", 5: "100021", 6: "1000111",
        7: "10000121", 8: "100001101", 9: "1000002101", 10: "10000000201",
        11: "100000000121", 12: "1000000010011"},
    5: {2: "111", 3: "1011", 4: "10111", 5: "100041", 6: "1000111",
        7: "10000011", 8: "100001101"},
    7: {2: "101", 3: "1011", 4: "10011", 5: "100031", 6: "1000101",
        7: "10000061"},
}


def test_find_irreducible_pinned():
    assert FiniteField.prime(2).modulus == (0, 1)        # x
    assert FiniteField.of_order(2, 2).modulus == (1, 1, 1)     # x^2+x+1
    assert FiniteField.of_order(3, 2).modulus == (1, 0, 1)     # x^2+1
    assert {p: {m: "".join(map(str, FiniteField.of_order(p, m).modulus))
                for m in row}
            for p, row in CANONICAL_MODULI.items()} == CANONICAL_MODULI


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_find_irreducible_vs_trial_division(p, m):
    B = FiniteField.prime(p)
    codes = list(FiniteField.of_order(p, m).modulus)
    assert codes[-1] == 1
    assert trial_division_is_irreducible(B, codes)
    # minimality: every lexicographically smaller monic vector is reducible
    for lower in itertools.product(range(p), repeat=m):
        cand = list(lower) + [1]
        if cand == codes:
            break
        assert not trial_division_is_irreducible(B, cand)


@pytest.mark.parametrize("base,top", [((2, 1), 10), ((3, 1), 6), ((5, 1), 4),
                                      ((2, 2), 4)],
                         ids=["F2", "F3", "F5", "F4"])
def test_is_irreducible_matches_trial_division(base, top):
    B = FiniteField.of_order(*base)
    for m in range(1, top + 1):
        for lower in itertools.product(range(B.order), repeat=m):
            f = list(lower) + [1]
            assert _pc_is_irreducible(B, f) == \
                trial_division_is_irreducible(B, f), (B, f)


def plain_ben_or_search(B, m):
    """Oracle: the first monic degree-m coefficient vector in lexicographic
    order that passes Ben-Or's test, with no candidate skipped."""
    for lower in itertools.product(range(B.order), repeat=m):
        f = list(lower) + [1]
        if _pc_is_irreducible(B, f):
            return tuple(f)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_modulus_search_matches_plain_ben_or(p):
    # skipping constant term 0 and roots in F_p changes no modulus
    B = FiniteField.prime(p)
    for m in range(2, 17):
        if p ** m <= 1 << 16:
            assert _lex_smallest_irreducible_codes(B, m) == \
                plain_ben_or_search(B, m), (p, m)


def inline_distinct_degree_parts(B, S):
    """Oracle: the distinct-degree loop as the plane certificate ran it
    inline before ``_pc_distinct_degree`` existed."""
    parts = []
    h, k = [0, 1], 0
    while len(S) > 1:
        k += 1
        h = _pc_powmod(B, h, B.order, S)
        M = _pc_gcd(B, S, _pc_sub(B, h, [0, 1]))
        if len(M) > 1:
            parts.append((M, k))
            S = _pc_quo(B, S, M)
    return parts


@pytest.mark.parametrize("base", [(2, 1), (3, 1), (2, 2)],
                         ids=["F2", "F3", "F4"])
def test_distinct_degree_parts(base):
    # products of random monic factors with multiplicities 1-3
    B = FiniteField.of_order(*base)
    rng = random.Random(2035 + B.order)
    for _ in range(150):
        S = [1]
        for _ in range(rng.randint(1, 3)):
            factor = [rng.randrange(B.order)
                      for _ in range(rng.randint(1, 4))] + [1]
            for _ in range(rng.randint(1, 3)):
                S = _pc_mul(B, S, factor)
        parts = list(_pc_distinct_degree(B, S, len(S)))
        assert parts == inline_distinct_degree_parts(B, S), (B, S)
        product = [1]
        for M, k in parts:
            # M divides x^(Q^k) - x: x^(Q^k) = x modulo M
            assert _pc_powmod(B, [0, 1], B.order ** k, M) == \
                _pc_mod(B, [0, 1], M), (B, S, M, k)
            product = _pc_mul(B, product, M)
        # equal up to a unit, as each part is a gcd
        assert _pc_mul(B, [B.inv_c(product[-1])], product) == S, (B, S)


def test_find_irreducible_rejects_degree_zero():
    with pytest.raises(ValueError):
        FiniteField.of_order(2, 0)


# ---------------------------------------------------------------------------
# field construction and enumeration
# ---------------------------------------------------------------------------


def test_field_elements_f2():
    F2 = FiniteField.prime(2)
    assert [[F2.mul_c(a, b) for b in range(2)] for a in range(2)] == \
        [[0, 0], [0, 1]]
    assert [[F2.add_c(a, b) for b in range(2)] for a in range(2)] == \
        [[0, 1], [1, 0]]


def test_field_elements_f4_frobenius():
    F4 = FiniteField.of_order(2, 2)
    for e in range(4):
        sq = F4.mul_c(e, e)
        assert F4.mul_c(sq, sq) == e


def test_f9_has_four_nonzero_squares():
    F9 = FiniteField.of_order(3, 2)
    squares = {F9.mul_c(e, e) for e in range(1, 9)}
    assert len(squares) == 4


def test_field_elements_budget():
    # a count over F_(2^20) enumerates the field; the budget stops it first
    E1 = HyperellipticCurve.from_ints(FiniteField.prime(2), [1], [0, 0, 0, 1])
    with pytest.raises(BudgetExceededError) as exc:
        E1.count_points(20, budget=1 << 10)
    assert exc.value.size == 1 << 20


@pytest.mark.parametrize("p,m", [(2, 12), (3, 5), (5, 3), (7, 2), (2, 6)])
def test_frobenius_identity_exhaustive(p, m):
    F = FiniteField.of_order(p, m)
    assert F.order == p ** m <= 1 << 12
    F.build_tables()  # the counting kernels run with tables; so does this
    assert all(F.pow_c(a, F.order) == a for a in range(F.order))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([(2, 3), (3, 2), (2, 8), (5, 2), (3, 4)]),
       st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9),
       st.integers(min_value=0, max_value=10 ** 9))
def test_field_axioms_sampled(pm, x, y, z):
    F = FiniteField.of_order(*pm)
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
    F9 = FiniteField.of_order(3, 2)
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
    field (the ``_pc_*`` helpers), and prime-field arithmetic on integers."""
    base = None if F.base is None else digit_walk_copy(F.base)
    return FiniteField(base, F.modulus, F.char)


def raise_digit_walk(monkeypatch, F):
    """Make every base-field addition raise, so arithmetic on F that
    falls back to digit polynomials fails."""
    def walked(*args):
        raise AssertionError(f"{F} walked base-field digits")

    for op in ("add_c", "neg_c", "sub_c"):
        monkeypatch.setattr(F.base, op, walked)


def mul_c_walk_tables(F):
    """Oracle: exp, log and zech of F by their definitions on a table-less
    copy: g^k by one ``mul_c`` per power, zech[k] = log(g^k + 1) by ``add_c``
    (only odd-characteristic extensions have a zech table)."""
    K = digit_walk_copy(F)
    n = F.order - 1
    g = K._find_generator()
    exp, log = [], [0] * F.order
    c = 1
    for k in range(n):
        exp.append(c)
        log[c] = k
        c = K.mul_c(c, g)
    assert c == 1
    zech = None
    if F.char != 2 and F.base is not None:
        zech = [log[d] if (d := K.add_c(c, 1)) else -1 for c in exp]
    return exp + exp, log, zech


PRIME_BASE_UP_TO_2_12 = [(p, m) for p in (2, 3, 5, 7)
                         for m in range(1, 13) if p ** m <= 1 << 12]


@pytest.mark.parametrize("p,m,over", [(p, m, 1) for p, m in PRIME_BASE_UP_TO_2_12]
                         + [(2, 3, 2), (2, 2, 3), (3, 2, 2), (3, 3, 2)],
                         ids=[f"F{p}^{m}" for p, m in PRIME_BASE_UP_TO_2_12]
                         + ["F64/F4", "F64/F8", "F81/F9", "F729/F9"])
def test_tables_match_mul_c_walk(p, m, over):
    F = FiniteField.extension(FiniteField.of_order(p, over), m)
    expected = mul_c_walk_tables(F)
    F.build_tables()
    zech = None if F._zech is None else list(F._zech)
    assert (list(F._exp), list(F._log), zech) == expected


@pytest.mark.parametrize("p,m,over", [(3, 2, 1), (3, 3, 1), (5, 2, 1),
                                      (7, 2, 1), (3, 2, 2)],
                         ids=["F9", "F27", "F25", "F49", "F81/F9"])
def test_zech_addition_matches_digit_walk(p, m, over, monkeypatch):
    F = FiniteField.extension(FiniteField.of_order(p, over), m)
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
    F = FiniteField.extension(FiniteField.of_order(p, over), m)
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


def check_zech_addition_sampled(F, monkeypatch, seed):
    oracle = digit_walk_copy(F)
    rng = random.Random(seed)
    pairs = [(rng.randrange(F.order), rng.randrange(F.order))
             for _ in range(10 ** 4)]
    expected = [(oracle.add_c(a, b), oracle.sub_c(a, b), oracle.neg_c(a))
                for a, b in pairs]
    F.build_tables()
    assert F._zech is not None
    raise_digit_walk(monkeypatch, F)
    assert [(F.add_c(a, b), F.sub_c(a, b), F.neg_c(a))
            for a, b in pairs] == expected


def test_zech_addition_sampled_in_f3_9(monkeypatch):
    check_zech_addition_sampled(FiniteField.of_order(3, 9), monkeypatch, 9)


def test_zech_addition_sampled_in_f3_11(monkeypatch):
    check_zech_addition_sampled(FiniteField.of_order(3, 11), monkeypatch, 11)


# exponents below 2^19: a seeded a in F_(3^13) has order 797161 or twice
# that (3^13 - 1 = 2 * 797161), so no partial power a^j, j > 1, equals a,
# and a call with equal arguments is a squaring
CHAIN_EXPONENTS = [1, 2, 3, 4, 7, 8, 243, 1000, (1 << 19) - 1, 1 << 18] + \
    [random.Random(2032).getrandbits(19) for _ in range(4)]


def chain_cost(e):
    """(squarings, products) of a left-to-right chain for a^e."""
    return e.bit_length() - 1, e.bit_count() - 1


def right_to_left_power(F, x, e):
    """Oracle: x^e in F, right to left, one ``mul_c`` per bit and set bit."""
    power = 1
    for k in range(e.bit_length()):
        if e >> k & 1:
            power = F.mul_c(power, x)
        x = F.mul_c(x, x)
    return power


def test_pc_powmod_chain_cost_and_value(monkeypatch):
    calls = []
    mulmod = arith._pc_mulmod

    def counted(B, a, b, mod):
        calls.append(a is b)
        return mulmod(B, a, b, mod)

    monkeypatch.setattr(arith, "_pc_mulmod", counted)
    rng = random.Random(2033)
    B, p = FiniteField.prime(1009), 1009
    F3 = FiniteField.prime(3)
    F3_13 = FiniteField.of_order(3, 13)
    for e in CHAIN_EXPONENTS:
        # modulo x - c, a(x)^e is a(c)^e, an integer power mod p
        a, c = [rng.randrange(p) for _ in range(4)], rng.randrange(p)
        calls.clear()
        assert _pc_powmod(B, a, e, [p - c, 1]) == \
            _pc_trim([pow(_pc_eval(B, a, c), e, p)])
        assert (calls.count(True), calls.count(False)) == chain_cost(e)
        # modulo the modulus of F_(3^13), the digits of a right-to-left
        # power by mul_c
        x = rng.randrange(3, F3_13.order)
        power = _pc_trim(list(F3_13.decode(right_to_left_power(F3_13, x, e))))
        calls.clear()
        assert _pc_powmod(F3, list(F3_13.decode(x)), e, F3_13.modulus) == \
            power
        assert (calls.count(True), calls.count(False)) == chain_cost(e)
    assert _pc_powmod(B, [5, 1], 0, [p - 2, 1]) == [1]


def test_table_less_pow_c_chain_cost_and_value(monkeypatch):
    # a prime field takes builtin pow, an extension the one chain of
    # _pc_powmod on its digits
    big = FiniteField.prime(1000003)  # above the table limit
    E = FiniteField.of_order(3, 13)
    assert big._exp is None and E._exp is None
    calls = []
    mulmod = arith._pc_mulmod

    def counted(B, a, b, mod):
        if mod is E.modulus:
            calls.append(a is b)
        return mulmod(B, a, b, mod)

    rng = random.Random(2034)
    for e in CHAIN_EXPONENTS:
        a = rng.randrange(2, big.order)
        assert big.pow_c(a, e) == pow(a, e, big.order)
        x = rng.randrange(3, E.order)
        with monkeypatch.context() as patch:
            patch.setattr(arith, "_pc_mulmod", counted)
            calls.clear()
            power = E.pow_c(x, e)
        assert (calls.count(True), calls.count(False)) == chain_cost(e)
        assert power == right_to_left_power(E, x, e)
    assert E.pow_c(5, 0) == big.pow_c(5, 0) == 1


def test_quadratic_root_counts_match_enumeration():
    for pm in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1)]:
        F = FiniteField.of_order(*pm)
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
    F3 = FiniteField.prime(3)
    assert _pc_trim([1, 0, 0]) == [1]
    assert _pc_trim([]) == [] and _pc_trim([0, 0]) == []
    assert _pc_add(F3, [0, 0, 1], [0, 0, 2]) == []  # x^2 - x^2 = 0


F9_polys = st.lists(st.integers(min_value=0, max_value=8), max_size=6)


@settings(max_examples=80, deadline=None)
@given(F9_polys, F9_polys, st.integers(min_value=0, max_value=8))
def test_poly_evaluation_is_ring_homomorphism(a, b, x):
    F = FiniteField.of_order(3, 2)

    def ev(cs):
        return _pc_eval(F, cs, x)

    assert ev(_pc_add(F, a, b)) == F.add_c(ev(a), ev(b))
    assert ev(_pc_mul(F, a, b)) == F.mul_c(ev(a), ev(b))
    assert ev(_pc_sub(F, [], a)) == F.neg_c(ev(a))


def test_poly_evaluation_over_field_elements():
    F9 = FiniteField.of_order(3, 2)
    pa, pb = [1, 2, 0, 1], [2, 2]
    for x in range(9):
        ea, eb = _pc_eval(F9, pa, x), _pc_eval(F9, pb, x)
        assert _pc_eval(F9, _pc_mul(F9, pa, pb), x) == F9.mul_c(ea, eb)
        assert _pc_eval(F9, _pc_add(F9, pa, pb), x) == F9.add_c(ea, eb)


def test_poly_derivative():
    F7 = FiniteField.prime(7)
    assert _pc_deriv(F7, [5, 3, 0, 2]) == [3, 0, 6]
    # derivative kills p-th powers in characteristic p
    F2 = FiniteField.prime(2)
    assert _pc_deriv(F2, [1, 0, 1]) == []  # 1 + x^2


def test_moebius_small_values():
    assert [moebius(n) for n in range(1, 13)] == \
        [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0]


def test_prime_helpers_match_brute_force():
    # every divisor of every n < 3000 by listing the multiples of each d
    top = 3000
    divs = [[] for _ in range(top)]
    for d in range(1, top):
        for multiple in range(d, top, d):
            divs[multiple].append(d)
    primes = [n for n in range(top) if len(divs[n]) == 2]
    prime_powers = {p ** k for p in primes for k in range(1, 12)
                    if p ** k < top}
    for n in range(top):
        assert is_prime(n) == (len(divs[n]) == 2), n
        assert is_prime_power(n) == (n in prime_powers), n
    for n in range(1, top):
        assert divisors(n) == divs[n], n
        prime_divs = [p for p in divs[n] if len(divs[p]) == 2]
        squarefree = all(n % (d * d) for d in divs[n][1:])
        assert moebius(n) == (-1) ** len(prime_divs) * squarefree, n
    # a small least factor settles primality without scanning the cofactor
    big = 2 * (2 ** 61 - 1)
    assert not is_prime(big) and not is_prime_power(big)
    with pytest.raises(ValueError):
        moebius(0)
