"""Explicit curve models over finite fields and exact point counting.

Three kinds of models are supported, each with a bit-exact rule for the
points at infinity of the smooth projective model:

* the projective line (``N_m = q^m + 1``),
* hyperelliptic models ``y^2 + h(x) y = f(x)`` with ``deg f in {2g+1, 2g+2}``
  and ``deg h <= g+1`` (the points at infinity over F_(q^m) are the roots
  of ``z^2 + h_(g+1) z = f_(2g+2)`` there, with ``f_(2g+2) = 0`` for odd
  ``deg f``),
* smooth plane models given by a homogeneous form F(x, y, z) of degree d.

Counting is deterministic.  Hyperelliptic models get an exact smoothness
certificate, a gcd of polynomials on the affine chart and the same
criterion on the chart at infinity.  Plane models are counted on
univariate slices of F, F(x, Y, 1) for each x in F_(q^m) and F(X, 1, 0):
a slice P has deg gcd(P, Y^Q - Y) roots in F_Q.

Plane models are certified by elimination over F_q, with no field
scanned.  On z = 0 the gcd of the slices at (X, 1, 0) of F and its
partials has the singular X as its roots, and (1:0:0) is looked at
directly.  On z = 1 a point is singular iff F = F_x = F_y = 0 there, as
Euler's identity x F_x + y F_y + z F_z = d F gives F_z = 0.  Take a and b
in F_q[x][Y] of Y-degrees r, s with r + s >= 1.  The rows of their
Sylvester matrix hold the coefficients of Y^i a (i < s) and Y^j b
(j < r), so a common zero (x0, y0) puts (1, y0, ..., y0^(r+s-1)) in the
kernel of the matrix at x0, and Res_Y(a, b)(x0) = 0.  This holds where a
leading coefficient vanishes at x0 as well.  A Y-free a = c(x) vanishes
at x0 itself, and Res_Y(c, b) = c^s has the same roots, so c stands for
itself; for F_x = d x^(d-1) of the Fermat curve that is x^(d-1).  The
eliminant R is the gcd of these polynomials for the pairs (F_x, F_y),
(F, F_y) and (F, F_x), and every singular x0 is a root of R:

* R a nonzero constant: z = 1 has no singular point.
* R = 0: F has positive Y-degree, and each of F_y, F_x is 0 or shares
  with F an irreducible factor of positive Y-degree (F_y = 0 when every
  power of y in F is a multiple of p).  If one factor H of F of positive
  Y-degree divides both, as a repeated component does, every point of
  H = 0 on z = 1 is singular, and there are infinitely many.  Otherwise
  F_y and F_x share distinct components of F, which meet (Bezout) in a
  singular point, on z = 1 since z = 0 passed.
* Otherwise R is split by its distinct-degree factorization
  (``arith._pc_distinct_degree``, which Ben-Or's test runs too), and the
  slices of F, F_y, F_x and F_z are tested at the roots of each part at
  once (``PlaneCurve._singular_above``): over x0 they have a common
  zero iff their gcd is 0 or not constant.

Only a singular model is scanned, for its witness: the first (m, x, y) in
code order over the smallest F_(q^m) that holds one, with x a root of R.

Every per-x kernel on a tabled field (the hyperelliptic count and the
plane count) visits one x per orbit of the Frobenius x -> x^q on F_(q^m)
and weights it by the orbit size.  This is exact: h, f and the plane
columns have coefficients in F_q, so the data at x^q is the Frobenius
image of the data at x, and Frobenius, an automorphism of F_(q^m),
preserves root counts.  The orbits are read off the discrete logs: x = 0
is one, and x = g^k goes to g^(kq), so the others are the cyclotomic
cosets of k mod q^m - 1, whose least members are generated directly
(``_cyclotomic_cosets``), with no field power per element.

In odd characteristic y^2 + h(x) y = f(x) has 1 + chi(F(x)) roots y,
with F = h^2 + 4f and chi the quadratic character, so the affine count is
q^m + sum_x chi(F(x)), and it is computed on logs
(``HyperellipticCurve._log_affine_count``): the term c_i x^i of F at
x = g^k is g^(log c_i + ik), the terms are summed by Zech logarithms (by
codes mod p over a prime field), and chi(g^a) = (-1)^a, the parity of the
log.  No code of F(x) is formed, and no Euler power is taken.

Hyperelliptic models over the prime field F_2 are counted without tables,
on every x at once.  Over x with h(x) = c != 0, y = c z turns
y^2 + c y = f(x) into z^2 + z = f(x)/c^2; z^2 + z is F_2-linear with
kernel F_2, and its image is the kernel of the trace Tr to F_2 (it lies
in that kernel, since Tr(z^2) = Tr(z), and both have index 2).  So x has
1 + (-1)^Tr(f(x)/h(x)^2) points.  Over x with h(x) = 0, y^2 = f(x) has
one root, as squaring is a bijection.  With the codes of F_(2^m) as bit
vectors over F_2, every F_2-coordinate of h(x), f(x) and their quotient is
one Python int with one bit per x (``_SlicedField``), and the affine count
is 2^m + #{h(x) != 0} - 2 #{Tr(f(x)/h(x)^2) = 1}.  For h = 1, the
Artin-Schreier form, that is 2 (2^m - #{Tr f(x) = 1}), and the count
evaluates f alone and computes no inverse.

A scan of F_(q^m) is charged its q^m elements against the budget, and a
scan on tables also against the 2^20 table limit; the bit-sliced count is
charged against the budget alone.  Each stage has one gate:
``CurveModel.counts(k)`` checks F_(q^k) before N_1, and the root walk
``CurveModel._roots`` of the three witness searches checks each field
before it scans it; a certificate that passes is charged nothing.
``CurveModel.zeta`` is the one zeta entry point of a model: it asks
``counts`` for N_1..N_g, and for the guard N_(g+1) when asked to, so the
guard's field is gated before N_1, and ``zeta_from_counts`` checks the
guard against P(T).  ``counts`` passes what it enumerates through
``zeta.checked_counts``, the rule that regenerated counts pass too: every
N_m is nonnegative and lies in its Weil interval.
"""

from __future__ import annotations

import itertools

from .arith import (
    _TABLE_MAX_ORDER,
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    FiniteField,
    _pc_add,
    _pc_deriv,
    _pc_distinct_degree,
    _pc_eval,
    _pc_gcd,
    _pc_mod,
    _pc_mul,
    _pc_powmod,
    _pc_quo,
    _pc_sub,
    _pc_trim,
    power_sums,
)
from .zeta import ZetaData, checked_counts, zeta_from_counts


class SingularModelError(ValueError):
    """A model failed its smoothness invariant; carries a witness point."""

    def __init__(self, model_name: str, witness, message: str | None = None):
        self.witness = witness
        msg = message or f"{model_name} is singular; witness common zero {witness}"
        super().__init__(msg)


def _coeff(cs, k: int) -> int:
    return cs[k] if k < len(cs) else 0


def _cyclotomic_cosets(q: int, m: int):
    """(k, size) for the least k of each orbit of k -> kq mod n on [0, n),
    n = q^m - 1, in increasing order of k.

    With g a generator of F_(q^m), these orbits are the logs of the orbits
    of x -> x^q on the nonzero x = g^k.  Multiplying by q rotates the m
    base-q digits of k, so the least k of an orbit is a necklace, a digit
    string least among its rotations, and its orbit size is the period of
    the string.  The necklaces come from the FKM algorithm (Fredricksen,
    Kessler and Maiorana; Ruskey, Savage and Wang, J. Algorithms 13, 1992):
    it steps through the prenecklaces in lexicographic order, and a[1..m]
    with longest Lyndon prefix a[1..p] is a necklace iff p divides m.  The
    work is constant per prenecklace on average, and there are about
    qn/((q - 1) m) of them, where a walk of the orbits touches every k.
    The last necklace, all digits q - 1, is k = n, the same x as k = 0, and
    is left out.
    """
    n = q ** m - 1
    a = [0] * (m + 1)  # the digits a[1..m], most significant first
    v = [0] * (m + 1)  # v[t]: the value of a[1..t]
    p = 1
    while True:
        if m % p == 0 and v[m] != n:
            yield v[m], p
        j = m
        while a[j] == q - 1:
            j -= 1
        if not j:
            return
        a[j] += 1
        v[j] = v[j - 1] * q + a[j]
        for t in range(j + 1, m + 1):
            a[t] = a[t - j]
            v[t] = v[t - 1] * q + a[t]
        p = j


def _orbit_reps(E: FiniteField, q: int, m: int):
    """(x, orbit size) for one x of each orbit of x -> x^q on a tabled
    E = F_(q^m): x = 0, and g^k for each cyclotomic coset of k."""
    yield 0, 1
    exp = E._exp
    for k, size in _cyclotomic_cosets(q, m):
        yield exp[k], size


def _first_root_in(E: FiniteField, cs):
    """The first root in E of a code polynomial, in code order, or None."""
    return next((x for x in range(E.order) if _pc_eval(E, cs, x) == 0), None)


def _root_count(E: FiniteField, cs) -> int:
    """Distinct roots of P in E = F_Q: deg gcd(P, Y^Q - Y), or Q for P = 0."""
    if len(cs) <= 2:
        return len(cs) - 1 if cs else E.order
    frob = _pc_sub(E, _pc_powmod(E, [0, 1], E.order, cs), [0, 1])
    return len(_pc_gcd(E, cs, frob)) - 1


def _common_factor(B: FiniteField, polys):
    """gcd of code polynomials over B, up to a unit; stops at a constant."""
    G = []
    for P in polys:
        G = _pc_gcd(B, G, P)
        if len(G) == 1:
            break
    return G


def _resultant(B: FiniteField, a, b):
    """Res_Y(a, b), up to a sign, of polynomials in Y of Y-degree >= 1 whose
    coefficients are code polynomials in x over B: the determinant of their
    Sylvester matrix by fraction-free (Bareiss) elimination, in which every
    division is exact."""
    da, db = len(a) - 1, len(b) - 1
    n = da + db
    rows = [[[]] * i + list(a) + [[]] * (db - 1 - i) for i in range(db)] + \
        [[[]] * i + list(b) + [[]] * (da - 1 - i) for i in range(da)]
    prev = [1]
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return []
        rows[k], rows[pivot] = rows[pivot], rows[k]
        top = rows[k]
        for row in rows[k + 1:]:
            lead = row[k]
            for j in range(k + 1, n):
                v = _pc_sub(B, _pc_mul(B, top[k], row[j]),
                            _pc_mul(B, lead, top[j]))
                row[j] = _pc_quo(B, v, prev) if k else v
        prev = top[k]
    return rows[-1][-1]


def _eliminant(B: FiniteField, a, b):
    """A code polynomial in x that vanishes at every x0 over which the
    polynomials a and b in Y have a common zero (x0, y0): Res_Y(a, b) when
    both have Y-degree >= 1, else the gcd of the Y-free ones, the zero
    polynomial included."""
    free = [P[0] if P else [] for P in (a, b) if len(P) <= 1]
    return _common_factor(B, free) if free else _resultant(B, a, b)


class _NonUnit(ArithmeticError):
    """A gcd over a _RootAlgebra met a leading coefficient, ``args[0]``,
    that is a zero divisor."""


class _RootAlgebra(FiniteField):
    """B[x]/(M), for M squarefree with irreducible factors of degrees
    dividing k: one field F_q[x]/(P) inside F_(q^k) per factor P, in which
    x is a root of P.

    Its arithmetic is that of a FiniteField on digit polynomials mod M, so
    the code-polynomial routines run over it unchanged.  A Euclidean step
    inverts a leading coefficient, and ``inv_c`` raises _NonUnit for a
    nonzero code that is not a unit: a^(q^k - 1) is 1 at exactly the
    factors where a is not 0.
    """

    def __init__(self, B: FiniteField, M, k: int):
        super().__init__(B, tuple(M))
        self._unit_order = B.order ** k - 1

    def inv_c(self, a: int) -> int:
        inv = self.pow_c(a, self._unit_order - 1)
        if self.mul_c(a, inv) != 1:
            raise _NonUnit(a)
        return inv


# The bit-sliced count runs x through F_(2^m) in blocks of 2^_BLOCK_BITS
# codes: a slice then holds 128 KiB, whatever m, and m > 20 takes 2^(m-20)
# blocks.
_BLOCK_BITS = 20


class _SlicedField:
    """F_(2^m) = F_2[t]/(P) on bit slices, for the count over F_2.

    An element is a list of m ints, one per coordinate: bit j of int i is
    the coefficient of t^i of the element at the j-th x of a block.  Sums
    are XORs, products are schoolbook ANDs and XORs reduced by the bits of
    t^k mod P, and squaring, which is F_2-linear, needs no AND.
    """

    def __init__(self, modulus):
        self.m = m = len(modulus) - 1
        P = sum(c << i for i, c in enumerate(modulus))
        self._reduce, r = [], 1  # the bits of t^k mod P, k < 2m - 1
        for _ in range(2 * m - 1):
            self._reduce.append([i for i in range(m) if r >> i & 1])
            r <<= 1
            if r >> m & 1:
                r ^= P
        # Tr(t^i) = s_i mod 2, s_i the power sums of the roots of P
        s = [m] + power_sums(modulus[::-1], m - 1)
        self._trace = [i for i in range(m) if s[i] & 1]

    def _fold(self, out):
        """The element of a product's coordinates, degree < 2m - 1."""
        m = self.m
        for k in range(m, len(out)):
            if out[k]:
                for i in self._reduce[k]:
                    out[i] ^= out[k]
        return out[:m]

    def mul(self, a, b):
        out = [0] * (2 * self.m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] ^= ai & bj
        return self._fold(out)

    def square(self, a):
        out = [0] * (2 * self.m - 1)
        out[::2] = a
        return self._fold(out)

    def inverse(self, a):
        """a^(2^m - 2): 1/a, and 0 where a = 0, by the Itoh-Tsujii chain
        b_k = a^(2^k - 1), b_2k = b_k^(2^k) b_k, b_(k+1) = b_k^2 a, to
        k = m - 1.  (For m = 1 it returns a^2 = a, which is that too.)"""
        b, k = a, 1
        for bit in bin(self.m - 1)[3:]:
            c = b
            for _ in range(k):
                c = self.square(c)
            b, k = self.mul(c, b), 2 * k
            if bit == "1":
                b, k = self.mul(self.square(b), a), k + 1
        return self.square(b)

    def trace(self, a) -> int:
        """The slice of Tr(a): Tr is F_2-linear, Tr(a) = sum a_i Tr(t^i)."""
        t = 0
        for i in self._trace:
            t ^= a[i]
        return t

    def blocks(self):
        """(x, ones) for each block of 2^min(m, _BLOCK_BITS) codes: x is the
        element whose value at the j-th code of the block is that code, and
        ones has a bit for every code.  Bit j of a low coordinate i of x is
        bit i of j, a pattern built by doubling; the top m - width
        coordinates are the same for the whole block."""
        m, width = self.m, min(self.m, _BLOCK_BITS)
        size = 1 << width
        ones = (1 << size) - 1
        low = []
        for i in range(width):
            pattern, length = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while length < size:
                pattern |= pattern << length
                length *= 2
            low.append(pattern)
        for top in range(1 << (m - width)):
            yield low + [ones if top >> i & 1 else 0
                         for i in range(m - width)], ones

    def evaluate(self, polys, x, ones):
        """The values at x of polynomials over F_2 (0/1 coefficients).

        A term x^k is (x^j)^(2^s) with j odd, so the products go to the odd
        j, and the squarings to the rest.  Each x^j is a product of the
        x^(2^i), or x^j' x^(j - j') from the previous odd j' when j - j'
        has fewer bits than j: one product per odd j for a dense
        polynomial.
        """
        terms = {}  # odd j -> (s, index of the polynomial) for each term
        for n, cs in enumerate(polys):
            for k in range(1, len(cs)):
                if cs[k]:
                    s = (k & -k).bit_length() - 1
                    terms.setdefault(k >> s, []).append((s, n))
        values = [[ones if cs and cs[0] else 0] + [0] * (self.m - 1)
                  for cs in polys]
        squares, prev_j, prev = [x], 0, None  # squares[i] = x^(2^i)
        for j in sorted(terms):
            if (j - prev_j).bit_count() >= j.bit_count():
                prev_j, prev = 0, None
            d = j - prev_j
            while len(squares) < d.bit_length():
                squares.append(self.square(squares[-1]))
            for i in range(d.bit_length()):
                if d >> i & 1:
                    prev = squares[i] if prev is None else \
                        self.mul(prev, squares[i])
            prev_j, power, done = j, prev, 0
            for s, n in sorted(terms[j]):
                for _ in range(s - done):
                    power = self.square(power)
                done = s
                values[n] = [u ^ v for u, v in zip(values[n], power)]
        return values


class CurveModel:
    """Base class for curve models; subclasses implement the counting rules."""

    kind: str
    base: FiniteField
    tabled = True  # its count kernel scans F_(q^m) with its tables

    def __init__(self, base: FiniteField, name: str | None = None):
        self.base = base
        self.name = name or f"{self.kind}/GF({base.order})"
        self._smooth = False  # set once validate() has passed

    @property
    def q(self) -> int:
        return self.base.order

    def _check_scan(self, m: int, budget: int, stage: str,
                    tabled: bool = True) -> None:
        """Refuse a scan of F_(q^m) over the limits, before any work.

        A scan pays for q^m elements against the budget.  A scan on tables
        is held to the table limit too, since above it an element costs
        about 250 times more on digit polynomials; a kernel that builds no
        tables (``tabled`` false) is charged against the budget alone.
        """
        limit = min(budget, _TABLE_MAX_ORDER) if tabled else budget
        if self.q ** m > limit:
            raise BudgetExceededError(
                self.q ** m, limit,
                f"{stage} for {self.name} over GF({self.base.char}^"
                f"{self.base.degree * m})",
                "budget" if limit == budget else "table limit")

    def scan_field(self, m: int, budget: int, stage: str) -> FiniteField:
        """F_(q^m) with its tables, for a stage that scans its elements.

        Every scan (a count or a witness search) gets its field here,
        through the one gate ``_check_scan``.
        """
        self._check_scan(m, budget, stage)
        E = FiniteField.extension(self.base, m)
        E.build_tables()
        return E

    def _roots(self, G, budget: int):
        """(m, E, x) for each root x of G in E = F_(q^m) (every x for G = 0),
        in code order, for m = 1, 2, ...: the walk of the witness searches,
        with each field gated by ``scan_field`` before it is scanned."""
        for m in itertools.count(1):
            E = self.scan_field(m, budget, "smoothness certificate")
            for x in range(E.order):
                if _pc_eval(E, G, x) == 0:
                    yield m, E, x

    # subclass hooks -------------------------------------------------------

    def genus(self) -> int:
        raise NotImplementedError

    def _check_smooth(self, budget: int) -> None:
        """Raise SingularModelError with a witness if the model is singular."""

    def _check_count(self, k: int, budget: int) -> None:
        """The per-kind cost check of N_1..N_k: q^k elements scanned."""
        self._check_scan(k, budget, "point count", self.tabled)

    def _count(self, m: int, E: FiniteField | None) -> int:
        """N_m, with E = F_(q^m) from scan_field if the model's kernel
        needs tables, and None otherwise."""
        raise NotImplementedError

    # public API -----------------------------------------------------------

    def validate(self, budget: int = DEFAULT_ENUM_BUDGET) -> None:
        """Verify smoothness (raises SingularModelError with a witness)."""
        if not self._smooth:
            self._check_smooth(budget)
            self._smooth = True

    def count_points(self, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
        """N_m = #X(F_(q^m)) of the smooth projective model."""
        self.validate(budget)
        if self.tabled:
            return self._count(m, self.scan_field(m, budget, "point count"))
        self._check_count(m, budget)
        return self._count(m, None)

    def counts(self, k: int, budget: int = DEFAULT_ENUM_BUDGET) -> list[int]:
        """N_1..N_k of the validated model, through ``checked_counts``.

        The model is charged for F_(q^k), its largest field, before N_1 is
        counted, so an over-limit k is refused before any count runs.
        """
        self.validate(budget)
        self._check_count(k, budget)
        return checked_counts(self.q, self.genus(), [
            self.count_points(m, budget) for m in range(1, k + 1)])

    def zeta(self, budget: int = DEFAULT_ENUM_BUDGET,
             guard: bool = False) -> ZetaData:
        """P(T) from N_1..N_g; ``guard`` also counts N_(g+1), which must
        equal the count P(T) predicts.  Both come from one ``counts`` call,
        so an over-limit guard is refused before N_1 is counted."""
        g = self.genus()
        return zeta_from_counts(self.q, g, self.counts(g + guard, budget))

    def __repr__(self):
        return f"<{self.kind} {self.name}>"


class ProjectiveLine(CurveModel):
    kind = "projective-line"
    tabled = False

    def _check_count(self, k: int, budget: int) -> None:
        pass  # N_m = q^m + 1 scans nothing

    def genus(self) -> int:
        return 0

    def _count(self, m: int, E: None) -> int:
        return self.q ** m + 1


class HyperellipticCurve(CurveModel):
    """y^2 + h(x) y = f(x) over the base field, deg f in {2g+1, 2g+2}.

    ``h`` and ``f`` are little-endian tuples of base-field codes.
    """

    kind = "hyperelliptic"

    def __init__(self, base: FiniteField, h, f, name: str | None = None):
        super().__init__(base, name)
        self.h = tuple(_pc_trim(h))
        self.f = tuple(_pc_trim(f))
        if len(self.f) < 4:
            raise ValueError(
                f"{self.name}: deg f must be >= 3 (got {len(self.f) - 1})")
        g = self.genus()
        if len(self.h) > g + 2:
            raise ValueError(
                f"{self.name}: deg h = {len(self.h) - 1} exceeds g+1 = {g + 1}")
        if base.char == 2 and not self.h:
            raise SingularModelError(
                self.name, None,
                f"{self.name}: h = 0 in characteristic 2 is inseparable, never smooth")
        self.tabled = base.order != 2  # over F_2 the bit-sliced kernel counts

    @classmethod
    def from_ints(cls, base: FiniteField, h_coeffs, f_coeffs,
                  name: str | None = None) -> "HyperellipticCurve":
        return cls(base, [base.embed_int(c) for c in h_coeffs],
                   [base.embed_int(c) for c in f_coeffs], name=name)

    def genus(self) -> int:
        return (len(self.f) - 2) // 2

    def _check_smooth(self, budget: int) -> None:
        """Exact certificate on both charts.

        A singular affine point has y = -h(x)/2 and F(x) = F'(x) = 0 with
        F = h^2 + 4f in odd characteristic, and h(x) = 0 with
        f'(x)^2 + h'(x)^2 f(x) = 0 in characteristic 2; G is the gcd of the
        two polynomials.  The chart at infinity (x = 1/u, y = v/u^(g+1))
        is the reversed model, and the same criterion at u = 0 reads off
        the top coefficients.
        """
        B, h, f, g = self.base, self.h, self.f, self.genus()
        h_top, f_top = _coeff(h, g + 1), _coeff(f, 2 * g + 2)
        if B.char == 2:
            hp, fp = _pc_deriv(B, h), _pc_deriv(B, f)
            G = _pc_gcd(B, h, _pc_add(B, _pc_mul(B, fp, fp),
                                      _pc_mul(B, _pc_mul(B, hp, hp), f)))
            h_g, f_next = _coeff(h, g), _coeff(f, 2 * g + 1)
            at_infinity = h_top == 0 and B.mul_c(f_next, f_next) == \
                B.mul_c(B.mul_c(h_g, h_g), f_top)
        else:
            F = self._discriminant()
            G = _pc_gcd(B, F, _pc_deriv(B, F))
            at_infinity = len(F) <= 2 * g + 1
        if len(G) != 1:  # G = 0 makes every x a root
            raise SingularModelError(self.name, self._affine_witness(G, budget))
        if at_infinity:
            witness = (1, "infinity", self._singular_y(B, h_top, f_top))
            raise SingularModelError(
                self.name, witness,
                f"{self.name} is singular at infinity; witness {witness}, "
                f"with v = y/x^{g + 1} in place of y")

    def _affine_witness(self, G, budget: int):
        """The first root (m, x) of G, with its singular y."""
        m, E, x = next(self._roots(G, budget))
        return (m, x, self._singular_y(E, _pc_eval(E, self.h, x),
                                       _pc_eval(E, self.f, x)))

    @staticmethod
    def _singular_y(E: FiniteField, hx: int, fx: int) -> int:
        """The only y at which a singular point over x can lie."""
        if E.char == 2:
            return E.pow_c(fx, E.order // 2)  # y^2 = f(x) where h(x) = 0
        return E.neg_c(E.mul_c(hx, E.inv_c(E.embed_int(2))))

    def _count(self, m: int, E: FiniteField | None) -> int:
        """Affine solutions, plus the roots of z^2 + h_(g+1) z = f_(2g+2)
        at infinity (f_(2g+2) = 0 when deg f is odd)."""
        if E is None:
            # untabled: its modulus, and the two roots at infinity below
            E = FiniteField.extension(self.base, m)
            n = self._sliced_affine_count(E.modulus)
        elif E.char == 2:
            n = sum(size * E.quadratic_root_count(_pc_eval(E, self.h, x),
                                                  _pc_eval(E, self.f, x))
                    for x, size in _orbit_reps(E, self.q, m))
        else:
            n = self._log_affine_count(E, m)
        g = self.genus()
        return n + E.quadratic_root_count(_coeff(self.h, g + 1),
                                          _coeff(self.f, 2 * g + 2))

    def _discriminant(self):
        """F = h^2 + 4f, in odd characteristic."""
        B, h = self.base, self.h
        return _pc_add(B, _pc_mul(B, h, h),
                       _pc_mul(B, [B.embed_int(4)], self.f))

    def _log_affine_count(self, E: FiniteField, m: int) -> int:
        """The affine count on a tabled E of odd characteristic,
        Q + sum_x chi(F(x)), on discrete logs.

        With F = sum c_i x^i, the term c_i x^i at x = g^k has the log
        log c_i + ik, and the terms are summed on logs: g^a + g^b is
        g^(a + zech[b - a]) in an extension, and the sum of the codes mod p
        in a prime field.  chi(g^a) is (-1)^a, since the squares are the even
        powers of g.  The sum runs over one k per cyclotomic coset, and x = 0
        apart.
        """
        F = self._discriminant()
        n, p = E.order - 1, E.char
        exp, log, zech = E._exp, E._log, E._zech
        terms = [(i, log[c]) for i, c in enumerate(F) if c]
        total = E.order + (1 - 2 * (log[F[0]] & 1) if F[0] else 0)
        for k, size in _cyclotomic_cosets(self.q, m):
            if zech is None:
                s = sum(exp[lc + i * k % n] for i, lc in terms) % p
                a = log[s] if s else -1
            else:
                a = -1  # the log of the partial sum, -1 while it is 0
                for i, lc in terms:
                    t = (lc + i * k) % n
                    if a < 0:
                        a = t
                    elif (z := zech[t - a]) < 0:
                        a = -1
                    else:
                        a = (a + z) % n
            if a >= 0:
                total += -size if a & 1 else size
        return total

    def _sliced_affine_count(self, modulus) -> int:
        """The affine count over F_2, on every x of a block at once: an x
        with h(x) = 0 has one point, any other 1 + (-1)^Tr(f(x)/h(x)^2)."""
        K = _SlicedField(modulus)
        count = 0
        for x, ones in K.blocks():
            if self.h == (1,):  # Tr(f/h^2) = Tr(f): no inversion
                f, = K.evaluate((self.f,), x, ones)
                nonzero, t = ones, K.trace(f)
            else:
                h, f = K.evaluate((self.h, self.f), x, ones)
                nonzero = 0
                for v in h:
                    nonzero |= v
                # Tr(f/h^2) is 0 where h = 0, since there 1/h = 0
                t = K.trace(K.mul(f, K.square(K.inverse(h))))
            codes = ones.bit_length()
            count += codes + nonzero.bit_count() - 2 * t.bit_count()
        return count


class PlaneCurve(CurveModel):
    """Smooth plane model: homogeneous form F(x, y, z) of the given degree,
    validated and counted on its slices (see the module docstring)."""

    kind = "plane"

    def __init__(self, base: FiniteField, monomials: dict, degree: int,
                 name: str | None = None):
        super().__init__(base, name)
        if degree < 1:
            raise ValueError(f"{self.name}: degree must be >= 1 (got {degree})")
        self.degree = degree
        self.monomials = {}
        for (i, j, k), c in monomials.items():
            if min(i, j, k) < 0 or i + j + k != degree:
                raise ValueError(
                    f"{self.name}: x^{i} y^{j} z^{k} is not a monomial of degree {degree}")
            code = base.embed_int(c)
            if code:
                self.monomials[(i, j, k)] = code
        if not self.monomials:
            raise ValueError(f"{self.name}: the zero form does not define a curve")
        # F, F_y, F_x, F_z with their degrees; F_y comes first because its
        # slice at z = 1 is the derivative of F's, the likeliest coprime pair
        forms = [(degree, self.monomials)] + \
            [(degree - 1, self._derive(axis)) for axis in (1, 0, 2)]
        # at z = 1: the coefficient of Y^j, a polynomial in x, for each j up
        # to the Y-degree
        self._columns = []
        for e, form in forms:
            columns = [_pc_trim([form.get((i, j, e - i - j), 0)
                                 for i in range(e - j + 1)])
                       for j in range(e + 1)]
            while columns and not columns[-1]:
                columns.pop()
            self._columns.append(columns)
        # at z = 0: the polynomial F(X, 1, 0), and the value at (1:0:0)
        self._line = [_pc_trim([form.get((i, e - i, 0), 0) for i in range(e + 1)])
                      for e, form in forms]
        self._corner = [form.get((e, 0, 0), 0) for e, form in forms]

    @classmethod
    def from_list(cls, base: FiniteField, entries, degree: int,
                  name: str | None = None) -> "PlaneCurve":
        return cls(base, {(i, j, k): c for i, j, k, c in entries}, degree, name=name)

    def _derive(self, axis: int) -> dict:
        """The partial derivative along x, y or z (axis 0, 1, 2)."""
        B = self.base
        return {tuple(v - (a == axis) for a, v in enumerate(expo)):
                B.mul_c(c, B.embed_int(expo[axis]))
                for expo, c in self.monomials.items() if expo[axis]}

    def genus(self) -> int:
        return (self.degree - 1) * (self.degree - 2) // 2

    @staticmethod
    def _slice(E: FiniteField, columns, x: int):
        """A form at (x, Y, 1), as a code polynomial in Y over E."""
        return _pc_trim([_pc_eval(E, c, x) for c in columns])

    def _check_smooth(self, budget: int) -> None:
        """On z = 0, one gcd over the base field decides every (X:1:0), and
        (1:0:0) is looked at directly; on z = 1, the eliminant R decides
        (see the module docstring).  Only a singular model pays for a scan:
        the witness search."""
        G = _common_factor(self.base, self._line)
        if len(G) != 1:  # G = 0: every point of z = 0 is singular
            m, _, x = next(self._roots(G, budget))
            raise SingularModelError(self.name, (m, x, 1, 0))
        if not any(self._corner):
            raise SingularModelError(self.name, (1, 1, 0, 0))
        B = self.base
        F, F_y, F_x = self._columns[:3]
        R = _common_factor(B, (_eliminant(B, a, b) for a, b in
                               ((F_x, F_y), (F, F_y), (F, F_x))))
        if len(R) == 1 or (R and not self._singular_above(R)):
            return
        raise SingularModelError(self.name, self._affine_witness(R, budget))

    def _singular_above(self, R) -> bool:
        """Whether a root of R carries a singular point of z = 1.

        Distinct-degree factorization splits R into parts (M, k), M
        squarefree with factors of degrees dividing k; a factor P^e of R
        has left it by k = e deg P <= deg R.  Over B[x]/(M) the slices
        have coefficients in a product of fields, one per factor, and a
        Euclidean gcd whose leading coefficients are units runs in every
        field at once, with the same degrees.  A lead that is
        a zero divisor splits M into the factors where it is 0 and those
        where it is not, and each part is tried again.
        """
        B = self.base
        parts = list(_pc_distinct_degree(B, R, len(R)))
        while parts:
            M, k = parts.pop()
            A = _RootAlgebra(B, M, k)
            try:
                G = _common_factor(A, (
                    _pc_trim([A.encode(_pc_mod(B, c, M)) for c in columns])
                    for columns in self._columns))
            except _NonUnit as e:
                zero = _pc_gcd(B, M, _pc_trim(list(A.decode(e.args[0]))))
                parts += [(zero, k), (_pc_quo(B, M, zero), k)]
                continue
            if len(G) != 1:  # G = 0: every y over each root is singular
                return True
        return False

    def _affine_witness(self, R, budget: int):
        """The first singular (m, x, y, 1) in code order over the smallest
        F_(q^m) that has one; x runs over the roots of R (every x for
        R = 0), and each field is gated before it is scanned."""
        for m, E, x in self._roots(R, budget):
            G = _common_factor(E, (self._slice(E, columns, x)
                                   for columns in self._columns))
            if len(G) != 1 and (y := _first_root_in(E, G)) is not None:
                return m, x, y, 1

    def _count(self, m: int, E: FiniteField) -> int:
        """Roots of F(x, Y, 1) for every x, roots of F(X, 1, 0), and the
        point (1:0:0) when x^d has coefficient 0."""
        F = self._columns[0]
        n = sum(size * _root_count(E, self._slice(E, F, x))
                for x, size in _orbit_reps(E, self.q, m))
        return n + _root_count(E, self._line[0]) + (self._corner[0] == 0)
