"""Exact arithmetic foundations: rationals, finite fields, polynomials.

Everything here is exact.  Rational values are ``fractions.Fraction``
(always in lowest terms, positive denominator).  Finite fields are built
as towers over their prime field with a deterministic, lexicographically
smallest irreducible modulus, so the same field is reconstructed
identically across runs, and built once per process: ``prime`` and
``extension`` are cached constructors, and ``build_tables`` returns its
field, so a kernel takes ``FiniteField.extension(base, m).build_tables()``.
Elements are encoded as integers in ``[0, order)`` (little-endian digits
over the base field), which keeps enumeration order canonical and the
counting kernels fast.  Fields of up
to 2^20 elements additionally build discrete-log tables, stored as
``array`` objects: with a generator g, ``exp[k] = g^k`` and
``log[g^k] = k`` make multiplication a table lookup, and in odd
characteristic the Zech logarithm ``g^k + 1 = g^zech[k]`` (``-1`` where
``g^k = -1``) makes addition one too:
``g^i + g^j = g^i (1 + g^(j-i)) = g^(i + zech[j-i])`` (K. Huber, IEEE
Trans. IT 36, 1990).  ``exp`` is walked with a table-driven step
c -> c*g that uses the F_p-linearity of multiplication by g, not a
product of two general elements.  Moduli are tested for irreducibility
with Ben-Or's test (FOCS 1981).  Polynomials over a field are
little-endian tuples or lists of element codes, handled by the ``_pc_*``
helpers; they are the only polynomial code here.  Without tables an
extension element is decoded to its digit polynomial over the base field,
and addition, negation and multiplication (reduced modulo the defining
polynomial) run on the ``_pc_*`` helpers.

A power without tables is ``pow`` on a prime field, else the one
square-and-multiply chain ``_pc_powmod``, which also serves
``_pc_distinct_degree`` (Ben-Or's test and the plane certificate) and the
root counts of the plane kernel.  The count kernels use the
tables on logs directly: a polynomial over the base field at x = g^k is
a Zech sum of the terms g^(log c_i + ik), and the quadratic character of
g^a is (-1)^a, the parity of its log
(``curves.HyperellipticCurve._count``).
"""

from __future__ import annotations

import functools
import itertools
from array import array
from fractions import Fraction

DEFAULT_ENUM_BUDGET = 1 << 26

# Fields up to this order get exp/log tables for multiplication, and a Zech
# table for addition in odd characteristic: three or four 4-byte
# array entries per element, 12 MiB for F_(2^20), built in about 1 s on a
# 2-core Intel Xeon.  Beyond it fields fall back to the ``_pc_*`` helpers on
# digit polynomials over the base field, about 250 times slower per element
# scanned, so no scan on tables runs there (``CurveModel._check_scan``
# refuses it); the fallback serves moduli, table builds and the gcd
# certificates.  The bit-sliced count of hyperelliptic models in
# characteristic 2 builds no tables, and only the budget binds it.
_TABLE_MAX_ORDER = 1 << 20


class BudgetExceededError(RuntimeError):
    """A scan of a field's elements was refused: the field's order exceeds
    the enumeration budget or the table limit."""

    def __init__(self, size: int, budget: int, what: str, limit: str = "budget"):
        self.size = size
        self.budget = budget
        super().__init__(f"{what} of size {size} exceeds the {limit} {budget}")


class Record:
    """Equality mixin of the validated value types, each declared
    ``class Name(Record, namedtuple("Name", "field ..."))`` with
    ``__slots__ = ()`` and a ``__new__`` that checks and normalizes the
    fields.  A value equals only values of its own class, and ``_make``
    (so ``_replace`` and ``copy.replace``) runs ``__new__``, as pickling
    and copying already do.  ``dataclasses`` is not used: importing it
    costs 10-15 ms of a 40-59 ms ``import bunzeta.cli`` (2-core Intel
    Xeon, Python 3.11), and every CLI run is a fresh process.
    """

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # NotImplemented would let a plain tuple compare the fields
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def format_rational(x: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` (or ``"p"`` for integers)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def format_float(x: float) -> str:
    """Render a binary64 value with 17 significant digits, which re-parse to
    the same value."""
    return f"{x:.17g}"


def _prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1 in increasing order, by trial
    division."""
    out, p = [], 2
    while n > 1:
        if p * p > n:
            p = n
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out


# Miller-Rabin to the prime bases up to 41 decides primality below
# _PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality by Miller-Rabin to the bases ``_PRIME_BASES``; a ValueError
    that names ``_PRIME_LIMIT`` for an n above it with no factor in them."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    if n >= _PRIME_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only "
                         f"below {_PRIME_LIMIT}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s d, d odd
    for a in _PRIME_BASES:
        # a^(2^(s-1) d), ..., a^(2d), a^d: a^d = 1, or n - 1 among them
        chain = [pow(a, (n - 1) >> i, n) for i in range(1, s + 1)]
        if chain[-1] != 1 and n - 1 not in chain:
            return False
    return True


def is_prime_power(n: int) -> bool:
    """Whether n = p^e, e >= 1: the integer k-th root of n for the largest
    k that has one is prime."""
    if n < 2:
        return False
    k = next(k for k in range(n.bit_length(), 0, -1) if _iroot(n, k) ** k == n)
    return is_prime(_iroot(n, k))


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while (y := ((k - 1) * x + n // x ** (k - 1)) // k) < x:
        x = y
    return x


def power_sums(a, M: int) -> list[int]:
    """Power sums s_1..s_M of the inverse roots of P = sum a_k T^k, a_0 = 1:
    ``s_m = -(m a_m + a_1 s_(m-1) + ... + a_(m-1) s_1)``, a_m = 0 past deg P."""
    a, s = list(a) + [0] * M, []
    for m in range(1, M + 1):
        s.append(-m * a[m] - sum(a[j] * s[m - j - 1] for j in range(1, m)))
    return s


# ---------------------------------------------------------------------------
# polynomial helpers over element *codes* of a base field
# ---------------------------------------------------------------------------


def _pc_trim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return cs[:n]


def _pc_add(B, a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = B.add_c(out[i], c)
    return _pc_trim(out)


def _pc_sub(B, a, b):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = B.sub_c(out[i], c)
    return _pc_trim(out)


def _pc_deriv(B, a):
    """Formal derivative of a code polynomial over B."""
    return _pc_trim([B.mul_c(c, B.embed_int(k)) for k, c in enumerate(a)][1:])


def _pc_eval(B, cs, x: int) -> int:
    """The value at x of a code polynomial over B (Horner)."""
    acc = 0
    for c in reversed(cs):
        acc = B.add_c(B.mul_c(acc, x), c)
    return acc


def _pc_mul(B, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj == 0:
                continue
            out[i + j] = B.add_c(out[i + j], B.mul_c(ai, bj))
    return _pc_trim(out)


def _pc_mod(B, a, mod):
    """Remainder of a modulo a nonzero polynomial (codes, little-endian)."""
    a = list(a)
    dm = len(mod) - 1
    inv = B.inv_c(mod[-1])
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c == 0:
            continue
        c = B.mul_c(c, inv)
        for i, mi in enumerate(mod[:dm]):
            if mi:
                a[k - dm + i] = B.sub_c(a[k - dm + i], B.mul_c(c, mi))
    return _pc_trim(a[:dm])


def _pc_quo(B, a, b):
    """Quotient of a by a nonzero polynomial b, the remainder dropped.

    It repeats the loop of ``_pc_mod``, which stays apart because it is the
    hot step of modulus searches and table-less field products: keeping the
    quotient there costs 6-10% a call (remainders of products of two
    random elements of F_(2^20), F_(3^13) and F_(5^8) by their moduli;
    Python 3.11, one core of a 2-core Intel Xeon).
    """
    a = list(a)
    db = len(b) - 1
    inv = B.inv_c(b[-1])
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1, db - 1, -1):
        if a[k]:
            quo[k - db] = c = B.mul_c(a[k], inv)
            for i, bi in enumerate(b[:db]):
                if bi:
                    a[k - db + i] = B.sub_c(a[k - db + i], B.mul_c(c, bi))
    return _pc_trim(quo)


def _pc_mulmod(B, a, b, mod):
    return _pc_mod(B, _pc_mul(B, a, b), mod)


def _pc_powmod(B, a, e: int, mod):
    """a^e modulo mod, e >= 0, left to right: a squaring for each bit of e
    below the top one and a product by a for each set bit below it, so
    e.bit_length() - 1 squarings and e.bit_count() - 1 products."""
    if not e:
        return [1]
    base = result = _pc_mod(B, a, mod)
    for bit in bin(e)[3:]:
        result = _pc_mulmod(B, result, result, mod)
        if bit == "1":
            result = _pc_mulmod(B, result, base, mod)
    return result


def _pc_gcd(B, a, b):
    """gcd of code polynomials over B, up to a unit."""
    while b:
        a, b = b, _pc_mod(B, a, b)
    return a


def _pc_distinct_degree(B, S, upto: int):
    """Distinct-degree factorization of S != 0 over B (Q = |B|): for
    k = 1..upto, while S is not constant, yield (M, k) for each part
    M = gcd(S, x^(Q^k) - x) that is not constant, squarefree with factors
    of degrees dividing k, and divide it out of S."""
    x = power = [0, 1]
    for k in range(1, upto + 1):
        if len(S) <= 1:
            return
        power = _pc_powmod(B, power, B.order, S)
        M = _pc_gcd(B, S, _pc_sub(B, power, x))
        if len(M) > 1:
            yield M, k
            S = _pc_quo(B, S, M)


def _pc_is_irreducible(B, f) -> bool:
    """Irreducibility of a monic polynomial over the field B.

    Ben-Or's test (FOCS 1981): no distinct-degree part gcd(x^(Q^k) - x, f)
    for k <= m/2 (Q = |B|, m = deg f).  A reducible f fails at the degree
    of its smallest irreducible factor.
    """
    m = len(f) - 1
    return m > 0 and next(_pc_distinct_degree(B, f, m // 2), None) is None


def _lex_smallest_irreducible_codes(B, m: int):
    """Monic degree-m irreducible over B, m >= 2, minimal in lexicographic
    order of the coefficient vector (constant term first, codes ordered as
    integers).

    The search starts at constant term 1, since x divides the rest, and
    skips candidates with a root in B; only the others, which have no
    linear factor, go to Ben-Or's test.
    """
    Q = B.order
    for lower in itertools.product(range(1, Q), *[range(Q)] * (m - 1)):
        f = list(lower) + [1]
        if all(_pc_eval(B, f, a) for a in range(1, Q)) and \
                _pc_is_irreducible(B, f):
            return tuple(f)
    raise ArithmeticError("no irreducible polynomial found (impossible)")


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------


class FiniteField:
    """A finite field F_(p^m), optionally built as an extension of a base field.

    Attributes:
        char: the characteristic p.
        order: number of elements.
        degree: absolute degree over the prime field.
        base: the base field of the extension tower (None for prime fields).
        rel_degree: degree over ``base`` (1 for prime fields).
        modulus: codes of the (monic) defining polynomial over ``base``,
            little-endian; ``(0, 1)`` (i.e. x) for prime fields.

    Elements are plain integer codes.  Prime-subfield constants embed as the codes 0..p-1 at every level of
    a tower, so base-field codes are literally extension-field codes.
    """

    def __init__(self, base: "FiniteField | None", modulus, p: int = 0):
        """F_p when ``base`` is None, else ``base[x]/(modulus)``."""
        self.base, self.modulus = base, modulus
        self.rel_degree = n = len(modulus) - 1
        self.char = p if base is None else base.char
        self.order = (p if base is None else base.order) ** n
        self.degree = (1 if base is None else base.degree) * n
        self._exp = None  # generator powers, doubled, for table multiplication
        self._log = None
        self._zech = None  # Zech logarithms, for table addition in odd char

    # -- construction -------------------------------------------------------

    @classmethod
    @functools.cache
    def prime(cls, p: int) -> "FiniteField":
        """F_p, built once per p."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        return cls(None, (0, 1), p)

    @classmethod
    @functools.cache
    def extension(cls, base: "FiniteField", m: int) -> "FiniteField":
        """Degree-m extension of ``base`` by the lexicographically smallest
        monic irreducible, built once per (base, m)."""
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        return base if m == 1 else \
            cls(base, _lex_smallest_irreducible_codes(base, m))

    @classmethod
    def of_order(cls, p: int, m: int) -> "FiniteField":
        """F_(p^m) over the prime field with the canonical modulus."""
        return cls.extension(cls.prime(p), m)

    # -- element codes ------------------------------------------------------

    def decode(self, code: int):
        """Code -> tuple of base-field codes (little-endian digits)."""
        if self.base is None:
            return (code,)
        q = self.base.order
        out = []
        for _ in range(self.rel_degree):
            out.append(code % q)
            code //= q
        return tuple(out)

    def encode(self, digits) -> int:
        if self.base is None:
            return digits[0]
        q = self.base.order
        code = 0
        for d in reversed(digits):
            code = code * q + d
        return code

    def embed_int(self, n: int) -> int:
        """Code of the prime-subfield constant n mod p."""
        return n % self.char

    def __repr__(self):
        return f"GF({self.order})"

    # -- arithmetic on codes --------------------------------------------------

    def add_c(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        if self.base is None:
            return (a + b) % self.order
        if self._zech is not None:
            if a == 0:
                return b
            if b == 0:
                return a
            la = self._log[a]
            # a difference in (-n, n) indexes from the end: g^(-k) = g^(n-k)
            k = self._zech[self._log[b] - la]
            return 0 if k < 0 else self._exp[la + k]
        return self.encode(_pc_add(self.base, self.decode(a), self.decode(b)))

    def neg_c(self, a: int) -> int:
        if self.char == 2:
            return a
        if self.base is None:
            return (-a) % self.order
        if self._zech is not None:
            # -1 = g^(n/2)
            return self._exp[self._log[a] + (self.order - 1) // 2] if a else 0
        return self.encode(_pc_sub(self.base, (), self.decode(a)))

    def sub_c(self, a: int, b: int) -> int:
        if self.char == 2:
            return a ^ b
        if self.base is None:
            return (a - b) % self.order
        return self.add_c(a, self.neg_c(b))

    def mul_c(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        if self.base is None:
            return (a * b) % self.order
        return self.encode(_pc_mulmod(self.base, self.decode(a), self.decode(b),
                                      self.modulus))

    def inv_c(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        return self.pow_c(a, self.order - 2)

    def pow_c(self, a: int, e: int) -> int:
        """a^e for e >= 0."""
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        if self.base is None:
            return pow(a, e, self.order)
        return self.encode(_pc_powmod(self.base, self.decode(a), e,
                                      self.modulus))

    # -- tables ---------------------------------------------------------------

    def build_tables(self) -> "FiniteField":
        """Build exp/log tables, and Zech tables in odd characteristic
        (only for orders <= 2^20); idempotent.  Returns the field.

        ``exp`` is walked with the table-driven step c -> c*g of
        ``_times``; the only field products are the ``degree`` products
        that build its tables.
        """
        if self._exp is not None or self.order > _TABLE_MAX_ORDER:
            return self
        n = self.order - 1
        g = self._find_generator()
        times_g = self._times(g)
        exp = array("I", [0]) * (2 * n)
        log = array("I", [0]) * self.order
        c = 1
        for k in range(n):
            exp[k] = c
            exp[k + n] = c
            log[c] = k
            c = times_g(c)
        if c != 1:
            raise ArithmeticError(
                f"GF({self.order}): generator {g} does not have order {n}")
        if self.char != 2:
            # the lowest base-p digit of a code is its prime-field component
            # at every level of a tower, so c + 1 only changes that digit
            p = self.char
            zech = array("i", [-1]) * n
            for k in range(n):
                c = exp[k]
                c1 = c - c % p + (c % p + 1) % p
                if c1:
                    zech[k] = log[c1]
            self._zech = zech
        self._exp = exp
        self._log = log
        return self

    def _times(self, a: int):
        """The map c -> c*a on codes, by table lookups.

        It is F_p-linear, and the base-p digits of a code are its
        coordinates over F_p at every level of a tower.  So c*a is the
        digit-wise sum mod p of the images of the low and the high half of
        c's D = ``degree`` digits.  The tables ``low`` and ``high`` hold
        those images, built from the D products a * p^i by the same sum.
        They store radix-(2p - 1) digits, so that the sum of two images is
        an integer sum without carries, and ``unspread`` takes each digit
        of it mod p, back to base p.  A step is two divmods and four
        lookups, and no field multiplication.
        """
        p = self.char
        if self.base is None:
            return lambda c: c * a % p
        h = (self.degree + 1) // 2
        ph, s = p ** h, 2 * p - 1
        sh = s ** h
        spread = [0] * ph  # h base-p digits -> the same digits in radix s
        for c in range(1, ph):
            spread[c] = spread[c // p] * s + c % p
        unspread = [0] * sh  # h radix-s digits, each mod p -> base p
        for v in range(1, sh):
            unspread[v] = unspread[v // s] * p + v % s % p

        def to_radix_s(c):
            hi, lo = divmod(c, ph)
            return spread[lo] + spread[hi] * sh

        def from_radix_s(v):
            hi, lo = divmod(v, sh)
            return unspread[lo] + unspread[hi] * ph

        def images(digits):  # of j * p^digits[0] for j < p^len(digits)
            out = [0]
            for i in digits:
                col = to_radix_s(self.mul_c(a, p ** i))
                for j in range((p - 1) * len(out)):
                    out.append(from_radix_s(to_radix_s(out[j]) + col))
            return [to_radix_s(c) for c in out]

        low = images(range(h))
        high = images(range(h, self.degree))

        def times_a(c):  # from_radix_s inlined: this runs once per element
            hi, lo = divmod(c, ph)
            hi, lo = divmod(low[lo] + high[hi], sh)
            return unspread[lo] + unspread[hi] * ph

        return times_a

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        ps = _prime_factors(n)
        for cand in range(2, self.order):
            if all(self.pow_c(cand, n // p) != 1 for p in ps):
                return cand
        raise ArithmeticError("no generator found (impossible)")
