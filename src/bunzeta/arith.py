"""Exact arithmetic foundations: rationals, finite fields, polynomials.

Everything here is exact.  Rational values are ``fractions.Fraction``
(always in lowest terms, positive denominator).  Finite fields are built
as towers over their prime field with a deterministic, lexicographically
smallest irreducible modulus, so the same field is reconstructed
identically across runs.  Elements are encoded as integers in
``[0, order)`` (little-endian digits over the base field), which keeps
enumeration order canonical and the counting kernels fast; small fields
additionally build discrete-log tables so multiplication is a table
lookup.  Polynomials over a field are little-endian tuples or lists of
element codes, handled by the ``_pc_*`` helpers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

DEFAULT_ENUM_BUDGET = 1 << 26

# Fields up to this order get exp/log tables for multiplication; beyond it
# they fall back to polynomial arithmetic.  Addition has no table.
_TABLE_MAX_ORDER = 1 << 16


class BudgetExceededError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed the configured cap."""

    def __init__(self, size: int, budget: int, what: str = "enumeration"):
        self.size = size
        self.budget = budget
        super().__init__(f"{what} of size {size} exceeds budget {budget}")


def parse_rational(s) -> Fraction:
    """Parse ``"p/q"`` / ``"p"`` strings (also accepts ints) into a Fraction."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise ValueError(f"cannot parse rational from {s!r}")


def format_rational(x: Fraction) -> str:
    """Render a Fraction as ``"p/q"`` (or ``"p"`` for integers)."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def moebius(n: int) -> int:
    """Mobius function of a positive integer."""
    if n < 1:
        raise ValueError("moebius is defined for positive integers")
    result = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            result = -result
        d += 1
    if n > 1:
        result = -result
    return result


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_prime_power(n: int) -> bool:
    if n < 2:
        return False
    ps = _prime_factors(n)
    return len(ps) == 1


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
    """Remainder of a modulo a monic polynomial (codes, little-endian)."""
    a = list(a)
    dm = len(mod) - 1
    for k in range(len(a) - 1, dm - 1, -1):
        c = a[k]
        if c == 0:
            continue
        a[k] = 0
        for i in range(dm):
            a[k - dm + i] = B.sub_c(a[k - dm + i], B.mul_c(c, mod[i]))
    return _pc_trim(a[:dm])


def _pc_mulmod(B, a, b, mod):
    return _pc_mod(B, _pc_mul(B, a, b), mod)


def _pc_powmod(B, a, e: int, mod):
    result = [1]
    base = _pc_mod(B, a, mod)
    while e:
        if e & 1:
            result = _pc_mulmod(B, result, base, mod)
        base = _pc_mulmod(B, base, base, mod)
        e >>= 1
    return result


def _pc_gcd(B, a, b):
    a, b = list(a), list(b)
    while b:
        # reduce a mod b (b need not be monic)
        lead_inv = B.inv_c(b[-1])
        r = list(a)
        db = len(b) - 1
        for k in range(len(r) - 1, db - 1, -1):
            c = r[k]
            if c == 0:
                continue
            factor = B.mul_c(c, lead_inv)
            r[k] = 0
            for i in range(db):
                r[k - db + i] = B.sub_c(r[k - db + i], B.mul_c(factor, b[i]))
        a, b = b, _pc_trim(r[:db]) if db else []
    return a


def _pc_is_irreducible(B, f) -> bool:
    """Irreducibility of a monic polynomial over the field B.

    Criterion: x^(Q^m) == x mod f, and gcd(x^(Q^(m/l)) - x, f) = 1 for
    every prime l dividing m (Q = |B|, m = deg f).
    """
    m = len(f) - 1
    if m <= 0:
        return False
    if m == 1:
        return True
    Q = B.order
    x = [0, 1]
    # x^(Q^k) mod f by k successive Q-th powers
    power = x
    powers = {}
    for k in range(1, m + 1):
        power = _pc_powmod(B, power, Q, f)
        powers[k] = power
    if _pc_trim(_pc_sub(B, powers[m], x)):
        return False
    for ell in _prime_factors(m):
        g = _pc_gcd(B, _pc_sub(B, powers[m // ell], x), f)
        if len(g) - 1 != 0:
            return False
    return True


def _lex_smallest_irreducible_codes(B, m: int):
    """Monic degree-m irreducible over B, minimal in lexicographic order of
    the coefficient vector (constant term first, codes ordered as integers)."""
    for lower in itertools.product(range(B.order), repeat=m):
        if m > 1 and lower[0] == 0:
            continue  # constant term 0: divisible by x
        f = list(lower) + [1]
        if _pc_is_irreducible(B, f):
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

    _prime_cache: dict[int, "FiniteField"] = {}

    def __init__(self, *, _char, _order, _degree, _base, _rel_degree, _modulus):
        self.char = _char
        self.order = _order
        self.degree = _degree
        self.base = _base
        self.rel_degree = _rel_degree
        self.modulus = _modulus
        self._extensions: dict[int, "FiniteField"] = {}
        self._exp = None  # generator powers, doubled, for table multiplication
        self._log = None
        self._tables_impossible = _order > _TABLE_MAX_ORDER
        if _base is not None:
            # x^(rel_degree + k) mod modulus, as code rows, for reduction
            self._red_rows = []
            row = list(_modulus[:-1])
            neg = [_base.neg_c(c) for c in row]
            self._red_rows.append(tuple(neg))
            for _ in range(_rel_degree - 2):
                neg = self._shift_reduce(neg)
                self._red_rows.append(tuple(neg))

    # -- construction -------------------------------------------------------

    @classmethod
    def prime(cls, p: int) -> "FiniteField":
        f = cls._prime_cache.get(p)
        if f is None:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            f = cls(_char=p, _order=p, _degree=1, _base=None, _rel_degree=1,
                    _modulus=(0, 1))
            cls._prime_cache[p] = f
        return f

    @classmethod
    def extension(cls, base: "FiniteField", m: int, modulus=None) -> "FiniteField":
        """Degree-m extension of ``base``; modulus defaults to the
        lexicographically smallest monic irreducible."""
        if m < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            if m == 1:
                return base
            cached = base._extensions.get(m)
            if cached is not None:
                return cached
            modulus = _lex_smallest_irreducible_codes(base, m)
            f = cls(_char=base.char, _order=base.order ** m,
                    _degree=base.degree * m, _base=base, _rel_degree=m,
                    _modulus=modulus)
            base._extensions[m] = f
            return f
        modulus = tuple(modulus)
        if len(modulus) != m + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of the stated degree")
        if not _pc_is_irreducible(base, list(modulus)):
            raise ValueError("modulus is not irreducible over the base field")
        return cls(_char=base.char, _order=base.order ** m,
                   _degree=base.degree * m, _base=base, _rel_degree=m,
                   _modulus=modulus)

    @classmethod
    def of_order(cls, p: int, m: int) -> "FiniteField":
        """F_(p^m) over the prime field with the canonical modulus."""
        base = cls.prime(p)
        return base if m == 1 else cls.extension(base, m)

    def _shift_reduce(self, row):
        # multiply the polynomial given by `row` by x, reduce mod modulus
        B = self.base
        m = self.rel_degree
        out = [0] + list(row)
        top = out[m]
        out = out[:m]
        if top != 0:
            first = self._red_rows[0]
            for i in range(m):
                out[i] = B.add_c(out[i], B.mul_c(top, first[i]))
        return out

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
        for d in reversed(list(digits)):
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
        B = self.base
        q = B.order
        out = 0
        mult = 1
        while a or b:
            out += B.add_c(a % q, b % q) * mult
            a //= q
            b //= q
            mult *= q
        return out

    def neg_c(self, a: int) -> int:
        if self.char == 2:
            return a
        if self.base is None:
            return (-a) % self.order
        B = self.base
        q = B.order
        out = 0
        mult = 1
        while a:
            out += B.neg_c(a % q) * mult
            a //= q
            mult *= q
        return out

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
        return self._poly_mul_c(a, b)

    def _poly_mul_c(self, a: int, b: int) -> int:
        B = self.base
        m = self.rel_degree
        da = self.decode(a)
        db = self.decode(b)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(da):
            if ai == 0:
                continue
            for j, bj in enumerate(db):
                if bj == 0:
                    continue
                prod[i + j] = B.add_c(prod[i + j], B.mul_c(ai, bj))
        # reduce degrees m .. 2m-2 (rows hold x^(m+j) already reduced below m)
        for k in range(2 * m - 2, m - 1, -1):
            c = prod[k]
            if c == 0:
                continue
            row = self._red_rows[k - m]
            for i in range(m):
                prod[i] = B.add_c(prod[i], B.mul_c(c, row[i]))
        return self.encode(prod[:m])

    def inv_c(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self._exp is not None:
            return self._exp[self.order - 1 - self._log[a]]
        if self.base is None:
            return pow(a, self.order - 2, self.order)
        return self.pow_c(a, self.order - 2)

    def pow_c(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow_c(self.inv_c(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        if self._exp is not None:
            return self._exp[(self._log[a] * e) % (self.order - 1)]
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul_c(result, base)
            base = self.mul_c(base, base)
            e >>= 1
        return result

    # -- tables ---------------------------------------------------------------

    def build_tables(self) -> None:
        """Build exp/log tables (only for orders <= 2^16); idempotent."""
        if self._exp is not None or self._tables_impossible:
            return
        n = self.order - 1
        g = self._find_generator()
        exp = [0] * (2 * n)
        log = [0] * self.order
        c = 1
        for k in range(n):
            exp[k] = c
            exp[k + n] = c
            log[c] = k
            c = self.mul_c(c, g)
        if c != 1:
            raise ArithmeticError(
                f"GF({self.order}): generator {g} does not have order {n}")
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        ps = _prime_factors(n)
        for cand in range(2, self.order):
            if all(self.pow_c(cand, n // p) != 1 for p in ps):
                return cand
        raise ArithmeticError("no generator found (impossible)")

    # -- derived operations -----------------------------------------------------

    def trace_to_prime_c(self, a: int) -> int:
        """Absolute trace down to F_p, returned as an integer in [0, p)."""
        p = self.char
        acc = a
        t = a
        for _ in range(self.degree - 1):
            t = self.pow_c(t, p)
            acc = self.add_c(acc, t)
        if acc >= p:
            raise ArithmeticError(
                f"GF({self.order}): trace of {a} is {acc}, not in the prime field")
        return acc

    def is_square_c(self, a: int) -> bool:
        """Euler criterion; odd characteristic only."""
        if self.char == 2:
            return True  # Frobenius is bijective
        if a == 0:
            return True
        return self.pow_c(a, (self.order - 1) // 2) == 1

    def quadratic_root_count(self, a: int, c: int) -> int:
        """Number of y in the field with y^2 + a*y = c (codes in, count out)."""
        if self.char == 2:
            if a == 0:
                return 1  # squaring is a bijection
            t = self.mul_c(c, self.pow_c(self.inv_c(a), 2))
            return 2 if self.trace_to_prime_c(t) == 0 else 0
        # odd characteristic: discriminant of y^2 + a y - c
        disc = self.add_c(self.mul_c(a, a),
                          self.mul_c(self.embed_int(4), c))
        if disc == 0:
            return 1
        return 2 if self.is_square_c(disc) else 0


def ext_field(p: int, m: int) -> FiniteField:
    """F_(p^m) with the canonical (lex-smallest) modulus over F_p."""
    return FiniteField.of_order(p, m)
