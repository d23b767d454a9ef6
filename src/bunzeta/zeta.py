"""Zeta functions of curves from point counts, and derived exact invariants.

The zeta function of a curve of genus g over F_q is
``Z(T) = P(T) / ((1 - T)(1 - qT))`` with ``P`` of degree 2g,
``P(0) = 1`` and the functional equation ``a_(2g-i) = q^(g-i) a_i``.
``P`` is reconstructed from the minimal data N_1..N_g by Newton's
identities on integers; ``arith.power_sums`` runs them forward for the
counts ``P`` determines, and ``regenerate_counts`` keeps an exact
``Fraction`` series for runs past 2g + 4.  The guard N_(g+1) that may
follow N_1..N_g is a cross-check.  Inconsistent inputs fail loudly with
the first violated identity; there are no repair heuristics.

``checked_counts`` is the one admissibility rule for point counts: every
N_m, given, enumerated by a model or regenerated from ``P``, is
nonnegative and lies in its Weil interval ``|N_m - q^m - 1| <= 2g q^(m/2)``.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .arith import Record, divisors, is_prime_power, moebius, power_sums


class InconsistentCountsError(ValueError):
    """Point-count data does not come from a curve of the stated (q, g)."""


def checked_counts(q: int, g: int, counts, what: str = "N") -> list[int]:
    """N_1..N_k, once each is >= 0 and in its Weil interval
    |N_m - q^m - 1| <= 2g q^(m/2), compared squared so the test is exact."""
    counts = list(counts)
    for m, n_m in enumerate(counts, start=1):
        if n_m < 0:
            raise InconsistentCountsError(f"{what}_{m} = {n_m} < 0")
        dev = n_m - q ** m - 1
        if dev * dev > 4 * g * g * q ** m:
            raise InconsistentCountsError(
                f"{what}_{m} = {n_m} violates the Weil bound "
                f"|N - q^m - 1| <= 2g q^(m/2) for q={q}, g={g}")
    return counts


# -- exact power-series helpers (coefficient lists of Fractions) -------------


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out

def _series_log(z, order):
    """log of a series with constant term 1, to the given order."""
    lg = [Fraction(0)] * (order + 1)
    for k in range(1, order + 1):
        acc = z[k] if k < len(z) else Fraction(0)
        for j in range(1, k):
            if k - j < len(z):
                acc -= Fraction(j, k) * lg[j] * z[k - j]
        lg[k] = acc
    return lg


class ZetaData(Record, namedtuple("ZetaData", "q g a")):
    """q, genus, and the exact integer coefficients a_0..a_2g of P(T)."""

    __slots__ = ()

    def __new__(cls, q: int, g: int, a: tuple[int, ...]):
        # built first: the check regenerates counts from the finished value
        self = super().__new__(cls, q, g, a)
        if not is_prime_power(q):
            raise InconsistentCountsError(f"q = {q} is not a prime power")
        if len(a) != 2 * g + 1:
            raise InconsistentCountsError(
                f"P(T) must have degree 2g = {2 * g}, got {len(a) - 1}")
        for k, c in enumerate(a):
            if type(c) is not int:
                raise InconsistentCountsError(f"a_{k} = {c!r} is not an int")
        if a[0] != 1:
            raise InconsistentCountsError(f"a_0 = {a[0]} != 1")
        # i <= g keeps the exponent nonnegative; the i > g half of the
        # functional equation is the same identity read backwards
        for i in range(g + 1):
            if a[2 * g - i] != q ** (g - i) * a[i]:
                raise InconsistentCountsError(
                    f"functional equation fails at i = {i}: "
                    f"a_{2 * g - i} = {a[2 * g - i]} != q^{g - i} * a_{i}")
        if sum(a) <= 0:
            raise InconsistentCountsError(f"P(1) = {sum(a)} <= 0")
        # the counts this P regenerates must be admissible
        regenerate_counts(self, 2 * g + 4)
        return self

    def to_json_dict(self) -> dict:
        return {"q": self.q, "g": self.g, "a": [str(c) for c in self.a]}


def zeta_from_counts(q: int, g: int, counts) -> ZetaData:
    """Reconstruct P(T) from N_1..N_g, checking the guard N_(g+1) if given.

    With the power sums ``s_m = q^m + 1 - N_m`` of the inverse roots of P,
    Newton's identities ``s_k + a_1 s_(k-1) + ... + a_(k-1) s_1 + k a_k = 0``
    give a_1..a_g, one exact division each; a_(g+1)..a_(2g) come from the
    functional equation.  Every given count, the guard too, first passes
    ``checked_counts``.  Noninteger coefficients or P(1) <= 0 mean the
    counts are not the counts of a genus-g curve over F_q.  A guard
    N_(g+1) is checked, after ZetaData's own validation, against
    ``q^(g+1) + 1 - s_(g+1)`` from the integer ``power_sums`` of P.
    """
    counts = list(counts)
    if g < 0:
        raise ValueError("genus must be >= 0")
    if len(counts) not in (g, g + 1):
        raise ValueError(f"need g = {g} leading counts and at most the "
                         f"guard N_{g + 1}, got {len(counts)}")
    counts = checked_counts(q, g, counts)
    s = [q ** m + 1 - n for m, n in enumerate(counts, start=1)]
    a = [1]
    for k in range(1, g + 1):
        t = -sum(a[j] * s[k - j - 1] for j in range(k))
        if t % k:
            raise InconsistentCountsError(
                f"coefficient a_{k} = {Fraction(t, k)} is not an integer; "
                "counts are inconsistent")
        a.append(t // k)
    for k in range(g + 1, 2 * g + 1):
        a.append(q ** (k - g) * a[2 * g - k])
    z = ZetaData(q=q, g=g, a=tuple(a))
    n_next = q ** (g + 1) + 1 - power_sums(a, g + 1)[g]
    if counts[g:] not in ([], [n_next]):
        raise InconsistentCountsError(
            f"guard count N_{g + 1} = {counts[g]} but P(T) regenerates {n_next}")
    return z


def regenerate_counts(z: ZetaData, M: int) -> list[int]:
    """N_1..N_M predicted by Z(T) = P(T)/((1-T)(1-qT)), exactly, each
    passed through ``checked_counts``: up to 2g + 4 by ``power_sums``, past
    it by the ``Fraction`` series, since on integers the bench's ``ru_maxrss``
    of asymptote-family (it holds the runner's memory) grows over its bound."""
    q = z.q
    if M <= 2 * z.g + 4:
        out = [q ** m + 1 - s for m, s in enumerate(power_sums(z.a, M), 1)]
        return checked_counts(q, z.g, out, "regenerated N")
    zser = [Fraction(c) for c in z.a] + [Fraction(0)] * max(0, M + 1 - len(z.a))
    geom1 = [Fraction(1)] * (M + 1)
    geomq = [Fraction(q) ** k for k in range(M + 1)]
    zser = _series_mul(_series_mul(zser, geom1, M), geomq, M)
    lg = _series_log(zser, M)
    out = []
    for m in range(1, M + 1):
        n_m = m * lg[m]
        if n_m.denominator != 1:
            raise InconsistentCountsError(f"regenerated N_{m} is not an integer")
        out.append(n_m.numerator)
    return checked_counts(q, z.g, out, "regenerated N")


def class_number(z: ZetaData) -> int:
    """h = #Pic^0(X)(F_q) = P(1)."""
    return sum(z.a)


def quasi_residue(z: ZetaData) -> Fraction:
    """q^(1-g) h / (q - 1): the scaled leading value at the s = 1 pole."""
    return Fraction(class_number(z) * z.q ** max(1 - z.g, 0),
                    (z.q - 1) * z.q ** max(z.g - 1, 0))


def special_value_parts(z: ZetaData, s: int) -> tuple[int, int]:
    """Integers (num, den), not reduced, with num / den = zeta_X(s), s >= 2."""
    if s <= 1:
        raise ValueError("special_value needs s >= 2 (s = 1 is the pole; "
                         "use quasi_residue)")
    q, Q, acc = z.q, z.q ** s, 0
    for c in z.a:
        acc = acc * Q + c
    return acc * q ** (2 * s - 1), Q ** (2 * z.g) * (Q - 1) * (Q // q - 1)


def special_value(z: ZetaData, s: int) -> Fraction:
    """Zeta value at an integer s >= 2, P(q^-s) / ((1 - q^-s)(1 - q^(1-s))),
    on integers: ``acc q^(2s-1) / (Q^(2g) (Q - 1) (q^(s-1) - 1))`` with
    Q = q^s and acc = sum_k a_k Q^(2g-k) = Q^(2g) P(q^-s) by Horner."""
    return Fraction(*special_value_parts(z, s))


def degree_spectrum(counts) -> list[int]:
    """Closed points by degree from N_1..N_M: B_1..B_M with
    B_m = (1/m) sum_(d|m) mu(m/d) N_d."""
    bs = []
    for m in range(1, len(counts) + 1):
        s = sum(moebius(m // d) * counts[d - 1] for d in divisors(m))
        if s % m != 0:
            raise InconsistentCountsError(
                f"B_{m} = {s}/{m} is not an integer; counts are inconsistent")
        b = s // m
        if b < 0:
            raise InconsistentCountsError(f"B_{m} = {b} < 0; counts are inconsistent")
        bs.append(b)
    return bs
