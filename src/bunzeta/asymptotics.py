"""Limit densities of closed points, the evaluated limit formulas with
certified truncation tails, finite-genus left-hand sides, and reports.

The per-degree limit densities beta_m (one nonnegative rational per
degree, finitely supported) feed three right-hand-side evaluators:

* :func:`rhs_pic`   -- ``1 - sum_m beta_m log_q((q^m - 1)/q^m)``
* :func:`rhs_group` -- ``dim G - sum_r beta_r log_q(|G(F_(q^r))|/q^(r dim G))``
* :func:`rhs_general` -- ``-sum_r gamma_r log_q L(r)`` for user-supplied
  local values.

All binary64 values are computed with ``math.fsum`` over terms listed in
increasing degree order, so specializations that produce identical exact
term lists (the rank-1 torus versus the Picard form, the constant-sheaf
instance of the general form) are bit-identical.  Reported tails are
certified upper bounds on the discarded part of the sum, derived in
exact rational arithmetic (see docs/tail_bounds.md) and only then
rounded outward to binary64.

Square roots of non-square integers are handled by outward-rounded
rational enclosures, never floating point, so the feasibility bound
``sum_m m beta_m / (q^(m/2) - 1) <= 1`` is exact at perfect squares and
certified from above otherwise.

:func:`dominance_check` and :func:`convergence_report` return their
sections of the ``asymptote`` report as JSON-ready dicts, with binary64
values as 17-digit strings (``arith.format_float``).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from math import isqrt

from .arith import (
    Record,
    format_float,
    format_rational,
    is_prime_power,
)
from .groups import GroupSpec, builtin_group, mass_ratio
from .mass import RouteMismatchError, compositions, mass_bun, semistable_mass
from .zeta import ZetaData, degree_spectrum, regenerate_counts

_SQRT_BITS = 64
_LN_TOL = Fraction(1, 1 << 60)
# Reported tails get a tiny outward nudge, plus an absolute floor whenever
# something nonzero was actually discarded, to absorb binary64 evaluation
# noise on the value itself.
_TAIL_SLACK = Fraction(1_000_000_001, 1_000_000_000)
_TAIL_FLOOR = Fraction(1, 1 << 40)
# largest GL rank with a dominance table (2^(n-1) compositions); both the
# tv and the family sections leave the table out above it
DOMINANCE_MAX_RANK = 6


def sqrt_enclosure(n: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(n) <= hi with hi - lo <= 2^-_SQRT_BITS; lo == hi
    exactly when n is a perfect square."""
    if n < 0:
        raise ValueError("negative argument")
    s = isqrt(n << (2 * _SQRT_BITS))
    lo = Fraction(s, 1 << _SQRT_BITS)
    if lo * lo == n:
        return lo, lo
    return lo, Fraction(s + 1, 1 << _SQRT_BITS)


def _sqrt_lower(n: int) -> Fraction:
    lo, _ = sqrt_enclosure(n)
    return lo


@functools.lru_cache(maxsize=None)
def ln_lower(q: int) -> Fraction:
    """Rational lower bound of ln(q) via the atanh series (all terms > 0),
    summed until the next term drops below ``_LN_TOL``."""
    if q < 2:
        raise ValueError("q must be >= 2")
    u = Fraction(q - 1, q + 1)
    acc = Fraction(0)
    power = u
    u2 = u * u
    j = 0
    while True:
        term = power / (2 * j + 1)
        acc += term
        if term < _LN_TOL or j > 4000:
            break
        power *= u2
        j += 1
    return 2 * acc


class TVData(Record, namedtuple("TVData", "q beta groups")):
    """Per-degree limit densities of closed points along a family.

    ``beta`` maps a degree m to the nonnegative rational density beta_m
    (finitely supported); a zero density is dropped, as if its degree
    were not given.  ``groups`` optionally lists
    (degree, weight, local value at the edge) triples for the general
    evaluator, with degrees >= 1 and local values > 0.  Feasibility with
    respect to the square-root bound is a flag, not a hard error.
    """

    __slots__ = ()

    def __new__(cls, q: int, beta: tuple[tuple[int, Fraction], ...],
                groups: tuple[tuple[int, Fraction, Fraction], ...]
                | None = None):
        # an error starts with the path of its value in the JSON ``tv``
        # section: q, beta.m, groups[i].deg, groups[i].L
        beta = [(m, b) for m, b in beta if b]
        if not is_prime_power(q):
            raise ValueError(f"q: must be a prime power, got {q}")
        seen = set()
        for m, b in beta:
            if m < 1:
                raise ValueError(f"beta.{m}: degree must be >= 1")
            if m in seen:
                raise ValueError(f"beta.{m}: duplicate degree")
            if b < 0:
                raise ValueError(f"beta.{m}: must be >= 0, got {b}")
            seen.add(m)
        beta = tuple(sorted((m, Fraction(b)) for m, b in beta))
        if groups is not None:
            groups = tuple((int(r), Fraction(gam), Fraction(L))
                           for r, gam, L in groups)
            for i, (r, _, L) in enumerate(groups):
                if r < 1:
                    raise ValueError(f"groups[{i}].deg: must be >= 1, got {r}")
                if L <= 0:
                    raise ValueError(f"groups[{i}].L: must be > 0, got {L}")
        return super().__new__(cls, q, beta, groups)

    def to_json_dict(self) -> dict:
        out = {"q": self.q,
               "beta": {str(m): format_rational(b) for m, b in self.beta}}
        if self.groups is not None:
            out["groups"] = [{"deg": r, "gamma": format_rational(g),
                              "L": format_rational(L)}
                             for r, g, L in self.groups]
        return out


def tv_bound(tv: TVData) -> Fraction:
    """Certified upper bound of ``sum_m m beta_m / (q^(m/2) - 1)``.

    Exact where q^(m/2) is an integer; elsewhere the square root is
    replaced by a rational lower enclosure (giving an upper bound on the
    term).  The feasibility condition is ``tv_bound(tv) <= 1``.
    """
    total = Fraction(0)
    for m, b in tv.beta:
        root_lower = _sqrt_lower(tv.q ** m)
        if root_lower <= 1:
            raise ArithmeticError("q^(m/2) enclosure degenerate")
        total += Fraction(m) * b / (root_lower - 1)
    return total


def _neglog_q_terms(q: int, pairs) -> list[float]:
    """Per-term binary64 values of weight * (-log_q ratio)."""
    out = []
    for weight, ratio in pairs:
        if ratio <= 0:
            raise ValueError(f"nonpositive local value {ratio}")
        out.append(float(weight) * -log_q_fraction(ratio, q))
    return out


def _neglog_upper(q: int, x: Fraction, lnq_lower: Fraction) -> Fraction:
    """Rational upper bound of -log_q(1 - x) for 0 < x < 1:
    -ln(1-x) <= x/(1-x), so -log_q(1-x) <= x / ((1-x) ln q)."""
    return x / ((1 - x) * lnq_lower)


def _finite_tail(tv: TVData, M: int, spec_degrees: Sequence[int]) -> Fraction:
    """Certified rational bound on the discarded terms (degrees > M) of the
    group sum with the given invariant degrees ((1,) for the Picard form):
    each discarded term bounded by -log_q(1 - x) <= x/((1 - x) ln q), see
    docs/tail_bounds.md.  Zero when nothing was discarded."""
    q = tv.q
    lnq = ln_lower(q)
    bound = sum(b * sum(_neglog_upper(q, Fraction(1, q ** (m * dj)), lnq)
                        for dj in spec_degrees)
                for m, b in tv.beta if m > M)
    return bound * _TAIL_SLACK + _TAIL_FLOOR if bound else Fraction(0)


# (value, tail) pair of binary64 numbers
RhsResult = namedtuple("RhsResult", "value tail")


def tv_sum_term(tv: TVData, trunc: int) -> float:
    """The summed part ``-sum_(m<=trunc) beta_m log_q((q^m - 1)/q^m)``,
    binary64, of rhs_pic.  rhs_general on the constant-sheaf local values
    ``L(m) = (q^m - 1)/q^m`` lists the same exact terms and reproduces it
    bit-exactly."""
    q = tv.q
    pairs = [(b, Fraction(q ** m - 1, q ** m))
             for m, b in tv.beta if m <= trunc]
    return math.fsum(_neglog_q_terms(q, pairs))


def rhs_pic(tv: TVData, trunc: int) -> RhsResult:
    """``1 - sum_(m<=trunc) beta_m log_q((q^m - 1)/q^m)`` with certified tail."""
    value = 1.0 + tv_sum_term(tv, trunc)
    tail = float(_finite_tail(tv, trunc, (1,)))
    return RhsResult(value, tail)


def rhs_group(tv: TVData, spec: GroupSpec, trunc: int) -> RhsResult:
    """``dim G - sum_(r<=trunc) beta_r log_q(mass_ratio(G, q, r))`` with tail.

    For the one-dimensional torus this reproduces rhs_pic bit-exactly:
    the term lists coincide as exact rationals and are summed by the same
    code path.
    """
    q = tv.q
    pairs = [(b, mass_ratio(spec, q, r)) for r, b in tv.beta if r <= trunc]
    value = float(spec.dim) + math.fsum(_neglog_q_terms(q, pairs))
    tail = float(_finite_tail(tv, trunc, spec.degrees))
    return RhsResult(value, tail)


# (value, weight_envelope_ok) pair
GeneralResult = namedtuple("GeneralResult", "value envelope_ok")


def rhs_general(groups, q: int, d_bound: int) -> GeneralResult:
    """``-sum_r gamma_r log_q L(r)`` for (degree, weight, local value) triples.

    The flag reports whether every |log_q L(r)| respects the decay
    envelope ``3 d_bound q^(-deg/2)`` expected of stalks with weights
    <= 1/2 and total dimension < d_bound; a False flag is a warning that
    the supplied local data is inconsistent with those hypotheses.  A
    nonpositive local value is a ValueError.
    """
    if d_bound < 1:
        raise ValueError("d_bound must be >= 1")
    triples = [(int(r), Fraction(gam), Fraction(L)) for r, gam, L in groups]
    pairs = [(gam, L) for _, gam, L in triples]
    value = math.fsum(_neglog_q_terms(q, pairs))
    ok = all(abs(log_q_fraction(L, q))
             <= 3.0 * d_bound * float(Fraction(1) / _sqrt_lower(q ** r))
             for r, _, L in triples)
    return GeneralResult(value, ok)


def log_q_fraction(x: Fraction, q: int) -> float:
    """log_q of a positive rational in binary64 (handles huge num/den)."""
    if x <= 0:
        raise ValueError("log of a nonpositive value")
    return (math.log(x.numerator) - math.log(x.denominator)) / math.log(q)


def lhs_sequence(family: Sequence[ZetaData], spec: GroupSpec):
    """[(g_i, log_q mass / g_i)] for each member; exact mass, binary64 log."""
    out = []
    for z in family:
        if z.g < 1:
            raise ValueError("genus-0 member: the normalized log is undefined")
        mass = mass_bun(spec, z)
        out.append((z.g, log_q_fraction(mass, z.q) / z.g))
    return out


def beta_quotients(family: Sequence[tuple[Sequence[int], int]], M: int):
    """Per-member {m: B_m/g} maps from (B_1..B_M', g) pairs; the last one's
    nonzero entries are the finite-index estimate of the limit densities."""
    out = []
    for spectrum, g in family:
        if g < 1:
            raise ValueError("genus-0 member: density quotients are undefined")
        out.append({m: Fraction(spectrum[m - 1], g)
                    for m in range(1, min(M, len(spectrum)) + 1)})
    return out


def dominance_check(tv: TVData, n: int, trunc: int) -> dict:
    """The report's dominance table: the growth exponent of each
    composition term of the rank-n semistable sum,
    ``sum_(i<j) n_i n_j + sum_j rhs_group(GL_(n_j))``, and ``dominant``.

    ``dominant`` is True iff the one-part composition (n) attains the
    strict maximum ((n) having the largest exponent is what makes the
    semistable and total masses grow at the same rate).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > DOMINANCE_MAX_RANK:
        raise ValueError(
            f"composition table limited to n <= {DOMINANCE_MAX_RANK}")
    values = {m: rhs_group(tv, builtin_group("GL", m), trunc).value
              for m in range(1, n + 1)}
    exponents = {}
    for comp in compositions(n):
        cross = sum(comp[i] * comp[j]
                    for i in range(len(comp)) for j in range(i + 1, len(comp)))
        exponents[comp] = float(cross) + math.fsum(values[p] for p in comp)
    trivial = exponents[(n,)]
    return {"rows": [{"composition": list(comp), "exponent": format_float(x)}
                     for comp, x in exponents.items()],
            "dominant": all(x < trivial for comp, x in exponents.items()
                            if comp != (n,))}


def convergence_report(family: Sequence[ZetaData], spec: GroupSpec,
                       trunc: int) -> dict:
    """The report's family section: zeta data -> spectra -> empirical
    densities -> rhs with tail from the last member's densities, per-member
    lhs log_q(mass)/g and gaps, plus, for GL_n, the degree-0 semistable
    mass per member and the dominance table (None for
    n > DOMINANCE_MAX_RANK).  Finite gaps at finite genus are data, not a
    verification of the genus-to-infinity limit."""
    zetas = list(family)
    if not zetas:
        raise ValueError("empty family")
    q = zetas[0].q
    if any(z.q != q for z in zetas):
        raise ValueError("family members live over different base fields")
    genera = [z.g for z in zetas]
    if genera != sorted(genera):
        raise ValueError("family must be sorted by genus")
    pairs = [(degree_spectrum(regenerate_counts(z, trunc)), z.g)
             for z in zetas]
    quotients = beta_quotients(pairs, trunc)
    tv = TVData(q, tuple(quotients[-1].items()))
    bound = tv_bound(tv)
    rhs = rhs_group(tv, spec, trunc)
    gl_rank = spec.is_gl()
    rows = []
    for i, (z, (g, lhs)) in enumerate(zip(zetas, lhs_sequence(zetas, spec))):
        row = {"index": i, "genus": g, "lhs": format_float(lhs),
               "gap": format_float(abs(lhs - rhs.value))}
        if gl_rank is not None:
            try:
                ss = semistable_mass(gl_rank, 0, z)
            except RouteMismatchError as e:
                raise RouteMismatchError(
                    f"family member {i} (g = {g}): {e}") from e
            if ss > 0:
                ss_lhs = log_q_fraction(ss, q) / g
                row["ss_lhs"] = format_float(ss_lhs)
                row["ss_gap"] = format_float(abs(ss_lhs - lhs))
        rows.append(row)
    dom = None
    if gl_rank is not None and gl_rank <= DOMINANCE_MAX_RANK:
        dom = dominance_check(tv, gl_rank, trunc)
    return {"q": q, "group": spec.to_json_dict(), "rows": rows,
            "rhs": {"value": format_float(rhs.value),
                    "tail": format_float(rhs.tail)},
            "tv": tv.to_json_dict(), "tv_bound": format_rational(bound),
            "tv_feasible": bound <= 1, "dominance": dom,
            "member_quotients": [{str(m): format_rational(b)
                                  for m, b in quo.items()} for quo in quotients],
            "note": "finite-genus data only; the genus-to-infinity limit is "
                    "not verifiable at this scale"}
