"""Limit densities of closed points, the evaluated limit formulas with
certified truncation tails, finite-genus left-hand sides, and reports.

The per-degree limit densities beta_m (one nonnegative rational per
degree, finitely supported) feed two right-hand-side evaluators:

* :func:`rhs_group` -- ``dim G - sum_r beta_r log_q(|G(F_(q^r))|/q^(r dim G))``;
  the Picard form ``1 - sum_m beta_m log_q((q^m - 1)/q^m)`` is its case
  G = Gm.
* :func:`rhs_general` -- ``-sum_r gamma_r log_q L(r)`` for user-supplied
  local values.

All binary64 values are computed with ``math.fsum`` over terms listed in
increasing degree order, so specializations that produce identical exact
term lists (the constant-sheaf instance of the general form and the
summed part of the Picard form) are bit-identical.  Reported tails are
certified upper bounds on the discarded part of the sum, derived in
exact rational arithmetic (see docs/tail_bounds.md) and only then
rounded outward to binary64.

Square roots of non-square integers are handled by outward-rounded
rational enclosures, never floating point, so the feasibility bound
``sum_m m beta_m / (q^(m/2) - 1) <= 1`` is exact at perfect squares and
certified from above otherwise.

:func:`tv_report` and :func:`convergence_report` build the ``asymptote``
report's sections as JSON-ready dicts by the same two helpers, with
binary64 values as 17-digit strings (``arith.format_float``).
"""

from __future__ import annotations

import functools
import itertools
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
# largest GL rank with a dominance table (2^(n-1) compositions)
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
    """Rational lower bound of ln(q): with q = 2^k r, 1 <= r < 2,
    ln q = k ln 2 + ln r, and ln x = 2 atanh(u) = 2 sum u^(2j+1)/(2j+1),
    u = (x - 1)/(x + 1), is summed at u = 1/3 (x = 2) and u < 1/3 (x = r),
    each series (all terms >= 0) to its first term below ``_LN_TOL``."""
    if q < 2:
        raise ValueError("q must be >= 2")
    k = q.bit_length() - 1
    r = Fraction(q, 1 << k)
    out = Fraction(0)
    for weight, u in ((k, Fraction(1, 3)), (1, (r - 1) / (r + 1))):
        power, j = u, 0
        while True:
            term = power / (2 * j + 1)
            out += 2 * weight * term
            if term < _LN_TOL:
                break
            power, j = power * u * u, j + 1
    return out


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
        try:
            if not is_prime_power(q):
                raise ValueError(f"must be a prime power, got {q}")
        except ValueError as e:  # also a q past the primality limit
            raise ValueError(f"q: {e}") from None
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


def _neglog_upper(x: Fraction, lnq_lower: Fraction) -> Fraction:
    """Rational upper bound of -log_q(1 - x) for 0 < x < 1:
    -ln(1-x) <= x/(1-x), so -log_q(1-x) <= x / ((1-x) ln q)."""
    return x / ((1 - x) * lnq_lower)


def _finite_tail(tv: TVData, M: int, spec_degrees: Sequence[int]) -> Fraction:
    """Certified rational bound on the discarded terms (degrees > M) of the
    group sum with the given invariant degrees ((1,) for Gm):
    each discarded term bounded by -log_q(1 - x) <= x/((1 - x) ln q), see
    docs/tail_bounds.md.  Zero when nothing was discarded."""
    q = tv.q
    lnq = ln_lower(q)
    bound = sum(b * sum(_neglog_upper(Fraction(1, q ** (m * dj)), lnq)
                        for dj in spec_degrees)
                for m, b in tv.beta if m > M)
    return bound * _TAIL_SLACK + _TAIL_FLOOR if bound else Fraction(0)


# (value, tail) pair of binary64 numbers
RhsResult = namedtuple("RhsResult", "value tail")


@functools.cache
def rhs_group(tv: TVData, spec: GroupSpec, trunc: int) -> RhsResult:
    """``dim G - sum_(r<=trunc) beta_r log_q(mass_ratio(G, q, r))`` with
    tail; for G = Gm the ratio is (q^r - 1)/q^r, the Picard form.  Cached:
    dominance tables and family sections ask for the same values again."""
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


def check_family(family: Sequence[ZetaData], labels: Sequence[str]) -> None:
    """A family is one or more members over one base field in nondecreasing
    genus, the first (so all) of positive genus; errors name ``labels``."""
    if not family:
        raise ValueError("empty family")
    for (a, y), (b, z) in itertools.pairwise(zip(labels, family)):
        if z.q != y.q:
            raise ValueError("family members live over different base "
                             f"fields: {a} (q = {y.q}) and {b} (q = {z.q})")
        if z.g < y.g:
            raise ValueError(f"family must be sorted by genus: {a} "
                             f"(g = {y.g}) comes before {b} (g = {z.g})")
    if family[0].g < 1:
        raise ValueError(
            f"{labels[0]} has genus 0: log_q(mass)/g is undefined")


def dominance_check(tv: TVData, spec: GroupSpec, trunc: int) -> dict | None:
    """The report's dominance table of ``spec``, None unless it is GL_n with
    n <= DOMINANCE_MAX_RANK: the growth exponent of each composition term
    of the rank-n semistable sum, ``sum_(i<j) n_i n_j + sum_j
    rhs_group(GL_(n_j))``, and ``dominant``, True iff the one-part
    composition (n) attains the strict maximum (which makes the semistable
    and total masses grow at the same rate)."""
    n = spec.is_gl()
    if n is None or n > DOMINANCE_MAX_RANK:
        return None
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


def _tv_entries(tv: TVData) -> dict:
    """A section's densities, ``tv_bound`` and ``tv_feasible``."""
    bound = tv_bound(tv)
    return {"tv": tv.to_json_dict(), "tv_bound": format_rational(bound),
            "tv_feasible": bound <= 1}


def _rhs_entries(tv: TVData, spec: GroupSpec, trunc: int):
    """The rhs value of ``spec`` on ``tv``, its ``rhs`` and ``dominance``."""
    rhs = rhs_group(tv, spec, trunc)
    return rhs.value, {"rhs": {"value": format_float(rhs.value),
                               "tail": format_float(rhs.tail)},
                       "dominance": dominance_check(tv, spec, trunc)}


def tv_report(tv: TVData, d_bound: int, groups: Sequence[GroupSpec],
              trunc: int) -> dict:
    """The report's tv section: densities, one ``groups`` entry per group
    (no ``dominance`` key without a table), and the ``general`` sum."""
    report = _tv_entries(tv)
    report["groups"] = [{"group": spec.name, **{
        key: value for key, value in _rhs_entries(tv, spec, trunc)[1].items()
        if value is not None}} for spec in groups]
    if tv.groups:
        general = rhs_general(tv.groups, tv.q, d_bound)
        report["general"] = {"value": format_float(general.value),
                             "weight_envelope_ok": general.envelope_ok,
                             "d_bound": d_bound}
    return report


def convergence_report(family: Sequence[ZetaData], spec: GroupSpec,
                       trunc: int) -> dict:
    """The report's family section for one group, reading each member once:
    its quotients B_m/g (the last member's are the empirical densities of
    the rhs), then its row: lhs log_q(mass)/g, the gap to the rhs and, for
    GL_n, the degree-0 semistable lhs and its gap to the lhs.  Finite gaps
    at finite genus are data, not a verification of the limit."""
    check_family(family, [f"family member {i}" for i in range(len(family))])
    q = family[0].q
    quotients = [[(m, Fraction(b, z.g)) for m, b in enumerate(
        degree_spectrum(regenerate_counts(z, trunc)), 1)] for z in family]
    tv = TVData(q, quotients[-1])
    rhs, report = _rhs_entries(tv, spec, trunc)
    gl_rank = spec.is_gl()
    rows = []
    for i, z in enumerate(family):
        lhs = log_q_fraction(mass_bun(spec, z), q) / z.g
        row = {"index": i, "genus": z.g, "lhs": format_float(lhs),
               "gap": format_float(abs(lhs - rhs))}
        if gl_rank is not None:
            try:
                ss = semistable_mass(gl_rank, 0, z)
            except RouteMismatchError as e:
                raise RouteMismatchError(
                    f"family member {i} (g = {z.g}): {e}") from e
            if ss > 0:
                ss_lhs = log_q_fraction(ss, q) / z.g
                row["ss_lhs"] = format_float(ss_lhs)
                row["ss_gap"] = format_float(abs(ss_lhs - lhs))
        rows.append(row)
    report.update(_tv_entries(tv), q=q, group=spec.to_json_dict(), rows=rows,
                  member_quotients=[{str(m): format_rational(b)
                                     for m, b in quo} for quo in quotients],
                  note="finite-genus data only; the genus-to-infinity limit "
                       "is not verifiable at this scale")
    return report
