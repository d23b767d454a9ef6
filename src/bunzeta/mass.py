"""Exact stacky masses of bundle moduli: totals, Zagier's formula, and the
Harder-Narasimhan recursion as an independent cross-check.

The total mass of the (trivial-bundle component of the) moduli stack of
G-bundles is the product formula

    tau_G * q^((g-1) dim G) * rho^c1 * prod_(d_j >= 2) zeta_X(d_j),

where c1 counts degree-1 invariants, rho is the quasi-residue and
zeta_X the special values of the curve's zeta function.  For GL_n two
independent routes compute the semistable mass M^ss(n, d):

* :func:`zagier_ss_mass` evaluates the closed-form sum over ordered
  compositions of n (the 1/(1 - q^(n_i + n_(i+1))) factors carry the
  alternating sign implicitly).  Its fractional q-exponent splits into
  one integer per part, so a transfer over composition prefixes, one
  integer per d in each state (s_i, n_i), sums all compositions at once;

* :func:`hn_ss_mass` solves the slope-stratification identity
  ``total = sum over strata of prod M^ss(n_i, d_i) q^(-sum chi_ij)`` with
  ``chi_ij = n_i n_j (1 - g) + (d_i n_j - d_j n_i)`` directly, summing the
  infinitely many strata of every composition (n_1..n_k) exactly.  Write
  d_i = n_i c_i + r_i with 0 <= r_i < n_i, u_l = c_l - c_(l+1) and
  s_i = n_1 + ... + n_i.  M^ss(n_i, d_i) depends only on r_i; the slopes
  fall strictly iff u_l >= e_l = [r_(l+1) n_l >= r_l n_(l+1)]; the
  exponent -sum chi_ij is the integer

      (g-1) cross - sum_i r_i (n - s_i - s_(i-1)) - sum_l s_l (n - s_l) u_l

  with cross = sum_(i<j) n_i n_j; and sum d_i = d is the congruence
  sum r_i + sum s_l u_l = d (mod n), which fixes c_k.  With w_l =
  s_l (n - s_l), the u_l >= e_l of one class mod n sum to V[rho] /
  (q^(n w_l) - 1), V[rho] the integer sum of q^(w_l (n - u)) over
  e_l <= u < e_l + n with s_l u = rho.  Each factor of a term belongs to
  one part (its r_i and its share n_i s_(i-1) of cross) or to one
  boundary (V, whose e_l needs only the two adjacent slopes), so a
  transfer over composition prefixes, one integer vector over Z/n per
  state (s_i, r_i/n_i), sums all compositions at once over one common
  denominator, in O(n^4) integer operations.  One pass gives all d
  and involves no truncation, so the routes compare exactly:
  :func:`semistable_mass` runs both and raises RouteMismatchError when
  they differ.

Every mass is built as one integer numerator and one integer denominator
and returned as a ``Fraction``; :func:`mass_bun` raises ValueError on a
negative total.  The GL_n totals and both routes' masses are memoized per (n, zeta data);
masses are invariant under d -> d + n (twisting by a degree-1 line bundle).
"""

from __future__ import annotations

import bisect
import functools
import math
from fractions import Fraction

from .groups import GroupSpec, builtin_group
from .zeta import ZetaData, class_number, special_value_parts


class RouteMismatchError(ArithmeticError):
    """The Zagier and HN routes gave different semistable masses."""


def compositions(n: int):
    """Ordered compositions of n (tuples of positive parts)."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first,) + rest


def mass_bun(spec: GroupSpec, z: ZetaData) -> Fraction:
    """Total mass of the trivial-bundle component for a split group;
    ValueError if it comes out negative."""
    q, g = z.q, z.g
    c1 = spec.degrees.count(1)
    # rho = h q^(1-g) / (q - 1): its q-powers join the (g-1) dim G ones
    num = spec.tamagawa.numerator * class_number(z) ** c1
    den = spec.tamagawa.denominator * (q - 1) ** c1
    for d in spec.degrees[c1:]:  # sorted, so the degrees >= 2
        a, b = special_value_parts(z, d)
        num, den = num * a, den * b
    e = (g - 1) * (spec.dim - c1)
    mass = Fraction(num * q ** max(e, 0), den * q ** max(-e, 0))
    if mass < 0:
        raise ValueError(f"{spec.name}: negative mass {mass}")
    return mass


@functools.cache
def mass_gl_component(n: int, z: ZetaData) -> Fraction:
    """Mass of one connected component of the GL_n moduli stack (tau = 1).

    Independent of the component's degree: twisting by a line bundle of
    degree 1 identifies the components.
    """
    return mass_bun(builtin_group("GL", n), z)


def zagier_ss_mass(n: int, d: int, z: ZetaData) -> Fraction:
    """Semistable mass of the degree-d component of the GL_n stack, by the
    closed-form composition sum."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return _zagier_masses(n, z)[d % n]


@functools.cache
def _zagier_masses(n: int, z: ZetaData) -> tuple[Fraction, ...]:
    """(M^ss(n, 0), ..., M^ss(n, n - 1)) from the composition sum.

    Each composition contributes prod M(n_i) q^((g-1) cross + num/n) /
    prod (1 - q^(n_l + n_(l+1))).  With r_i = s_i d mod n, num/n is d n
    plus the integer (n_i (r_(i-1) + r_i) - d (s_i^2 - s_(i-1)^2)) / n of
    each part, so one transfer over composition prefixes, with states
    (s_i, n_i), sums all compositions at once.  A state holds one integer
    per d over the lcm of the boundary products of its prefixes.
    """
    q, g = z.q, z.g
    vals = [mass_gl_component(m, z) for m in range(1, n + 1)]
    lcm = math.lcm(*(v.denominator for v in vals))
    # over lcm^n q^(3 n n), part m after s brings M(m) lcm^m and q to its
    # exponent plus 3 n m, which is nonnegative
    states = [{0: (1, [1] * n)}] + [{} for _ in range(n)]
    for t in range(1, n + 1):
        for m in range(1, t + 1):
            s = t - m  # boundary 1 - q^(last + m), none after the empty prefix
            prev = [(den * (1 - q ** (last + m) if last else 1), vec)
                    for last, (den, vec) in states[s].items()]
            den = math.lcm(*(b for b, _ in prev))
            acc = [sum(den // b * vec[d] for b, vec in prev) for d in range(n)]
            top = vals[m - 1].numerator * (lcm ** m // vals[m - 1].denominator)
            base = (g - 1) * m * s + 3 * n * m
            states[t][m] = (den, [a * top * q ** (base + (
                m * (s * d % n + t * d % n) - d * (t * t - s * s)) // n)
                for d, a in enumerate(acc)])
    common = math.lcm(*(den for den, _ in states[n].values()))
    return tuple(
        Fraction(sum(vec[d] * (common // den)
                     for den, vec in states[n].values()) * q ** (d * n),
                 common * lcm ** n * q ** (3 * n * n))
        for d in range(n))


def hn_ss_mass(n: int, d: int, z: ZetaData) -> Fraction:
    """Semistable mass of the degree-d component of the GL_n stack, by
    solving the slope-stratification identity (exact; no truncation)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return _hn_masses(n, z)[d % n]


def semistable_mass(n: int, d: int, z: ZetaData) -> Fraction:
    """M^ss(n, d) by both routes; RouteMismatchError if they differ."""
    zg, hn = zagier_ss_mass(n, d, z), hn_ss_mass(n, d, z)
    if zg != hn:
        raise RouteMismatchError(f"M^ss({n}, {d}) is {zg} by Zagier "
                                 f"but {hn} by HN")
    return zg


@functools.cache
def _hn_masses(n: int, z: ZetaData) -> tuple[Fraction, ...]:
    """(M^ss(n, 0), ..., M^ss(n, n - 1)) from the stratification identity."""
    total = mass_gl_component(n, z)
    if n == 1:
        return (total,)
    out = tuple(total - strata for strata in _hn_strata_sums(n, z))
    for d, val in enumerate(out):
        if not 0 <= val <= total:
            raise ArithmeticError(
                f"stratification identity produced M^ss({n},{d}) = {val} "
                f"outside [0, total]")
    return out


def _hn_strata_sums(n: int, z: ZetaData) -> list[Fraction]:
    """Mass of all proper slope strata of the degree-d component, for each
    d in 0..n-1, by one transfer over composition prefixes.

    The state of the parts (n_1, r_1)..(n_i, r_i) is their sum s = s_i and
    last slope r_i/n_i; over the common denominator below it holds the
    integer sum of its prefix terms by class of sum r_j + sum_(l<i) s_l u_l
    mod n.  Appending (n', r') sums u_i >= e = [r' n_i >= r_i n'] by the
    class vector V_s^e, w = s (n - s).  As V_s^1 = V_s^0 - (q^(n w) - 1)
    delta_0, all states at s are convolved with V_s^0 once, together, and
    q^(n w) - 1 times the states of last slope at most r'/n' is taken off.
    """
    q = z.q
    # M^ss(m, r) = nums[m][r] / dens[m]: one denominator per rank m < n
    nums, dens = {}, {}
    for m in range(1, n):
        vals = _hn_masses(m, z)
        dens[m] = math.lcm(*(v.denominator for v in vals))
        nums[m] = [v.numerator * (dens[m] // v.denominator) for v in vals]
    lcm = math.lcm(*dens.values())
    gaps = [q ** (n * t * (n - t)) - 1 for t in range(n + 1)]
    # over lcm^n prod_(0<t<n) gaps[t] q^(n n), part (n', r') after s brings
    # M^ss(n', r') lcm^n', the gaps of the points it skips and q to its
    # exponent (g-1) n' s - r' (n - 2s - n') >= -n n', plus n n'
    states: list[dict] = [{} for _ in range(n)]
    out = [0] * n
    for s in range(n):
        slopes = sorted(states[s])
        cums, acc = [], [0] * n  # cums[j]: the states of the j+1 least slopes
        for mu in slopes:
            acc = [a + b for a, b in zip(acc, states[s][mu])]
            cums.append(acc)
        conv = [1] + [0] * (n - 1)  # the empty prefix
        if s:
            v0 = [0] * n  # V_s^0
            for u in range(n):
                v0[s * u % n] += q ** (s * (n - s) * (n - u))
            conv = [sum(acc[(rho - j) % n] * c for j, c in enumerate(v0) if c)
                    for rho in range(n)]
        skip = 1  # the product of gaps[t], s < t < s + part
        for part in range(1, n - s + 1 if s else n):
            scale = lcm // dens[part] * lcm ** (part - 1) * skip
            skip *= gaps[s + part]
            for r, num in enumerate(nums[part]):
                if not num:
                    continue
                mu = Fraction(r, part)
                j = bisect.bisect_right(slopes, mu)
                vec = [a - gaps[s] * b for a, b in zip(conv, cums[j - 1])] \
                    if j else conv
                f = num * scale * q ** ((z.g - 1) * part * s + n * part
                                        - r * (n - 2 * s - part))
                target = out if s + part == n else \
                    states[s + part].setdefault(mu, [0] * n)
                for rho, a in enumerate(vec):
                    target[(rho + r) % n] += f * a
    den = lcm ** n * math.prod(gaps[1:n]) * q ** (n * n)
    return [Fraction(a, den) for a in out]
