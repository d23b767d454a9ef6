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
  alternating sign implicitly);

* :func:`hn_ss_mass` solves the slope-stratification identity
  ``total = sum over strata of prod M^ss(n_i, d_i) q^(-sum chi_ij)`` with
  ``chi_ij = n_i n_j (1 - g) + (d_i n_j - d_j n_i)`` directly, summing the
  infinitely many strata of each composition (n_1..n_k) exactly.  Write
  d_i = n_i c_i + r_i with 0 <= r_i < n_i, u_l = c_l - c_(l+1) and
  s_i = n_1 + ... + n_i.  M^ss(n_i, d_i) depends only on r_i; the slopes
  fall strictly iff u_l >= e_l = [r_(l+1) n_l >= r_l n_(l+1)]; the
  exponent -sum chi_ij is the integer

      (g-1) cross - sum_i r_i (n - s_i - s_(i-1)) - sum_l s_l (n - s_l) u_l

  with cross = sum_(i<j) n_i n_j; and sum d_i = d is the congruence
  sum r_i + sum s_l u_l = d (mod n), which fixes c_k.  Each residue class
  of u_l mod n is a geometric series with ratio q^(-n s_l (n - s_l)), so a
  transfer over the parts with state (r_i, running residue mod n) visits
  every stratum once, and one pass gives all d at once.  No truncation is
  involved, so the two routes can be compared for exact rational equality.

The GL_n totals and the HN masses are memoized per (n, zeta data); masses
are invariant under d -> d + n (twisting by a degree-1 line bundle).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupSpec, builtin_group
from .zeta import ZetaData, quasi_residue, special_value


class RouteMismatchError(ArithmeticError):
    """The Zagier and HN routes gave different semistable masses."""


@dataclass(frozen=True)
class MassValue:
    """An exact stacky point count together with what it counts."""

    value: Fraction
    context: tuple

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"negative mass {self.value} for {self.context}")


def compositions(n: int, min_parts: int = 1):
    """Ordered compositions of n (tuples of positive parts)."""
    if n == 0:
        if min_parts <= 0:
            yield ()
        return
    for first in range(1, n + 1):
        for rest in compositions(n - first, min_parts - 1):
            yield (first,) + rest


def mass_bun(spec: GroupSpec, z: ZetaData) -> MassValue:
    """Total mass of the trivial-bundle component for a split group."""
    q, g = z.q, z.g
    c1 = sum(1 for d in spec.degrees if d == 1)
    val = spec.tamagawa * Fraction(q) ** ((g - 1) * spec.dim)
    val *= quasi_residue(z) ** c1
    for d in spec.degrees:
        if d >= 2:
            val *= special_value(z, d)
    return MassValue(val, (spec, z))


@functools.cache
def mass_gl_component(n: int, z: ZetaData) -> MassValue:
    """Mass of one connected component of the GL_n moduli stack (tau = 1).

    Independent of the component's degree: twisting by a line bundle of
    degree 1 identifies the components.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    return MassValue(mass_bun(builtin_group("GL", n), z).value, ((n, None), z))


def zagier_ss_mass(n: int, d: int, z: ZetaData) -> MassValue:
    """Semistable mass of the degree-d component of the GL_n stack, by the
    closed-form composition sum."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    q, g = z.q, z.g
    total = Fraction(0)
    for comp in compositions(n):
        k = len(comp)
        partial = list(itertools.accumulate(comp))
        cross = sum(comp[i] * comp[j] for i in range(k) for j in range(i + 1, k))
        num = 0  # n times the fractional part of the q-exponent
        denom = Fraction(1)
        for l in range(k - 1):
            pair = comp[l] + comp[l + 1]
            num += pair * ((partial[l] * d) % n)
            denom *= 1 - Fraction(q) ** pair
        if num % n:
            raise ArithmeticError(
                f"non-integral q-exponent {(g - 1) * cross} + {num}/{n} for "
                f"composition {comp}; the composition sum does not define a "
                "rational number here")
        term = Fraction(q) ** ((g - 1) * cross + num // n) / denom
        for part in comp:
            term *= mass_gl_component(part, z).value
        total += term
    return MassValue(total, ((n, d), z))


def hn_ss_mass(n: int, d: int, z: ZetaData) -> MassValue:
    """Semistable mass of the degree-d component of the GL_n stack, by
    solving the slope-stratification identity (exact; no truncation)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    return MassValue(_hn_masses(n, z)[d % n], ((n, d), z))


@functools.cache
def _hn_masses(n: int, z: ZetaData) -> tuple[Fraction, ...]:
    """(M^ss(n, 0), ..., M^ss(n, n - 1)) from the stratification identity."""
    total = mass_gl_component(n, z).value
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
    d in 0..n-1.

    A transfer over the parts of each composition: the state after part i
    is (r_i, sum_(j <= i) r_j + sum_(l < i) s_l u_l mod n), and part i + 1
    multiplies in its r-factor and the residue classes of u_i.  The final
    residue is d.
    """
    qf = Fraction(z.q)
    sums = [Fraction(0)] * n
    for comp in compositions(n, min_parts=2):
        s = [0, *itertools.accumulate(comp)]  # s[i] = n_1 + ... + n_i
        cross = (n * n - sum(part * part for part in comp)) // 2
        weight = qf ** ((z.g - 1) * cross)
        states = {(r, r): _part_factor(comp[0], r, n - s[1], z)
                  for r in range(comp[0])}
        for i in range(1, len(comp)):
            w = s[i] * (n - s[i])
            weight /= 1 - qf ** (-n * w)
            # classes[e][rho]: sum of q^(-w u) over e <= u < e + n with
            # s_i u = rho (mod n); times the factor just put into weight it
            # is the sum over all u >= e in that class
            classes = [[Fraction(0)] * n for _ in range(2)]
            for e in (0, 1):
                for u in range(e, e + n):
                    classes[e][s[i] * u % n] += qf ** (-w * u)
            nxt: dict = {}
            for (r_prev, t), acc in states.items():
                for r in range(comp[i]):
                    e = int(r * comp[i - 1] >= r_prev * comp[i])
                    f = acc * _part_factor(comp[i], r, n - s[i + 1] - s[i], z)
                    for rho, c in enumerate(classes[e]):
                        if c:
                            key = (r, (t + r + rho) % n)
                            nxt[key] = nxt.get(key, 0) + f * c
            states = nxt
        for (_, t), acc in states.items():
            sums[t] += weight * acc
    return sums


def _part_factor(n_i: int, r: int, coeff: int, z: ZetaData) -> Fraction:
    """M^ss(n_i, r) q^(-r coeff): the r-dependent factor of one part."""
    return _hn_masses(n_i, z)[r] * Fraction(z.q) ** (-r * coeff)
