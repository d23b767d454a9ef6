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
  ``chi_ij = n_i n_j (1 - g) + (d_i n_j - d_j n_i)`` directly.  The
  infinitely many degree vectors of each stratum shape are summed
  *exactly*: parametrized by the slope gaps t_l = d_l n_(l+1) - d_(l+1) n_l
  >= 1, the exponent is linear in t with positive rational coefficients
  a_l = s_l (n - s_l) / (n_l n_(l+1)), and on each residue class of the
  period lattice (period n n_l n_(l+1) in coordinate l) the factors
  M^ss(n_i, d_i mod n_i) are constant, leaving a product of geometric
  series with ratio q^(-n s_l (n - s_l)).  No truncation is involved, so
  the two routes can be compared for exact rational equality.

Both routes memoize over (zeta data, n_i, d_i mod n_i); masses are
invariant under d -> d + n (twisting by a degree-1 line bundle).
"""

from __future__ import annotations

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


_GL_CACHE: dict = {}


def mass_gl_component(n: int, z: ZetaData) -> MassValue:
    """Mass of one connected component of the GL_n moduli stack (tau = 1).

    Independent of the component's degree: twisting by a line bundle of
    degree 1 identifies the components.
    """
    if n < 1:
        raise ValueError("rank must be >= 1")
    key = (z, n)
    val = _GL_CACHE.get(key)
    if val is None:
        val = mass_bun(builtin_group("GL", n), z).value
        _GL_CACHE[key] = val
    return MassValue(val, ((n, None), z))


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
        expo = Fraction((g - 1) * cross)
        denom = Fraction(1)
        for l in range(k - 1):
            pair = comp[l] + comp[l + 1]
            expo += pair * Fraction((partial[l] * d) % n, n)
            denom *= 1 - Fraction(q) ** pair
        if expo.denominator != 1:
            raise ArithmeticError(
                f"non-integral q-exponent {expo} for composition {comp}; "
                "the composition sum does not define a rational number here")
        term = Fraction(q) ** expo.numerator / denom
        for part in comp:
            term *= mass_gl_component(part, z).value
        total += term
    return MassValue(total, ((n, d), z))


_HN_CACHE: dict = {}


def hn_ss_mass(n: int, d: int, z: ZetaData) -> MassValue:
    """Semistable mass of the degree-d component of the GL_n stack, by
    solving the slope-stratification identity (exact; no truncation)."""
    if n < 1:
        raise ValueError("rank must be >= 1")
    val = _hn_value(n, d % n, z)
    return MassValue(val, ((n, d), z))


def _hn_value(n: int, d: int, z: ZetaData) -> Fraction:
    key = (z, n, d % n)
    cached = _HN_CACHE.get(key)
    if cached is not None:
        return cached
    if n == 1:
        val = mass_gl_component(1, z).value
    else:
        val = mass_gl_component(n, z).value - _hn_strata_sum(n, d, z)
        if not 0 <= val <= mass_gl_component(n, z).value:
            raise ArithmeticError(
                f"stratification identity produced M^ss({n},{d}) = {val} "
                f"outside [0, total]")
    _HN_CACHE[key] = val
    return val


def _hn_strata_sum(n: int, d: int, z: ZetaData) -> Fraction:
    """Mass of all proper slope strata of the (n, d) component."""
    q, g = z.q, z.g
    total = Fraction(0)
    for comp in compositions(n, min_parts=2):
        k = len(comp)
        partial = list(itertools.accumulate(comp))  # s_1..s_k
        cross = sum(comp[i] * comp[j] for i in range(k) for j in range(i + 1, k))
        # slope gaps t_l = d_l n_(l+1) - d_(l+1) n_l >= 1, l = 1..k-1
        gap_weight = [Fraction(partial[l] * (n - partial[l]),
                               comp[l] * comp[l + 1]) for l in range(k - 1)]
        periods = [n * comp[l] * comp[l + 1] for l in range(k - 1)]
        # geometric factor of each residue class: ratio q^(-a_l * P_l)
        geom = Fraction(1)
        for l in range(k - 1):
            ratio_exp = n * partial[l] * (n - partial[l])
            if ratio_exp <= 0:
                raise ArithmeticError(
                    f"non-contracting stratum family for composition {comp}")
            geom /= 1 - Fraction(1, q ** ratio_exp)
        for t0 in itertools.product(*(range(1, p + 1) for p in periods)):
            dvec = _degree_vector(comp, partial, d, t0)
            if dvec is None:
                continue
            expo = Fraction((g - 1) * cross)
            for l in range(k - 1):
                expo -= gap_weight[l] * t0[l]
            if expo.denominator != 1:
                raise ArithmeticError(
                    f"non-integral stratum exponent {expo} for composition "
                    f"{comp}, degrees {dvec}")
            term = Fraction(q) ** expo.numerator * geom
            for part, deg in zip(comp, dvec):
                term *= _hn_value(part, deg % part, z)
            total += term
    return total


def _degree_vector(comp, partial, d: int, t0) -> tuple | None:
    """Degrees (d_1..d_k) for gap values t0, or None if not integral."""
    k = len(comp)
    n = partial[-1]
    shift = Fraction(0)  # sum_l t_l s_l / (n_l n_(l+1))
    for l in range(k - 1):
        shift += Fraction(t0[l] * partial[l], comp[l] * comp[l + 1])
    mu_last = (d - shift) / n
    degs = []
    tails = [Fraction(0)] * k  # tails[i] = sum_(l >= i) t_l / (n_l n_(l+1))
    for l in range(k - 2, -1, -1):
        tails[l] = tails[l + 1] + Fraction(t0[l], comp[l] * comp[l + 1])
    for i in range(k):
        d_i = comp[i] * (mu_last + tails[i])
        if d_i.denominator != 1:
            return None
        degs.append(d_i.numerator)
    if sum(degs) != d:
        raise ArithmeticError(f"degree vector {degs} does not sum to {d}")
    return tuple(degs)
