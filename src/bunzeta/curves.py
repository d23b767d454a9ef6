"""Explicit curve models over finite fields and exhaustive point counting.

Three kinds of models are supported, each with a bit-exact rule for the
points at infinity of the smooth projective model:

* the projective line (``N_m = q^m + 1``),
* hyperelliptic models ``y^2 + h(x) y = f(x)`` with ``deg f in {2g+1, 2g+2}``
  and ``deg h <= g+1`` (the points at infinity over F_(q^m) are the roots
  of ``z^2 + h_(g+1) z = f_(2g+2)`` there, with ``f_(2g+2) = 0`` for odd
  ``deg f``),
* smooth plane models given by a homogeneous form, counted directly on
  projective points.

Counting is exhaustive and deterministic.  Hyperelliptic models get an
exact smoothness certificate, a gcd of polynomials on the affine chart and
the same criterion on the chart at infinity; plane curves get a bounded
exhaustive scan over extension fields, with a configurable bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import (
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    FiniteField,
    _pc_add,
    _pc_deriv,
    _pc_gcd,
    _pc_mul,
    _pc_trim,
)

# Plane smoothness default: extensions scanned by the Jacobian criterion.
DEFAULT_PLANE_SMOOTHNESS_BOUND = 4

_TABLE_BUILD_MAX = 1 << 16


class SingularModelError(ValueError):
    """A model failed its smoothness invariant; carries a witness point."""

    def __init__(self, model_name: str, witness, message: str | None = None):
        self.witness = witness
        msg = message or f"{model_name} is singular; witness common zero {witness}"
        super().__init__(msg)


class WeilViolationError(RuntimeError):
    """A computed point count left the Weil interval (bad model or bug)."""

    def __init__(self, m: int, n_m: int, q: int, g: int):
        self.m = m
        super().__init__(
            f"N_{m} = {n_m} violates the Weil bound |N - q^m - 1| <= 2g q^(m/2) "
            f"for q={q}, g={g}")


@dataclass(frozen=True)
class PointCounts:
    """Counts N_m = #X(F_(q^m)) for m = 1..M, with the Weil bound enforced."""

    q: int
    g: int
    counts: tuple[int, ...]

    def __post_init__(self):
        for i, n_m in enumerate(self.counts):
            m = i + 1
            if n_m < 0:
                raise WeilViolationError(m, n_m, self.q, self.g)
            # |N - q^m - 1|^2 <= 4 g^2 q^m, kept in integers (exact)
            dev = n_m - self.q ** m - 1
            if dev * dev > 4 * self.g * self.g * self.q ** m:
                raise WeilViolationError(m, n_m, self.q, self.g)

    def n(self, m: int) -> int:
        """N_m (1-based)."""
        return self.counts[m - 1]

    def __len__(self):
        return len(self.counts)


def _coeff(cs, k: int) -> int:
    return cs[k] if k < len(cs) else 0


def _eval_codes(E: FiniteField, cs, x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = E.add_c(E.mul_c(acc, x), c)
    return acc


class CurveModel:
    """Base class for curve models; subclasses implement the counting rules."""

    kind: str
    base: FiniteField

    def __init__(self, base: FiniteField, name: str | None = None):
        self.base = base
        self.name = name or f"{self.kind}/GF({base.order})"
        self._smooth = False  # set once validate() has passed
        self._count_cache: dict[int, int] = {}  # counts are immutable facts

    @property
    def q(self) -> int:
        return self.base.order

    def extension(self, m: int) -> FiniteField:
        E = FiniteField.extension(self.base, m) if m > 1 else self.base
        if E.order <= _TABLE_BUILD_MAX:
            E.build_tables()
        return E

    # subclass hooks -------------------------------------------------------

    def genus(self) -> int:
        raise NotImplementedError

    def _check_smooth(self, budget: int) -> None:
        """Raise SingularModelError with a witness if the model is singular."""
        raise NotImplementedError

    def _check_budget(self, m: int, budget: int) -> None:
        pass

    def _count(self, m: int, budget: int) -> int:
        raise NotImplementedError

    # public API -----------------------------------------------------------

    def validate(self, budget: int = DEFAULT_ENUM_BUDGET) -> None:
        """Verify smoothness (raises SingularModelError with a witness)."""
        if not self._smooth:
            self._check_smooth(budget)
            self._smooth = True

    def count_points(self, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
        self.validate(budget)
        self._check_budget(m, budget)  # the budget caps work, cached or not
        n = self._count_cache.get(m)
        if n is None:
            n = self._count(m, budget)
            self._count_cache[m] = n
        return n

    def __repr__(self):
        return f"<{self.kind} {self.name}>"


class ProjectiveLine(CurveModel):
    kind = "projective-line"

    def genus(self) -> int:
        return 0

    def _check_smooth(self, budget: int) -> None:
        pass

    def _count(self, m: int, budget: int) -> int:
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
            F = _pc_add(B, _pc_mul(B, h, h), _pc_mul(B, [B.embed_int(4)], f))
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
        """First root x of G in code order over the smallest F_(q^m) that
        has one, with its singular y."""
        for m in range(1, max(len(G) - 1, 1) + 1):
            E = self.extension(m)
            if E.order > budget:
                raise BudgetExceededError(E.order, budget,
                                          f"smoothness witness for {self.name}")
            for x in range(E.order):
                if _eval_codes(E, G, x) == 0:
                    return (m, x, self._singular_y(E, _eval_codes(E, self.h, x),
                                                   _eval_codes(E, self.f, x)))

    @staticmethod
    def _singular_y(E: FiniteField, hx: int, fx: int) -> int:
        """The only y at which a singular point over x can lie."""
        if E.char == 2:
            return E.pow_c(fx, E.order // 2)  # y^2 = f(x) where h(x) = 0
        return E.neg_c(E.mul_c(hx, E.inv_c(E.embed_int(2))))

    def _check_budget(self, m: int, budget: int) -> None:
        if self.q ** m > budget:
            raise BudgetExceededError(self.q ** m, budget,
                                      f"point count for {self.name}")

    def _count(self, m: int, budget: int) -> int:
        """Affine solutions, plus the roots of z^2 + h_(g+1) z = f_(2g+2)
        at infinity (f_(2g+2) = 0 when deg f is odd)."""
        E = self.extension(m)
        if E.order > budget:
            raise BudgetExceededError(E.order, budget,
                                      f"point count for {self.name}")
        h_cs, f_cs = self.h, self.f
        n = 0
        for x in range(E.order):
            n += E.quadratic_root_count(_eval_codes(E, h_cs, x),
                                        _eval_codes(E, f_cs, x))
        g = self.genus()
        return n + E.quadratic_root_count(_coeff(h_cs, g + 1),
                                          _coeff(f_cs, 2 * g + 2))


class PlaneCurve(CurveModel):
    """Smooth plane model: homogeneous form F(x, y, z) of the given degree."""

    kind = "plane"

    def __init__(self, base: FiniteField, monomials: dict, degree: int,
                 name: str | None = None,
                 smoothness_bound: int = DEFAULT_PLANE_SMOOTHNESS_BOUND):
        super().__init__(base, name)
        self.degree = degree
        self.monomials = {}
        for (i, j, k), c in monomials.items():
            code = c.code if hasattr(c, "code") else base.embed_int(c)
            if i + j + k != degree:
                raise ValueError(
                    f"{self.name}: monomial x^{i} y^{j} z^{k} is not of degree {degree}")
            if code:
                self.monomials[(i, j, k)] = code
        if not self.monomials:
            raise ValueError(f"{self.name}: the zero form does not define a curve")
        self.smoothness_bound = smoothness_bound
        self._validated_to = 0  # smoothness verified over extensions <= this
        self._partials = [self._derive(axis) for axis in range(3)]

    @classmethod
    def from_list(cls, base: FiniteField, entries, degree: int,
                  name: str | None = None, **kw) -> "PlaneCurve":
        monos = {(i, j, k): c for i, j, k, c in entries}
        return cls(base, monos, degree, name=name, **kw)

    def _derive(self, axis: int) -> dict:
        out = {}
        B = self.base
        for expo, c in self.monomials.items():
            e = expo[axis]
            if e == 0:
                continue
            coeff = B.mul_c(c, B.embed_int(e))
            if coeff == 0:
                continue
            new = list(expo)
            new[axis] -= 1
            out[tuple(new)] = B.add_c(out.get(tuple(new), 0), coeff)
        return out

    def genus(self) -> int:
        return (self.degree - 1) * (self.degree - 2) // 2

    def _check_smooth(self, budget: int) -> None:
        """Bounded scan over extensions up to ``smoothness_bound``."""
        for m in range(self._validated_to + 1, self.smoothness_bound + 1):
            witness = self._scan_singular(m, budget)
            if witness is not None:
                raise SingularModelError(self.name, witness)
            self._validated_to = m

    def _eval_form(self, E: FiniteField, monos: dict, px, py, pz) -> int:
        acc = 0
        for (i, j, k), c in monos.items():
            acc = E.add_c(acc, E.mul_c(E.mul_c(c, px[i]), E.mul_c(py[j], pz[k])))
        return acc

    def _powers(self, E: FiniteField, v: int):
        out = [1]
        for _ in range(self.degree):
            out.append(E.mul_c(out[-1], v))
        return out

    def _projective_points(self, E: FiniteField):
        one = self._powers(E, 1)
        for x in range(E.order):
            px = self._powers(E, x)
            for y in range(E.order):
                yield px, self._powers(E, y), one, (x, y, 1)
        zero = self._powers(E, 0)
        for x in range(E.order):
            yield self._powers(E, x), one, zero, (x, 1, 0)
        yield one, zero, zero, (1, 0, 0)

    def _domain_size(self, E: FiniteField) -> int:
        return E.order ** 2 + E.order + 1

    def _check_budget(self, m: int, budget: int) -> None:
        size = self.q ** (2 * m) + self.q ** m + 1
        if size > budget:
            raise BudgetExceededError(size, budget,
                                      f"point count for {self.name}")

    def _scan_singular(self, m: int, budget: int):
        E = self.extension(m)
        if self._domain_size(E) > budget:
            raise BudgetExceededError(self._domain_size(E), budget,
                                      f"smoothness scan for {self.name}")
        for px, py, pz, pt in self._projective_points(E):
            if self._eval_form(E, self.monomials, px, py, pz) != 0:
                continue
            if all(self._eval_form(E, d, px, py, pz) == 0 for d in self._partials):
                return (m,) + pt
        return None

    def _count(self, m: int, budget: int) -> int:
        E = self.extension(m)
        if self._domain_size(E) > budget:
            raise BudgetExceededError(self._domain_size(E), budget,
                                      f"point count for {self.name}")
        n = 0
        for px, py, pz, _ in self._projective_points(E):
            if self._eval_form(E, self.monomials, px, py, pz) == 0:
                n += 1
        return n


# ---------------------------------------------------------------------------
# free-function API
# ---------------------------------------------------------------------------


def genus_of(model: CurveModel, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Genus of a validated model (raises SingularModelError with a witness)."""
    model.validate(budget)
    return model.genus()


def count_points(model: CurveModel, m: int,
                 budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """#X(F_(q^m)) of the smooth projective model, by exhaustive enumeration."""
    return model.count_points(m, budget)


def count_series(model: CurveModel, M: int,
                 budget: int = DEFAULT_ENUM_BUDGET) -> PointCounts:
    """N_1..N_M as a PointCounts (Weil bound checked on construction)."""
    g = genus_of(model, budget)
    counts = tuple(model.count_points(m, budget) for m in range(1, M + 1))
    return PointCounts(q=model.q, g=g, counts=counts)
