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
criterion on the chart at infinity.  Plane models are counted and
certified on univariate slices of F and its partials, F(x, Y, 1) for each
x in F_(q^m) and F(X, 1, 0): a slice P has deg gcd(P, Y^Q - Y) roots in
F_Q, and a common root of the four slices is a singular point.  Slices for
m <= D = d(d-1)/2 are a complete certificate: a reduced curve has <= D
singular points (genus formula plus Bezout), so each Frobenius orbit of
them has <= D; a non-reduced one is singular at a point of degree <= d/2.

Every per-x kernel (the hyperelliptic count, the plane count and the
plane certificate) visits one x per orbit of the Frobenius x -> x^q on
F_(q^m), the first in code order, and weights it by the orbit size.  This
is exact: h, f and the plane columns have coefficients in F_q, so the
data at x^q is the Frobenius image of the data at x, and Frobenius, an
automorphism of F_(q^m), preserves root counts and common roots.  The
certificate's witness does not move either: the first singular x in code
order is the first element of its orbit.  Each scan gets its field, with
tables, from ``CurveModel.scan_field``, which charges the q^m elements
against the budget and the 2^20 table limit.
"""

from __future__ import annotations

from .arith import (
    _TABLE_MAX_ORDER,
    DEFAULT_ENUM_BUDGET,
    BudgetExceededError,
    FiniteField,
    Record,
    _pc_add,
    _pc_deriv,
    _pc_gcd,
    _pc_mul,
    _pc_powmod,
    _pc_sub,
    _pc_trim,
    within_weil_bound,
)


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


class PointCounts(Record):
    """Counts N_m = #X(F_(q^m)) for m = 1..M, with the Weil bound enforced."""

    q: int
    g: int
    counts: tuple[int, ...]

    def __post_init__(self):
        for m, n_m in enumerate(self.counts, start=1):
            if n_m < 0 or not within_weil_bound(n_m, self.q, self.g, m):
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


def _frobenius_orbits(E: FiniteField, q: int):
    """(x, orbit size) for the first x in code order of each orbit of
    x -> x^q on E."""
    seen = bytearray(E.order)
    for x in range(E.order):
        if seen[x]:
            continue
        size, y = 0, x
        while not seen[y]:
            seen[y] = 1
            size += 1
            y = E.pow_c(y, q)
        yield x, size


def _first_root_in(E: FiniteField, cs):
    """The first root in E of a code polynomial, in code order, or None."""
    return next((x for x in range(E.order) if _eval_codes(E, cs, x) == 0), None)


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


class CurveModel:
    """Base class for curve models; subclasses implement the counting rules."""

    kind: str
    base: FiniteField
    scans = True  # its counts scan F_(q^m); the projective line's do not

    def __init__(self, base: FiniteField, name: str | None = None):
        self.base = base
        self.name = name or f"{self.kind}/GF({base.order})"
        self._smooth = False  # set once validate() has passed
        self._count_cache: dict[int, int] = {}  # counts are immutable facts

    @property
    def q(self) -> int:
        return self.base.order

    def check_scan(self, m: int, budget: int, stage: str) -> None:
        """Refuse a scan of F_(q^m) over the limits, before any work.

        A scan pays for q^m elements, and above the table limit an element
        costs about 250 times more on digit polynomials, so q^m is charged
        against the budget and the table limit at once.
        """
        limit = min(budget, _TABLE_MAX_ORDER)
        if self.q ** m > limit:
            raise BudgetExceededError(
                self.q ** m, limit,
                f"{stage} for {self.name} over GF({self.base.char}^"
                f"{self.base.degree * m})",
                "budget" if limit == budget else "table limit")

    def scan_field(self, m: int, budget: int, stage: str) -> FiniteField:
        """F_(q^m) with its tables, for a stage that scans its elements.

        Every scan (a count, the plane certificate, a witness search) gets
        its field here, through the one gate ``check_scan``.
        """
        self.check_scan(m, budget, stage)
        E = FiniteField.extension(self.base, m)
        E.build_tables()
        return E

    def _first_root(self, G, budget: int) -> tuple[int, int]:
        """(m, x): the first root x of G in code order over the smallest
        F_(q^m) that has one (m <= deg G; every x is a root of G = 0)."""
        for m in range(1, max(len(G) - 1, 1) + 1):
            E = self.scan_field(m, budget, "smoothness certificate")
            x = _first_root_in(E, G)
            if x is not None:
                return m, x

    # subclass hooks -------------------------------------------------------

    def genus(self) -> int:
        raise NotImplementedError

    def _check_smooth(self, budget: int) -> None:
        """Raise SingularModelError with a witness if the model is singular."""

    def _count(self, m: int, E: FiniteField | None) -> int:
        """N_m, with E = F_(q^m) from scan_field if the model scans."""
        raise NotImplementedError

    # public API -----------------------------------------------------------

    def validate(self, budget: int = DEFAULT_ENUM_BUDGET) -> None:
        """Verify smoothness (raises SingularModelError with a witness)."""
        if not self._smooth:
            self._check_smooth(budget)
            self._smooth = True

    def count_points(self, m: int, budget: int = DEFAULT_ENUM_BUDGET) -> int:
        self.validate(budget)
        # the limits hold whether the count is cached or not
        E = self.scan_field(m, budget, "point count") if self.scans else None
        n = self._count_cache.get(m)
        if n is None:
            n = self._count_cache[m] = self._count(m, E)
        return n

    def __repr__(self):
        return f"<{self.kind} {self.name}>"


class ProjectiveLine(CurveModel):
    kind = "projective-line"
    scans = False

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
        """The first root (m, x) of G, with its singular y."""
        m, x = self._first_root(G, budget)
        E = self.scan_field(m, budget, "smoothness certificate")
        return (m, x, self._singular_y(E, _eval_codes(E, self.h, x),
                                       _eval_codes(E, self.f, x)))

    @staticmethod
    def _singular_y(E: FiniteField, hx: int, fx: int) -> int:
        """The only y at which a singular point over x can lie."""
        if E.char == 2:
            return E.pow_c(fx, E.order // 2)  # y^2 = f(x) where h(x) = 0
        return E.neg_c(E.mul_c(hx, E.inv_c(E.embed_int(2))))

    def _count(self, m: int, E: FiniteField) -> int:
        """Affine solutions, plus the roots of z^2 + h_(g+1) z = f_(2g+2)
        at infinity (f_(2g+2) = 0 when deg f is odd)."""
        h_cs, f_cs = self.h, self.f
        n = 0
        for x, size in _frobenius_orbits(E, self.q):
            n += size * E.quadratic_root_count(_eval_codes(E, h_cs, x),
                                               _eval_codes(E, f_cs, x))
        g = self.genus()
        return n + E.quadratic_root_count(_coeff(h_cs, g + 1),
                                          _coeff(f_cs, 2 * g + 2))


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
        # at z = 1: the coefficient of Y^j, a polynomial in x, for each j
        self._columns = [[_pc_trim([form.get((i, j, e - i - j), 0)
                                    for i in range(e - j + 1)])
                          for j in range(e + 1)] for e, form in forms]
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
        return _pc_trim([_eval_codes(E, c, x) for c in columns])

    def _check_smooth(self, budget: int) -> None:
        """On z = 0, one gcd over the base field decides every (X:1:0), and
        (1:0:0) is looked at directly; on z = 1, x runs over one element of
        each Frobenius orbit of F_(q^m), m <= D."""
        G = _common_factor(self.base, self._line)
        if len(G) != 1:  # G = 0: every point of z = 0 is singular
            raise SingularModelError(self.name,
                                     self._first_root(G, budget) + (1, 0))
        if not any(self._corner):
            raise SingularModelError(self.name, (1, 1, 0, 0))
        D = self.degree * (self.degree - 1) // 2
        # the largest field is gated first, so no scan starts that cannot
        # end; each field is built only once the smaller ones hold no witness
        self.check_scan(D, budget, "smoothness certificate")
        for m in range(1, D + 1):
            E = self.scan_field(m, budget, "smoothness certificate")
            for x, _ in _frobenius_orbits(E, self.q):
                G = _common_factor(E, (self._slice(E, columns, x)
                                       for columns in self._columns))
                if len(G) != 1 and (y := _first_root_in(E, G)) is not None:
                    raise SingularModelError(self.name, (m, x, y, 1))

    def _count(self, m: int, E: FiniteField) -> int:
        """Roots of F(x, Y, 1) for every x, roots of F(X, 1, 0), and the
        point (1:0:0) when x^d has coefficient 0."""
        F = self._columns[0]
        n = sum(size * _root_count(E, self._slice(E, F, x))
                for x, size in _frobenius_orbits(E, self.q))
        return n + _root_count(E, self._line[0]) + (self._corner[0] == 0)


# ---------------------------------------------------------------------------
# free-function API
# ---------------------------------------------------------------------------


def genus_of(model: CurveModel, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Genus of a validated model (raises SingularModelError with a witness)."""
    model.validate(budget)
    return model.genus()


def count_points(model: CurveModel, m: int,
                 budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """#X(F_(q^m)) of the smooth projective model."""
    return model.count_points(m, budget)


def count_series(model: CurveModel, M: int,
                 budget: int = DEFAULT_ENUM_BUDGET) -> PointCounts:
    """N_1..N_M as a PointCounts (Weil bound checked on construction)."""
    g = genus_of(model, budget)
    counts = tuple(model.count_points(m, budget) for m in range(1, M + 1))
    return PointCounts(q=model.q, g=g, counts=counts)
