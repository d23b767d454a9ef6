"""Split reductive group data and their mass ratios over F_(q^r).

A group is described by its dimension, the multiset of degrees of its
generating invariants (degree-1 entries count the rank of the central
torus), and a Tamagawa constant used by the mass formula.  For a split
group the mass ratio ``|G(F_Q)| / Q^dim = prod_j (1 - Q^(-d_j))`` is
computed exactly.

Degree tables are hard-coded for the classical families; any other
split group (e.g. G_2: dim 14, degrees {2, 6}) is a :class:`GroupSpec`
built from its data.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .arith import Record, format_rational

FAMILIES = ("GL", "SL", "Sp", "SO-odd", "SO-even", "Gm")


class GroupSpec(Record, namedtuple("GroupSpec", "name dim degrees tamagawa")):
    """name, dim G, invariant degrees (with multiplicity), Tamagawa constant."""

    __slots__ = ()

    def __new__(cls, name: str, dim: int, degrees: tuple[int, ...],
                tamagawa: Fraction = Fraction(1)):
        if dim < 1:
            raise ValueError(f"{name}: dim must be positive")
        if any(d < 1 for d in degrees):
            raise ValueError(f"{name}: invariant degrees must be positive")
        if len(degrees) > dim:
            raise ValueError(f"{name}: rank {len(degrees)} exceeds dim {dim}")
        if tamagawa <= 0:
            raise ValueError(f"{name}: Tamagawa constant must be positive")
        return super().__new__(cls, name, dim, tuple(sorted(degrees)), tamagawa)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    def is_gl(self) -> int | None:
        """The n with degrees {1..n} and dim n^2, or None."""
        n = self.rank
        if self.degrees == tuple(range(1, n + 1)) and self.dim == n * n:
            return n
        return None

    def to_json_dict(self) -> dict:
        return {"name": self.name, "dim": self.dim,
                "degrees": list(self.degrees),
                "tamagawa": format_rational(self.tamagawa)}


def builtin_group(family: str, n: int, tamagawa=None) -> GroupSpec:
    """Classical split groups by family and rank parameter.

    GL_n: dim n^2, degrees 1..n.           SL_n: dim n^2-1, degrees 2..n.
    Gm:   dim 1, degrees {1}.              Sp_2n: dim 2n^2+n, degrees 2,4..2n.
    SO_(2n+1): dim 2n^2+n, degrees 2,4..2n.
    SO_2n (n>=2): dim 2n^2-n, degrees 2,4..2n-2 and n.

    The default Tamagawa constant is 1, the per-component normalization
    validated by the projective-line mass tests for GL/SL/Sp/Gm; for the
    SO families (not simply connected) supply your own.
    """
    if n < 1:
        raise ValueError("rank parameter must be positive")
    tau = Fraction(1 if tamagawa is None else tamagawa)
    if family == "GL":
        return GroupSpec(f"GL{n}", n * n, tuple(range(1, n + 1)), tau)
    if family == "SL":
        if n < 2:
            raise ValueError("SL needs n >= 2")
        return GroupSpec(f"SL{n}", n * n - 1, tuple(range(2, n + 1)), tau)
    if family == "Gm":
        if n != 1:
            raise ValueError("Gm has no rank parameter beyond 1")
        return GroupSpec("Gm", 1, (1,), tau)
    if family == "Sp":
        return GroupSpec(f"Sp{2 * n}", 2 * n * n + n,
                         tuple(range(2, 2 * n + 1, 2)), tau)
    if family == "SO-odd":
        return GroupSpec(f"SO{2 * n + 1}", 2 * n * n + n,
                         tuple(range(2, 2 * n + 1, 2)), tau)
    if family == "SO-even":
        if n < 2:
            raise ValueError("SO-even needs n >= 2")
        return GroupSpec(f"SO{2 * n}", 2 * n * n - n,
                         tuple(range(2, 2 * n - 1, 2)) + (n,), tau)
    raise ValueError(f'unsupported family "{family}"; '
                     f"known: {', '.join(FAMILIES)}")


def mass_ratio(spec: GroupSpec, q: int, r: int = 1) -> Fraction:
    """|G(F_(q^r))| / q^(r dim) = prod_j (1 - q^(-r d_j)), exact, in (0, 1)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    Q = q ** r
    return Fraction(math.prod(Q ** d - 1 for d in spec.degrees),
                    Q ** sum(spec.degrees))

