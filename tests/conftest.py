import random

import pytest

from bunzeta.arith import FiniteField
from bunzeta.curves import (
    HyperellipticCurve,
    PlaneCurve,
    ProjectiveLine,
)
from bunzeta.zeta import InconsistentCountsError, zeta_from_counts


class CountLog(list):
    """The degrees m of the hyperelliptic counts that ran, in order.

    Until ``real`` is set a count fails the test at once, so a test of a
    refusal fails in milliseconds when the gate breaks instead of counting
    for minutes first."""

    real = False


@pytest.fixture
def count_log(monkeypatch):
    log = CountLog()
    count = HyperellipticCurve._count

    def record(model, m, E):
        log.append(m)
        if not log.real:
            pytest.fail(f"{model.name}: N_{m} was counted, not refused")
        return count(model, m, E)

    monkeypatch.setattr(HyperellipticCurve, "_count", record)
    return log


@pytest.fixture(scope="session")
def F2():
    return FiniteField.prime(2)


@pytest.fixture(scope="session")
def F3():
    return FiniteField.prime(3)


@pytest.fixture(scope="session")
def curve_catalog(F2, F3):
    """The standard desk-scale curve catalog used throughout the suite."""
    return {
        "P1/F2": ProjectiveLine(F2, name="P1/F2"),
        "P1/F3": ProjectiveLine(F3, name="P1/F3"),
        # y^2 + y = x^3, genus 1, supersingular, N_1 = 3
        "E1": HyperellipticCurve.from_ints(F2, [1], [0, 0, 0, 1], name="E1"),
        # y^2 + y = x^5, genus 2
        "C2": HyperellipticCurve.from_ints(F2, [1], [0, 0, 0, 0, 0, 1],
                                           name="C2"),
        # y^2 + y = x^7, genus 3
        "C3": HyperellipticCurve.from_ints(F2, [1], [0] * 7 + [1], name="C3"),
        # Klein quartic x^3 y + y^3 z + z^3 x, genus 3
        "klein": PlaneCurve.from_list(
            F2, [(3, 1, 0, 1), (0, 3, 1, 1), (1, 0, 3, 1)], 4, name="klein"),
        # y^2 = x^3 + x over F_3, genus 1
        "E3": HyperellipticCurve.from_ints(F3, [], [0, 1, 0, 1], name="E3"),
    }


@pytest.fixture(scope="session")
def zeta_catalog():
    """ZetaData for the four base curves of the mass comparisons, built from
    point counts frozen off exhaustive enumeration."""
    return {
        "P1/F2": zeta_from_counts(2, 0, []),
        "P1/F3": zeta_from_counts(3, 0, []),
        "E1": zeta_from_counts(2, 1, [3]),
        "C2": zeta_from_counts(2, 2, [3, 5]),
    }


@pytest.fixture(scope="session")
def catalog_zeta(curve_catalog):
    """ZetaData of a catalog curve, from its enumerated N_1..N_g."""
    def build(name):
        return curve_catalog[name].zeta()
    return build


@pytest.fixture(scope="session")
def genus6_zeta(F2):
    # y^2 + y = x^13 over F_2, genus 6
    model = HyperellipticCurve.from_ints(F2, [1], [0] * 13 + [1], name="C6")
    return model.zeta()


@pytest.fixture(scope="session")
def random_zetas():
    """Seeded random ZetaData: the projective line and up to four draws of
    counts N_1..N_g inside the Weil window that are the counts of a genus-g
    curve's zeta data, for each q in 2, 3, 4, 5, 7 and g in 1, 2, 3."""
    rng = random.Random(1412)
    out = []
    for q in (2, 3, 4, 5, 7):
        out.append(zeta_from_counts(q, 0, []))
        for g in (1, 2, 3):
            kept = 0
            for _ in range(400):
                counts = []
                for m in range(1, g + 1):
                    width = int(2 * g * q ** (m / 2))
                    counts.append(max(0, q ** m + 1 - width)
                                  + rng.randrange(2 * width + 1))
                try:
                    out.append(zeta_from_counts(q, g, counts))
                except InconsistentCountsError:
                    continue
                kept += 1
                if kept == 4:
                    break
    return out
