"""The contract of the frozen value types built on ``arith.Record``: the
validated values ``ZetaData``, ``GroupSpec`` and ``TVData``, and a plain
subclass that checks the base class alone."""

import copy
import pickle
from collections import namedtuple
from fractions import Fraction

import pytest

from bunzeta.arith import Record
from bunzeta.asymptotics import TVData
from bunzeta.groups import GroupSpec
from bunzeta.zeta import InconsistentCountsError, ZetaData


class PlainRecord(Record, namedtuple("PlainRecord", "q g B")):
    """A Record with no __new__: the contract of the base class alone."""

    __slots__ = ()


def _tv():
    return TVData(q=4, beta=((2, Fraction(1, 3)), (1, 1)))


# each class with its field names in order and a factory of one valid value
CASES = {
    ZetaData: (("q", "g", "a"), lambda: ZetaData(q=2, g=1, a=(1, 2, 2))),
    PlainRecord: (("q", "g", "B"), lambda: PlainRecord(2, 1, (5, 2))),
    GroupSpec: (("name", "dim", "degrees", "tamagawa"),
                lambda: GroupSpec("GL2", 4, (2, 1))),
    TVData: (("q", "beta", "groups"), _tv),
}
CLASSES = list(CASES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_equal_fields_equal_objects_and_hashes(cls):
    _, make = CASES[cls]
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_in_order(cls):
    names, make = CASES[cls]
    x = make()
    shown = ", ".join(f"{name}={getattr(x, name)!r}" for name in names)
    assert repr(x) == f"{cls.__name__}({shown})"
    # the same values by position and by keyword give the same object
    values = [getattr(x, name) for name in names]
    assert cls(*values) == cls(**dict(zip(names, values))) == x


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen(cls):
    names, make = CASES[cls]
    x = make()
    for name in names:
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == make()


@pytest.mark.parametrize("a, b", [
    (ZetaData(2, 1, (1, 2, 2)), PlainRecord(2, 1, (1, 2, 2))),
    (ZetaData(2, 1, (1, 2, 2)), (2, 1, (1, 2, 2))),
    (GroupSpec("Gm", 1, (1,)), ("Gm", 1, (1,), Fraction(1))),
    (_tv(), (4, ((1, Fraction(1)), (2, Fraction(1, 3))), None)),
], ids=["ZetaData-PlainRecord", "ZetaData-tuple", "GroupSpec-tuple",
        "TVData-tuple"])
def test_equal_only_within_a_class(a, b):
    assert a != b and b != a and not a == b


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_pickle_and_copy_round_trips(cls):
    x = CASES[cls][1]()
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert type(y) is cls and y == x and hash(y) == hash(x)


@pytest.mark.parametrize("x, change, error, message", [
    (ZetaData(2, 1, (1, 2, 2)), {"a": (1, 2, 3)}, InconsistentCountsError,
     "functional equation fails at i = 0"),
    (GroupSpec("GL2", 4, (1, 2)), {"dim": 0}, ValueError,
     "dim must be positive"),
    (_tv(), {"groups": ((-1, 1, 1),)}, ValueError,
     r"groups\[0\]\.deg: must be >= 1"),
], ids=["ZetaData", "GroupSpec", "TVData"])
def test_replace_runs_the_checks(x, change, error, message):
    with pytest.raises(error, match=message):
        x._replace(**change)
    if hasattr(copy, "replace"):  # Python 3.13
        with pytest.raises(error, match=message):
            copy.replace(x, **change)
    assert x._replace(**{k: getattr(x, k) for k in change}) == x


def test_arguments_checked():
    with pytest.raises(TypeError):
        ZetaData(2, 1)
    with pytest.raises(TypeError):
        ZetaData(2, 1, (1, 2, 2), None)
    with pytest.raises(TypeError):
        ZetaData(2, 1, a=(1, 2, 2), b=0)
    with pytest.raises(TypeError):
        ZetaData(2, 1, (1, 2, 2), q=2)


def test_defaults_and_validation():
    assert GroupSpec("GL2", 4, (1, 2)).tamagawa == Fraction(1)
    assert TVData(q=4, beta=()).groups is None
    with pytest.raises(ValueError, match="dim must be positive"):
        GroupSpec("bad", 0, ())


def test_normalization_before_hashing():
    # __new__ normalizes, and equality and hash see the normal form
    spec = GroupSpec("GL2", 4, (2, 1))
    assert spec.degrees == (1, 2)
    assert spec == GroupSpec("GL2", 4, (1, 2))
    assert hash(spec) == hash(GroupSpec("GL2", 4, (1, 2)))
    tv = _tv()
    assert tv.beta == ((1, Fraction(1)), (2, Fraction(1, 3)))
    assert type(tv.beta[0][1]) is Fraction
    assert tv == TVData(4, ((1, Fraction(1)), (2, Fraction(1, 3))))
