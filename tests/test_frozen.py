"""The frozen value classes against dataclasses twins.

knotcert._frozen builds every value class without generated code.  Each
class here is checked against a twin that dataclasses.dataclass(frozen=
True) builds from the same class body (the class's own methods, without
the ones frozen added): field order, equality, hash, repr, frozen
assignment, keyword and default construction, and the argument errors.
"""

import dataclasses
import importlib
import pkgutil
from fractions import Fraction

import pytest

import knotcert as kc
from knotcert import _frozen
from knotcert.certify import ComboRecord
from knotcert.knots import ConnectedSum, Mirror, Multiple, RawKnot, Torus, Unknot
from knotcert.polynomials import IntPoly

# fields that stay out of equality and hashing (frozen's uncompared)
UNCOMPARED = {"SignatureFunction": ("den_bound",)}


def _samples():
    """Class -> instances; the classes' own constructors make them."""
    t3, t5 = kc.torus(2, 3), kc.torus(2, 5)
    wh11 = kc.whitehead_cover(1, 1)
    zero = kc.CGProfile.zero()
    combo = ComboRecord((1, 1), "witnessed", 4, (), "ab12")
    return {
        kc.CirclePoint: (kc.CirclePoint(2, 6), kc.CirclePoint(1, 5)),
        kc.SignatureFunction: (kc.signature_function(t3, 6),
                               kc.SignatureFunction.zero(2),
                               kc.SignatureFunction.zero(6)),
        kc.OrderingCheck: (kc.OrderingCheck(True, 3, ((-2, -2),), ()),
                           kc.OrderingCheck(False, 5, ((0, 0), (-2, 0)),
                                            ((0, 0, -2, False),))),
        kc.FiniteAbelianGroup: (kc.FiniteAbelianGroup((3,)),
                                kc.FiniteAbelianGroup((3, 9))),
        kc.Character: (kc.Character((Fraction(1, 3),)),
                       kc.Character((Fraction(2, 3), Fraction(4, 9)))),
        kc.CoverPresentation: (kc.cover_presentation(kc.evaluate(t3)),
                               kc.cover_presentation(kc.evaluate(t5))),
        kc.PatternCover: (wh11, kc.whitehead_cover(1, -1)),
        ComboRecord: (ComboRecord((1, 0), "parity", 0, ()), combo),
        kc.IndependenceCertificate: (
            kc.IndependenceCertificate("exhaustive", wh11, zero, 3, 1, (t3,),
                                       None, None, 6, 729, None, False),
            kc.IndependenceCertificate("exhaustive", wh11, zero, 3, 1, (t3,),
                                       None, None, 6, 729, 3, False, (combo,)),
        ),
        kc.Subgroup: (kc.Subgroup(3, 2, ((1, 0),)), kc.Subgroup(3, 2, ((0, 1),)),
                      kc.Subgroup(9, 2, ())),
        kc.RatInterval: (kc.RatInterval(0, 1), kc.RatInterval.point(Fraction(1, 2))),
        kc.CGProfile: (zero, kc.CGProfile.bounded(1),
                       kc.CGProfile.exact([((Fraction(1, 3),), 2)])),
        kc.ObstructionInstance: (
            kc.ObstructionInstance(wh11, zero, (t3,), (t5,), 3, 1),
            kc.ObstructionInstance(wh11, zero, (t3, t5), (), 3, 1),
        ),
        kc.SliceObstructionResult: (
            kc.SliceObstructionResult(True, "parity", 3, 1, 3, 0),
            kc.SliceObstructionResult(False, "vanishing-subgroup", 3, 1, 2, 4,
                                      failed_subgroup=((1, 1),)),
        ),
        kc.SelectionReport: (kc.SelectionReport((0,), ((1, 2),)),
                             kc.SelectionReport((), ())),
        kc.SeifertMatrix: (kc.SeifertMatrix(((-1, 1), (0, -1))), kc.evaluate(t5)),
        Unknot: (kc.unknot(), kc.unknot()),
        Torus: (t3, t5),
        RawKnot: (kc.raw([[-1, 1], [0, -1]]), kc.raw(kc.evaluate(t5).rows)),
        Mirror: (kc.mirror(t3), kc.mirror(t5)),
        ConnectedSum: (kc.connected_sum(t3, t5), kc.connected_sum(t5, t3)),
        Multiple: (kc.multiple(2, t3), kc.multiple(3, t3)),
        IntPoly: (IntPoly((1, -1, 1)), IntPoly((0, 1)), IntPoly((1, -1, 1, 0))),
    }


CLASSES = list(_samples())


def _twin(cls):
    """dataclass(frozen=True) over cls's body, without frozen's methods."""
    ns = {
        k: v for k, v in vars(cls).items()
        if k not in ("__dict__", "__weakref__", "__match_args__")
        and getattr(v, "__module__", None) != _frozen.__name__
    }
    for name in UNCOMPARED.get(cls.__name__, ()):
        ns[name] = dataclasses.field(default=ns[name], compare=False)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, ns))


def _hash(obj):
    try:
        return hash(obj)
    except TypeError:
        return "unhashable"


def test_samples_cover_every_frozen_class():
    found = set()
    for info in pkgutil.iter_modules(kc.__path__):
        module = importlib.import_module(f"knotcert.{info.name}")
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__dict__.get("__setattr__") is _frozen._setattr:
                found.add(obj)
    assert found == set(CLASSES) and len(found) == 23


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_frozen_class_matches_its_dataclass_twin(cls):
    twin = _twin(cls)
    fields = dataclasses.fields(twin)
    names = tuple(f.name for f in fields)
    assert cls.__match_args__ == names
    n_required = sum(f.default is dataclasses.MISSING for f in fields)
    built = []
    for sample in _samples()[cls]:
        args = [getattr(sample, name) for name in names]
        real, other = cls(*args), twin(*args)
        built.append((real, other))
        assert repr(real) == repr(other)
        assert _hash(real) == _hash(other)
        assert real == cls(*args) and other == twin(*args)
        assert real.__eq__(other) is NotImplemented and real != other
        assert real.__eq__(object()) is NotImplemented
        # a subclass instance with the same fields is not equal either
        assert real.__eq__(type("Sub", (cls,), {})(*args)) is NotImplemented
        assert other.__eq__(type("Sub", (twin,), {})(*args)) is NotImplemented
        assert cls(**dict(zip(names, args))) == real
        # defaults: only the required fields given
        short = args[:n_required]
        assert repr(cls(*short)) == repr(twin(*short))
        # FrozenInstanceError, the twin's, is an AttributeError
        for obj in (real, other):
            for name in names + ("not_a_field",):
                with pytest.raises(AttributeError):
                    setattr(obj, name, 0)
            for name in names:
                with pytest.raises(AttributeError):
                    delattr(obj, name)
        # argument errors, the same as the twin's: one too many, an
        # unknown keyword, a repeated field and a missing one
        bad_calls = [lambda c: c(*args, None), lambda c: c(*args, not_a_field=0)]
        if names:
            bad_calls.append(lambda c: c(*args, **{names[0]: args[0]}))
        if n_required:
            bad_calls.append(lambda c: c(*args[:n_required - 1]))
        for bad in bad_calls:
            for c in (twin, cls):
                with pytest.raises(TypeError):
                    bad(c)
    for a, a_twin in built:
        for b, b_twin in built:
            assert (a == b) == (a_twin == b_twin)
            assert (a != b) == (a_twin != b_twin)
            if a == b:
                assert _hash(a) == _hash(b)


def test_uncompared_field_is_kept_but_not_compared():
    a, b = kc.SignatureFunction.zero(2), kc.SignatureFunction.zero(6)
    assert a == b and hash(a) == hash(b) and a.den_bound == 2 != b.den_bound
    assert repr(a) == "SignatureFunction(jumps=(), interval_values=(0,), jump_values=(), den_bound=2)"


@_frozen.frozen
class _Point:
    x: "NotDefinedAnywhere"  # noqa: F821 -- only the name is read
    y: int = 0


def test_annotations_are_read_by_name_only():
    assert _Point(1) == _Point(x=1, y=0) != _Point(1, 2)
    assert repr(_Point(1, 2)) == "_Point(x=1, y=2)"
    assert hash(_Point(1, 2)) == hash((1, 2))
