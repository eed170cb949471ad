"""The semantics every record type keeps: frozen fields that construct,
compare, hash, print, copy and pickle as the field tuple.

The table gives each of the 17 records its fields in order, one value per
field, and its defaults; every test walks the whole table.
"""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from bell_lab import lhv
from bell_lab.chsh import BellValue, ChshSettings
from bell_lab.dbb import PhysicalConstants, SpinState, SpinTrajectory, Trajectory, TwoParticleWF, WavePacket
from bell_lab.fock import BeamSplitterSpec, FockBasis, FockState, ModeIndex
from bell_lab.lhv import ChshEstimate, HiddenVariableModel
from bell_lab.mermin import GhzState, MerminSettings
from bell_lab.operators import MeasurementOp


def _uniform(rng, n):
    return rng.uniform(0.0, 2.0 * np.pi, size=n)


def _anti_sign(angle, lam):
    return -lhv._arc_sign(angle, lam)


SETTINGS = ChshSettings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4, "photon")
BASIS = FockBasis(0, ((0, 0, 0, 0),))
PACKET_A = WavePacket(-1.5, 0.8, 0.6, 0.25)
PACKET_B = WavePacket(1.5, 1.1, -0.4)

# class, its fields in order, one value per field, and the defaults
RECORDS = [
    (MeasurementOp, ("matrix", "label"), (np.diag([1.0, -1.0]).astype(complex), "z"), {"label": ""}),
    (ChshSettings, ("alpha", "alpha_prime", "beta", "beta_prime", "kind"),
     (0.0, math.pi / 2, math.pi / 4, -math.pi / 4, "photon"), {"kind": "spin_half"}),
    (BellValue, ("s", "settings"), (2.5, SETTINGS), {}),
    (GhzState, ("n", "ket"), (2, np.array([1.0, 0.0, 0.0, 1.0j]) / math.sqrt(2.0)), {}),
    (MerminSettings, ("pairs",), (((0.0, 1.0), (0.5, -1.0)),), {}),
    (HiddenVariableModel, ("name", "sample", "alice_response", "bob_response"),
     ("sign", _uniform, lhv._arc_sign, _anti_sign), {}),
    (ChshEstimate, ("estimate", "stderr", "samples", "seed"), (2.0, 0.01, 100, 7), {}),
    (ModeIndex, ("detector", "polarization"), (1, "y"), {}),
    (FockBasis, ("n_max_total", "states"), (1, ((0, 0, 0, 0), (1, 0, 0, 0))), {}),
    (FockState, ("basis", "amplitudes"), (BASIS, np.array([1.0 + 0.0j])), {}),
    (BeamSplitterSpec, ("t_x", "r_x", "t_y", "r_y"), (0.25, 0.75, 0.5, 0.5), {}),
    (PhysicalConstants, ("hbar", "mass", "gyro"), (2.0, 3.0, 0.5), {"hbar": 1.0, "mass": 1.0, "gyro": 1.0}),
    (WavePacket, ("center", "width", "wavenumber", "start_time"), (-1.5, 0.8, 0.6, 0.25),
     {"start_time": 0.0}),
    (TwoParticleWF, ("packet_a", "packet_b", "form"), (PACKET_A, PACKET_B, "symmetric"), {"form": "product"}),
    (Trajectory, ("times", "positions"), (np.array([0.0, 0.5]), np.array([[0.0, 1.0], [0.1, 1.2]])), {}),
    (SpinState, ("s",), ((0.0, 0.6, 0.8),), {}),
    (SpinTrajectory, ("times", "spins"), (np.array([0.0, 0.5]), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
     {}),
]
# records whose fields include an array cannot hash
UNHASHABLE = {MeasurementOp, GhzState, FockState, Trajectory, SpinTrajectory}

each_record = pytest.mark.parametrize("cls, fields, values, defaults", RECORDS,
                                      ids=[r[0].__name__ for r in RECORDS])


def _same(a, b):
    return type(a) is type(b) and (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)


def _assert_fields(record, cls, fields, values):
    assert type(record) is cls
    for name, value in zip(fields, values):
        assert _same(getattr(record, name), value), name


def test_the_table_covers_seventeen_records():
    assert len({r[0] for r in RECORDS}) == 17


@each_record
def test_construction_by_position_and_by_keyword(cls, fields, values, defaults):
    _assert_fields(cls(*values), cls, fields, values)
    _assert_fields(cls(**dict(zip(fields, values))), cls, fields, values)
    _assert_fields(cls(values[0], **dict(zip(fields[1:], values[1:]))), cls, fields, values)


@each_record
def test_defaults(cls, fields, values, defaults):
    required = [(f, v) for f, v in zip(fields, values) if f not in defaults]
    record = cls(*(v for _, v in required))
    for name in fields:
        assert _same(getattr(record, name), defaults[name] if name in defaults else values[fields.index(name)])
    _assert_fields(cls(**dict(required)), cls, fields, [getattr(record, f) for f in fields])


@each_record
def test_missing_extra_and_duplicate_arguments(cls, fields, values, defaults):
    required = [f for f in fields if f not in defaults]
    if required:
        kwargs = dict(zip(fields, values))
        del kwargs[required[-1]]
        with pytest.raises(TypeError, match=repr(required[-1])):
            cls(**kwargs)
        with pytest.raises(TypeError):
            cls()
    with pytest.raises(TypeError):
        cls(*values, values[-1])
    with pytest.raises(TypeError, match="'bogus'"):
        cls(*values, bogus=1)
    with pytest.raises(TypeError, match=repr(fields[0])):
        cls(*values, **{fields[0]: values[0]})


VALIDATION = [
    (lambda: MeasurementOp(np.ones((2, 3))), "measurement operator must be square, got shape (2, 3)"),
    (lambda: MeasurementOp(np.array([[0.0, 1.0], [0.0, 0.0]]), label="up"), "not Hermitian to 1e-12: up"),
    (lambda: ChshSettings(0.0, 0.0, 0.0, 0.0, kind="spin"),
     "kind must be one of ('spin_half', 'photon'), got 'spin'"),
    (lambda: ChshSettings(np.zeros(2), 0.0, 0.0, 0.0), "angle fields must share one shape, got [(), (2,)]"),
    (lambda: MerminSettings(()), "need at least one angle pair"),
    (lambda: ModeIndex(3, "x"),
     "mode must be one of ((1, 'x'), (1, 'y'), (2, 'x'), (2, 'y')), got (3, 'x')"),
    (lambda: FockState(BASIS, [0.6, 0.8]), "amplitude count 2 != basis size 1"),
    (lambda: FockState(BASIS, [0.5]), "Fock state must be normalized to 1e-12"),
    (lambda: BeamSplitterSpec(1.5, -0.5, 0.5, 0.5), "t_x must be in [0, 1], got 1.5"),
    (lambda: BeamSplitterSpec(0.5, 0.4, 0.5, 0.5), "need t_x + r_x = 1 and t_y + r_y = 1 (within 1e-12)"),
    (lambda: PhysicalConstants(mass=0.0), "hbar and mass must be positive"),
    (lambda: PhysicalConstants(gyro=math.inf), "gyro must be finite, got inf"),
    (lambda: WavePacket(0.0, -1.0, 0.0), "width must be positive, got -1.0"),
    (lambda: TwoParticleWF(PACKET_A, PACKET_B, "bosonic"),
     "form must be one of ('product', 'symmetric', 'antisymmetric'), got 'bosonic'"),
    (lambda: Trajectory([0.0, 1.0], [0.0]), "times and positions must have matching leading length"),
    (lambda: Trajectory([1.0, 0.0], [0.0, 0.0]), "times must be strictly increasing"),
    (lambda: SpinState((1.0, 0.0)), "spin must be a 3-vector"),
    (lambda: SpinState((0.0, 0.0, 0.0)), "spin vector must be nonzero"),
]


@pytest.mark.parametrize("make, message", VALIDATION)
def test_validation_errors_are_unchanged(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_post_init_normalizes_every_way_of_calling():
    assert MerminSettings(pairs=[[0, 1]]).pairs == ((0.0, 1.0),)
    assert SpinState(s=np.array([0, 0, 2])).s == (0.0, 0.0, 2.0)
    op = MeasurementOp(label="x", matrix=[[0, 1], [1, 0]])
    assert op.matrix.dtype == complex and not op.matrix.flags.writeable


@each_record
def test_fields_cannot_be_set_or_deleted(cls, fields, values, defaults):
    record = cls(*values)
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    _assert_fields(record, cls, fields, values)


@each_record
def test_equality_needs_the_same_class(cls, fields, values, defaults):
    record = cls(*values)
    assert record == copy.copy(record) and not record != copy.copy(record)
    assert record != tuple(values) and (record == tuple(values)) is False
    if cls not in UNHASHABLE:
        assert record == cls(*values)
        assert hash(record) == hash(cls(*values)) == hash(tuple(getattr(record, f) for f in fields))
    else:
        with pytest.raises(TypeError):
            hash(record)


def test_records_of_other_classes_are_unequal():
    times, rows = np.array([0.0, 0.5]), np.zeros((2, 3))
    assert Trajectory(times, rows) != SpinTrajectory(times, rows)

    class Shifted(WavePacket):
        pass

    assert Shifted(-1.5, 0.8, 0.6, 0.25) != PACKET_A
    assert Shifted(-1.5, 0.8, 0.6, 0.25) == Shifted(-1.5, 0.8, 0.6, 0.25)
    assert WavePacket(-1.5, 0.8, 0.6) != PACKET_A


@each_record
def test_repr_is_the_dataclass_format(cls, fields, values, defaults):
    record = cls(*values)
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(PACKET_A) == "WavePacket(center=-1.5, width=0.8, wavenumber=0.6, start_time=0.25)"
    assert repr(TwoParticleWF(PACKET_A, PACKET_B)) == (
        "TwoParticleWF(packet_a=WavePacket(center=-1.5, width=0.8, wavenumber=0.6, start_time=0.25), "
        "packet_b=WavePacket(center=1.5, width=1.1, wavenumber=-0.4, start_time=0.0), form='product')")
    assert repr(ModeIndex(2, "x")) == "ModeIndex(detector=2, polarization='x')"
    assert repr(SpinState((1, 0, 0))) == "SpinState(s=(1.0, 0.0, 0.0))"
    assert repr(MeasurementOp(np.eye(2), label="I")) == (
        "MeasurementOp(matrix=array([[1.+0.j, 0.+0.j],\n       [0.+0.j, 1.+0.j]]), label='I')")


@each_record
@pytest.mark.parametrize("round_trip", [copy.copy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "pickle"])
def test_copy_and_pickle_give_an_equal_record(cls, fields, values, defaults, round_trip):
    record = cls(*values)
    again = round_trip(record)
    _assert_fields(again, cls, fields, values)
    if cls not in UNHASHABLE:
        assert again == record and hash(again) == hash(record)
    with pytest.raises(AttributeError):
        setattr(again, fields[0], values[0])
