"""The semantics every record type keeps: frozen fields that construct,
compare, hash, print, copy and pickle as the field tuple.

The table gives each of the 6 records its fields in order, one value per
field, and its defaults; every test walks the whole table.  States and CHSH
settings are not records but arrays; the messages of the functions that
check them are pinned here with the records' own.
"""

import copy
import math
import pickle
import re

import numpy as np
import pytest

from bell_lab import lhv
from bell_lab.chsh import chsh_value, singlet
from bell_lab.dbb import SpinTrajectory, Trajectory, TwoParticleWF, WavePacket, integrate_spin
from bell_lab.fock import coincidence_probability, detector_amplitude_op, ou_mandel_state
from bell_lab.lhv import HiddenVariableModel
from bell_lab.mermin import mermin_operator
from bell_lab.operators import MeasurementOp


def _uniform(rng, n):
    return rng.uniform(0.0, 2.0 * np.pi, size=n)


def _anti_sign(angle, lam):
    return -lhv._arc_sign(angle, lam)


VACUUM = np.eye(15, dtype=complex)[0]
PACKET_A = WavePacket(-1.5, 0.8, 0.6)
PACKET_B = WavePacket(1.5, 1.1, -0.4)

# class, its fields in order, one value per field, and the defaults
RECORDS = [
    (MeasurementOp, ("matrix", "label"), (np.diag([1.0, -1.0]).astype(complex), "z"), {"label": ""}),
    (HiddenVariableModel, ("sample", "alice_response", "bob_response"), (_uniform, lhv._arc_sign, _anti_sign), {}),
    (WavePacket, ("center", "width", "wavenumber"), (-1.5, 0.8, 0.6), {}),
    (TwoParticleWF, ("packet_a", "packet_b", "form"), (PACKET_A, PACKET_B, "symmetric"), {"form": "product"}),
    (Trajectory, ("times", "positions"), (np.array([0.0, 0.5]), np.array([[0.0, 1.0], [0.1, 1.2]])), {}),
    (SpinTrajectory, ("times", "spins"), (np.array([0.0, 0.5]), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])),
     {}),
]
# records whose fields include an array cannot hash
UNHASHABLE = {MeasurementOp, Trajectory, SpinTrajectory}

each_record = pytest.mark.parametrize("cls, fields, values, defaults", RECORDS,
                                      ids=[r[0].__name__ for r in RECORDS])


def _same(a, b):
    return type(a) is type(b) and (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)


def _assert_fields(record, cls, fields, values):
    assert type(record) is cls
    for name, value in zip(fields, values):
        assert _same(getattr(record, name), value), name


def test_the_table_covers_six_records():
    assert len({r[0] for r in RECORDS}) == 6


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
    (lambda: chsh_value(singlet(), (0.0, 0.0, 0.0, 0.0), kind="spin"),
     "kind must be one of ('spin_half', 'photon'), got 'spin'"),
    (lambda: mermin_operator(()), "need at least one angle pair"),
    # a detector other than the two
    (lambda: detector_amplitude_op(3, 0.0), "detector must be 1 or 2, got 3"),
    # the state checks of coincidence_probability and integrate_spin
    (lambda: coincidence_probability([0.6, 0.8], 0.0, 0.0), "amplitude count 2 != basis size 15"),
    (lambda: coincidence_probability(0.5 * VACUUM, 0.0, 0.0), "Fock state must be normalized to 1e-12"),
    (lambda: ou_mandel_state(1.5, 0.5), "t_x must be in [0, 1], got 1.5"),
    (lambda: integrate_spin((1.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 0.5, gyro=math.inf), "gyro must be finite, got inf"),
    (lambda: WavePacket(0.0, -1.0, 0.0), "width must be positive, got -1.0"),
    (lambda: TwoParticleWF(PACKET_A, PACKET_B, "bosonic"),
     "form must be one of ('product', 'symmetric', 'antisymmetric'), got 'bosonic'"),
    (lambda: Trajectory([0.0, 1.0], [0.0]), "times and positions must have matching leading length"),
    (lambda: Trajectory([1.0, 0.0], [0.0, 0.0]), "times must be strictly increasing"),
    (lambda: integrate_spin((1.0, 0.0), (0.0, 0.0, 1.0), 1.0, 0.5), "spin must be a 3-vector"),
    (lambda: integrate_spin((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), 1.0, 0.5), "spin vector must be nonzero"),
]


@pytest.mark.parametrize("make, message", VALIDATION)
def test_validation_errors_are_unchanged(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_post_init_normalizes_every_way_of_calling():
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

    assert Shifted(-1.5, 0.8, 0.6) != PACKET_A
    assert Shifted(-1.5, 0.8, 0.6) == Shifted(-1.5, 0.8, 0.6)
    assert WavePacket(-1.5, 0.8, 0.7) != PACKET_A


@each_record
def test_repr_is_the_dataclass_format(cls, fields, values, defaults):
    record = cls(*values)
    body = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert repr(PACKET_A) == "WavePacket(center=-1.5, width=0.8, wavenumber=0.6)"
    assert repr(TwoParticleWF(PACKET_A, PACKET_B)) == (
        "TwoParticleWF(packet_a=WavePacket(center=-1.5, width=0.8, wavenumber=0.6), "
        "packet_b=WavePacket(center=1.5, width=1.1, wavenumber=-0.4), form='product')")
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
