"""The frozen records of phasebit and the mutable register.

Every record is a ``__slots__`` class over one shared base: its fields are
set once by ``__init__``, and equality, hash and repr go over them in order.
"""

import copy
import pickle

import pytest

from phasebit import (
    Balanced,
    ChshResult,
    CorrelationEstimate,
    CurvePoint,
    Definite,
    ExperimentConfig,
    PhaseModel,
    QuantumState,
    VirtualRegister,
    make_phase_stream,
)

_ESTIMATE = CorrelationEstimate(0.5, 0.25, 12)
_CHSH = (0.0, 1.5, 0.75, 2.25)

# Per record: a value for every field in order, the defaults of its optional fields,
# and one field with another value.
RECORDS = {
    PhaseModel: (
        {"kind": "oscillator", "seed": 3, "ensemble_size": 4, "frequency_spread": 0.5,
         "burn_in": 7},
        {"kind": "iid", "seed": 0, "ensemble_size": 32, "frequency_spread": 1.0, "burn_in": 0},
        ("seed", 4),
    ),
    ExperimentConfig: (
        {"command": "chsh", "model": PhaseModel(seed=1), "trials": 10, "angles": _CHSH,
         "out": "x.csv", "format": "json", "workers": 2, "signal_index": 1,
         "shared_trials": False},
        {"out": "-", "format": "csv", "workers": 1, "signal_index": 0, "shared_trials": True},
        ("model", PhaseModel(seed=2)),
    ),
    QuantumState: ({"n_qubits": 1, "amplitudes": (0j, 1 + 0j)}, {}, ("amplitudes", (1 + 0j, 0j))),
    Definite: ({"bit": 1}, {}, ("bit", 0)),
    Balanced: ({"alpha": 0.5}, {}, ("alpha", -0.5)),
    CorrelationEstimate: ({"mean": 0.5, "stderr": 0.25, "n": 12}, {}, ("n", 13)),
    CurvePoint: (
        {"delta": 0.5, "analytic": 0.68, "estimated": _ESTIMATE}, {},
        ("estimated", CorrelationEstimate(0.5, 0.25, 13)),
    ),
    ChshResult: (
        {"angles": _CHSH, "terms": (_ESTIMATE,) * 4, "s_value": 1.0, "s_stderr": 0.5}, {},
        ("s_value", -1.0),
    ),
}

records = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


@records
def test_a_record_takes_its_fields_by_position_or_keyword(cls):
    values = RECORDS[cls][0]
    by_keyword = cls(**values)
    assert cls(*values.values()) == by_keyword
    assert {name: getattr(by_keyword, name) for name in values} == values


@records
def test_records_are_equal_and_hash_equal_exactly_when_their_fields_are(cls):
    values, _, (name, other) = RECORDS[cls]
    record = cls(**values)
    twin = cls(**values)
    assert record is not twin and record == twin and hash(record) == hash(twin)
    changed = cls(**{**values, name: other})
    assert record != changed
    assert record != tuple(values.values())
    assert record.__eq__(tuple(values.values())) is NotImplemented
    assert len({record, twin, changed}) == 2


@records
def test_a_record_refuses_every_write_and_delete(cls):
    record = cls(**RECORDS[cls][0])
    for name in RECORDS[cls][0]:
        with pytest.raises(AttributeError, match=name):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=name):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")
    assert cls(**RECORDS[cls][0]) == record


@records
def test_a_record_repr_lists_its_fields_in_order(cls):
    values = RECORDS[cls][0]
    fields = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(cls(**values)) == f"{cls.__name__}({fields})"


def test_the_phase_model_repr_reads_like_the_constructor_call():
    assert repr(PhaseModel()) == (
        "PhaseModel(kind='iid', seed=0, ensemble_size=32, frequency_spread=1.0, burn_in=0)"
    )


@records
def test_a_record_fills_its_optional_fields_from_their_defaults(cls):
    values, defaults, _ = RECORDS[cls]
    required = {name: value for name, value in values.items() if name not in defaults}
    record = cls(**required)
    assert {name: getattr(record, name) for name in defaults} == defaults


@records
def test_a_record_refuses_a_missing_unknown_repeated_or_extra_argument(cls):
    values, defaults, _ = RECORDS[cls]
    for name in values:
        if name not in defaults:
            with pytest.raises(TypeError, match=f"missing required argument {name!r}"):
                cls(**{k: v for k, v in values.items() if k != name})
    with pytest.raises(TypeError, match="'color'"):
        cls(**values, color=1)
    first = next(iter(values))
    with pytest.raises(TypeError, match=repr(first)):
        cls(*values.values(), **{first: values[first]})
    with pytest.raises(TypeError, match="arguments"):
        cls(*values.values(), None)


@records
def test_a_record_survives_copy_and_pickle(cls):
    record = cls(**RECORDS[cls][0])
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


def test_a_virtual_register_stays_mutable_and_unhashable():
    stream = make_phase_stream(PhaseModel(seed=1))
    register = VirtualRegister([Balanced(0.0), Definite(1)], stream, signal_index=1)
    assert repr(register) == (
        f"VirtualRegister(qubits=[Balanced(alpha=0.0), Definite(bit=1)], stream={stream!r}, "
        "signal_index=1)"
    )
    register.signal_index = 0
    register.qubits.append(Balanced(0.5))
    assert register.signal_index == 0 and len(register.qubits) == 3
    with pytest.raises(TypeError, match="unhashable"):
        hash(register)
