import contextlib
import io
import math

from hypothesis import assume, example, given, settings, strategies as st

import spec
from phasebit import (
    Balanced,
    Definite,
    ExperimentConfig,
    PhaseModel,
    PhaseStream,
    VirtualRegister,
    initialize,
)
from phasebit import cli

# the cosine changes sign next to each odd multiple of pi/2; trial 0 of an oscillator
# without burn-in has phase 0, so there the angle alone sits beside the sign edge
EDGE_ANGLES = [
    x
    for k in (-3, -1, 1, 3)
    for x in (math.nextafter(k * math.pi / 2, 0.0), k * math.pi / 2,
              math.nextafter(k * math.pi / 2, 10.0))
]
ANGLES = st.one_of(
    st.sampled_from(EDGE_ANGLES + [0.0, math.pi, -math.pi, 1e16, 1e300, 5e-324]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def models(draw):
    kind, seed = draw(st.sampled_from(["iid", "oscillator"])), draw(st.integers(0, 2**64 - 1))
    if kind == "iid":
        return PhaseModel(kind, seed)
    size = draw(st.integers(1, 64))
    spread = draw(st.one_of(st.just(1.0), st.floats(min_value=1e-3, max_value=1e6)))
    burn_in = draw(st.one_of(st.just(0), st.integers(0, 2**70)))
    try:
        return PhaseModel(kind, seed, size, spread, burn_in)
    except ValueError:  # a rate sum that cannot turn the phase
        assume(False)


def stdout_of(write) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write()
    return out.getvalue()


@settings(max_examples=150, deadline=None)
@given(
    model=models(),
    qubits=st.lists(st.one_of(st.integers(0, 1), ANGLES), min_size=1, max_size=5),
    signal=st.integers(0, 4),
    trials=st.integers(1, 3000),
    start=st.one_of(st.just(0), st.integers(0, 2**62)),
)
@example(PhaseModel("oscillator"), [math.nextafter(math.pi / 2, 0.0), 1], 0, 1, 0)
@example(PhaseModel("oscillator"), [math.nextafter(-math.pi / 2, 0.0), 0, 0.3], 2, 5, 0)
def test_initialize_returns_the_records_of_the_spec(model, qubits, signal, trials, start):
    signal_index = signal % len(qubits)
    register = VirtualRegister(
        [Definite(q) if isinstance(q, int) else Balanced(q) for q in qubits],
        PhaseStream(model, start=start),
        signal_index,
    )
    got = initialize(register, trials).tolist()
    assert got == spec.records(model, qubits, signal_index, trials, start)


@settings(max_examples=150, deadline=None)
@given(
    model=models(),
    angles=st.lists(ANGLES, min_size=1, max_size=5),
    signal=st.integers(0, 4),
    trials=st.integers(1, 3000),
    format=st.sampled_from(["csv", "json"]),
)
@example(PhaseModel("oscillator"), [math.nextafter(math.pi / 2, 0.0)], 0, 1, "csv")
@example(PhaseModel("oscillator"), [1.0, math.nextafter(-math.pi / 2, 0.0)], 1, 7, "json")
def test_init_prints_the_rows_of_the_spec(model, angles, signal, trials, format):
    config = ExperimentConfig(
        command="init", model=model, trials=trials, angles=tuple(angles),
        signal_index=signal % len(angles), format=format,
    )
    status = []
    got = stdout_of(lambda: status.append(cli.run(config)))
    assert status == [0]
    emit = cli.emit_csv if format == "csv" else cli.emit_json
    rows = spec.init_rows(model, angles, config.signal_index, trials)
    assert got == stdout_of(lambda: emit(cli.INIT_FIELDS, rows, "-"))
