"""Self-tests of the benchmark: the gate, the wrappers and the span accounting.

Run from the root of a checkout with ``python3 -m pytest -q bench``.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gate  # noqa: E402
import layer_trace  # noqa: E402
import run_bench  # noqa: E402
from workloads import WORKLOADS, Invocation  # noqa: E402

SMALL = 20_000


def small(inv: Invocation) -> Invocation:
    return dataclasses.replace(inv, trials=SMALL) if inv.trials else inv


def run_small(inv: Invocation) -> tuple[int, bytes]:
    code, out, _ = layer_trace.run_main(small(inv).argv(seed=5))
    return code, out.encode()


def invocations():
    return [inv for w in WORKLOADS.values() for inv in w.invocations]


@pytest.mark.parametrize("inv", invocations(), ids=lambda inv: inv.label)
def test_gate_accepts_real_output(inv):
    code, out = run_small(inv)
    gate.check_output(small(inv), code, out)


def test_gate_rejects_nonzero_exit():
    inv = WORKLOADS["short-runs"].invocations[0]
    code, out = run_small(inv)
    with pytest.raises(gate.GateError, match="exit code"):
        gate.check_output(inv, 1, out)


@pytest.mark.parametrize("row, column, value", [
    (3, "m_estimated", "0.9"),
    (0, "m_estimated", "0.99999"),
    (16, "m_estimated", "-0.99"),
    (5, "n", "19999"),
    (7, "delta_alpha", "1.5"),
    (2, "m_estimated", "nan"),
])
def test_gate_rejects_corrupted_csv_row(row, column, value):
    inv = small(WORKLOADS["curve-iid"].invocations[0])
    code, out = run_small(inv)
    lines = out.decode().splitlines(keepends=True)
    header = lines[0].rstrip("\n").split(",")
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[header.index(column)] = value
    lines[row + 1] = ",".join(cells) + "\n"
    with pytest.raises(gate.GateError):
        gate.check_output(inv, code, "".join(lines).encode())


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_gate_rejects_non_standard_json_tokens(token):
    inv = small(WORKLOADS["chsh-osc"].invocations[0])
    code, out = run_small(inv)
    rows = json.loads(out)
    rows[0]["ratio"] = "TOKEN"
    corrupted = json.dumps(rows).replace('"TOKEN"', token).encode()
    with pytest.raises(gate.GateError, match="non-standard JSON token"):
        gate.check_output(inv, code, corrupted)


def test_gate_rejects_the_nan_that_init_prints_with_no_accepted_trial():
    inv = Invocation("init", trials=1, fmt="json", angles=(0.0, 0.7853981633974483))
    code, out, _ = layer_trace.run_main(inv.argv(seed=1))
    assert code == 0 and "NaN" in out
    with pytest.raises(gate.GateError, match="non-standard JSON token"):
        gate.check_output(inv, code, out.encode())


def test_gate_rejects_a_wrong_gates_table():
    inv = WORKLOADS["short-runs"].invocations[0]
    code, out = run_small(inv)
    with pytest.raises(gate.GateError):
        gate.check_output(inv, code, out.replace(b"target=1\n", b"target=0\n", 1))


def test_sigma_bound_keeps_the_family_wise_rate_of_one_4_sigma_check():
    assert gate.sigma_bound(1) == 4.0
    assert 4.0 < gate.sigma_bound(15) < gate.sigma_bound(16) < 5.0


def test_wrappers_restore_the_original_functions():
    import phasebit.cli  # noqa: F401  (imports every probed module)

    originals = []
    for module, attr, _, _ in layer_trace.PROBES:
        owner, name = layer_trace.probe_owner(module, attr)
        originals.append((owner, name, getattr(owner, name)))
    with pytest.raises(RuntimeError):
        with layer_trace.Tracer().installed():
            for owner, name, original in originals:
                assert getattr(owner, name) is not original
            raise RuntimeError("leave the block early")
    for owner, name, original in originals:
        assert getattr(owner, name) is original


def traced_children(workload: str) -> list[dict]:
    """In-process traced runs of a workload's invocations, shaped like trace children."""
    children = []
    for inv in WORKLOADS[workload].invocations:
        tracer = layer_trace.Tracer()
        code, out, elapsed = layer_trace.run_main(small(inv).argv(seed=5), tracer)
        assert code == 0
        children.append({
            "spans": tracer.spans, "stdout": out, "import_scipy_ns": 1, "import_ns": 1,
            "traced_ns": elapsed, "untraced_ns": elapsed,
        })
    return children


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_reported_self_times_and_gaps_sum_to_the_traced_wall_time(workload):
    children = traced_children(workload)
    metrics = run_bench.layer_metrics(children)
    wall_ns = gaps_ns = 0
    for child in children:
        name, start, end, parent, _ = child["spans"][0]
        assert name == "cli" and parent == -1
        wall_ns += child["traced_ns"]
        gaps_ns += child["traced_ns"] - (end - start)
    reported = sum(metrics[name] for name in run_bench.SELF_SPANS)
    assert gaps_ns <= 0.03 * wall_ns
    # Exact but for float rounding: every span's self time is in one metric.
    assert abs(reported + gaps_ns / 1e9 - wall_ns / 1e9) <= 1e-6
    assert all(metrics[name] >= 0 for name in run_bench.SELF_SPANS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_span_name_is_in_a_self_time_metric(workload):
    covered = {span for spans in run_bench.SELF_SPANS.values() for span in spans}
    for child in traced_children(workload):
        assert set(layer_trace.totals(child["spans"])) <= covered


def test_layer_metrics_cover_every_per_layer_metric():
    metrics = run_bench.layer_metrics(traced_children("init-reg8"))
    assert set(metrics) == set(run_bench.PER_LAYER)
    assert metrics["phase.samples"] == SMALL
    assert metrics["signals.evals"] == 8 * SMALL
    assert 0.45 < metrics["register.accept_ratio"] < 0.55
    assert metrics["register.records"] == round(metrics["register.accept_ratio"] * SMALL)


def test_scipy_import_time_counts_only_outermost_scipy_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 | json",
        layer_trace.IMPORT_START,
        "import time:         5 |          5 |       scipy._lib",
        "import time:         3 |          3 |         numpy.linalg",
        "import time:         7 |         10 |       scipy.linalg",
        "import time:         2 |         17 |     scipy",
        "import time:        40 |         40 |     scipy.stats",
        "import time:         1 |          1 |     numpy.fft",
        "import time:         4 |         62 |   phasebit.stats",
        "import time:         1 |         63 | phasebit.cli",
        layer_trace.IMPORT_END,
        "import time:       100 |        100 | scipy.special",
    ])
    assert layer_trace.scipy_import_ns(report) == 57_000
