"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line on success; a pytest failure is the
corresponding FAIL line.  Tolerances are fixed here, not tuned: Monte Carlo
checks use 4 standard errors of the reported estimate, exact claims use
1e-12, and timed sections assert their budget.
"""

import math
import time

import numpy as np

from phasebit import (
    Balanced,
    Definite,
    IID_UNIFORM,
    OSCILLATOR_ENSEMBLE,
    PhaseModel,
    VirtualRegister,
    analytic_chsh,
    apply_cnot,
    apply_hadamard,
    basis_state,
    chsh_classical,
    chsh_quantum,
    cnot,
    conditional_same_color_probability,
    correlation_curve,
    hadamard,
    initialize,
    ks_uniformity,
    make_phase_stream,
    singlet_correlation,
)
from phasebit.cli import main
from phasebit.oracle import QuantumState

CANONICAL = (0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4)
SQRT2 = math.sqrt(2.0)


def test_criterion_1_triangular_correlator_reproduction():
    start = time.perf_counter()
    deltas = [k * math.pi / 16 for k in range(17)]
    points = correlation_curve(PhaseModel(kind=IID_UNIFORM, seed=42), deltas, 100_000)
    for p in points:
        target = 1.0 - 2.0 * p.delta / math.pi
        assert abs(p.estimated.mean - target) <= 4 * p.estimated.stderr, (
            f"delta={p.delta}: {p.estimated.mean} vs {target}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 (triangular correlator, 17-point grid): PASS ({elapsed:.2f}s)")


def test_criterion_2_exact_anchor_points():
    model = PhaseModel(seed=42)
    points = correlation_curve(model, [0.0, math.pi / 2, math.pi], 100_000)
    at_zero, at_half, at_pi = points
    assert at_zero.estimated.mean == 1.0 and at_zero.estimated.stderr == 0.0
    assert at_pi.estimated.mean == -1.0 and at_pi.estimated.stderr == 0.0
    assert abs(at_half.estimated.mean) <= 4 * at_half.estimated.stderr
    print("\nACCEPTANCE 2 (anchors M(0)=1, M(pi/2)~0, M(pi)=-1): PASS")


def test_criterion_3_classical_bell_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20240)
    quadruples = rng.uniform(-math.pi, math.pi, size=(1000, 4))
    worst = max(abs(analytic_chsh(*q)) for q in quadruples)
    assert worst <= 2.0 + 1e-12
    result = chsh_classical(PhaseModel(seed=42), *CANONICAL, 100_000)
    assert abs(result.s_value - 2.0) <= 4 * result.s_stderr
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 3 (classical CHSH bound; |S|max={worst:.12f}, "
        f"S_est={result.s_value:.4f}): PASS ({elapsed:.2f}s)"
    )


def test_criterion_4_quantum_gap():
    start = time.perf_counter()
    s_quantum = chsh_quantum(*CANONICAL)
    assert abs(abs(s_quantum) - 2.0 * SQRT2) <= 1e-12
    ratio = abs(s_quantum) / abs(analytic_chsh(*CANONICAL))
    assert abs(ratio - SQRT2) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 4 (quantum CHSH 2*sqrt2, ratio sqrt2): PASS ({elapsed:.2f}s)")


def test_criterion_5_post_selection():
    trials = 100_000
    stream = make_phase_stream(PhaseModel(seed=42))
    register = VirtualRegister([Balanced(0.0), Balanced(math.pi / 4)], stream)
    bits = initialize(register, trials)
    n = len(bits)
    rate = n / trials
    assert abs(rate - 0.5) <= 4 * 0.5 / math.sqrt(trials)
    assert np.all(bits[:, 0] == 0)
    p_same = float(np.mean(bits[:, 1] == 0))
    stderr = math.sqrt(p_same * (1.0 - p_same) / n)
    assert abs(p_same - conditional_same_color_probability(math.pi / 4)) <= 4 * stderr
    print(
        f"\nACCEPTANCE 5 (post-selection; rate={rate:.4f}, "
        f"agreement={p_same:.4f} vs 0.75): PASS"
    )


def test_criterion_6_gate_semantics():
    assert cnot(0, 0) == 0 and cnot(0, 1) == 1 and cnot(1, 0) == 1 and cnot(1, 1) == 0
    assert hadamard(Balanced(0.7)) == Definite(0)
    assert hadamard(Definite(0)) == Balanced(0.0)
    assert hadamard(Definite(1)) == Balanced(0.0)
    rng = np.random.default_rng(6)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    state = QuantumState(3, amps / np.linalg.norm(amps))
    for target in range(3):
        back = apply_hadamard(apply_hadamard(state, target), target)
        assert np.max(np.abs(np.subtract(back.amplitudes, state.amplitudes))) <= 1e-12
    back = apply_cnot(apply_cnot(state, 0, 2), 0, 2)
    assert np.max(np.abs(np.subtract(back.amplitudes, state.amplitudes))) <= 1e-12
    walked = apply_cnot(apply_hadamard(state, 1), 1, 0)
    norm_sq = float(np.real(np.vdot(walked.amplitudes, walked.amplitudes)))
    assert abs(norm_sq - 1.0) <= 1e-12
    print("\nACCEPTANCE 6 (CNOT truth table, Hadamard rules, unitary oracle): PASS")


def test_criterion_7_oracle_cross_check():
    rng = np.random.default_rng(7)
    pairs = rng.uniform(-2 * math.pi, 2 * math.pi, size=(1000, 2))
    worst = max(abs(singlet_correlation(a, b) + math.cos(a - b)) for a, b in pairs)
    assert worst <= 1e-12
    print(f"\nACCEPTANCE 7 (singlet vs -cos closed form; worst={worst:.2e}): PASS")


def test_criterion_8_phase_model_uniformity():
    n = 100_000
    _, phi_iid = make_phase_stream(PhaseModel(kind=IID_UNIFORM, seed=42)).take(n)
    iid = ks_uniformity(phi_iid)
    assert iid.statistic < iid.critical_1pct
    model = PhaseModel(kind=OSCILLATOR_ENSEMBLE, seed=42, ensemble_size=32, burn_in=1000)
    _, phi_osc = make_phase_stream(model).take(n)
    osc = ks_uniformity(phi_osc)
    assert osc.statistic < osc.critical_1pct
    print(
        f"\nACCEPTANCE 8 (KS uniformity at 1%; iid={iid.statistic:.2e}, "
        f"oscillator={osc.statistic:.2e}, crit={iid.critical_1pct:.2e}): PASS"
    )


def test_criterion_9_reproducibility(tmp_path):
    rerun_a, rerun_b = tmp_path / "rerun_a.csv", tmp_path / "rerun_b.csv"
    argv = ["chsh", "--trials", "20000", "--seed", "42", "--out"]
    assert main(argv + [str(rerun_a)]) == 0
    assert main(argv + [str(rerun_b)]) == 0
    assert rerun_a.read_bytes() == rerun_b.read_bytes()

    w1, w4 = tmp_path / "w1.csv", tmp_path / "w4.csv"
    base = ["curve", "--trials", "10001", "--seed", "42"]
    assert main(base + ["--workers", "1", "--out", str(w1)]) == 0
    assert main(base + ["--workers", "4", "--out", str(w4)]) == 0
    assert w1.read_bytes() == w4.read_bytes()
    print("\nACCEPTANCE 9 (byte-identical reruns and worker counts): PASS")
