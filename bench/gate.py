"""Correctness gate for phasebit CLI output, recomputed from first principles.

Nothing here trusts a column of the output that can be derived: expected
angles come from the invocation, expected correlations from the triangle law
``1 - 2|delta|/pi``, and every Monte Carlo tolerance from the expected value
and the trial count, never from the reported ``stderr``.

Monte Carlo checks use the acceptance suite's 4-sigma bound as a family-wise
error rate: an output with ``k`` statistical checks tests each at the
two-sided level that makes the chance of any false alarm in the whole output
equal to that of a single 4-sigma check.  A benchmark run gates hundreds of
outputs at seeds nobody chose, so a per-row 4-sigma bound would fail a
correct program every few dozen runs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from statistics import NormalDist

from workloads import Invocation

CURVE_FIELDS = ("delta_alpha", "m_analytic", "m_estimated", "stderr", "n")
COMPARE_FIELDS = ("delta_alpha", "m_classical", "m_estimated", "stderr", "e_singlet", "n")
CHSH_FIELDS = (
    "a1", "a2", "b1", "b2", "e11", "e12", "e21", "e22",
    "s", "s_stderr", "s_quantum", "ratio",
)
INIT_FIELDS = ("qubit", "alpha", "n_trials", "n_accepted", "p_bit0", "stderr")
GATES_FIELDS = ("gate", "input", "output")

SIGMA = 4.0
EXACT_TOL = 1e-12
# Slack for sums of printed values; each printed float has 12 significant digits.
PRINT_TOL = 1e-10
_NORMAL = NormalDist()
_SINGLE_CHECK_ALPHA = 2.0 * (1.0 - _NORMAL.cdf(SIGMA))


class GateError(ValueError):
    """The output is malformed or disagrees with the expected values."""


def sigma_bound(checks: int) -> float:
    """Two-sided z bound per check for a family-wise 4-sigma false-alarm rate."""
    if checks <= 1:
        return SIGMA
    return _NORMAL.inv_cdf(1.0 - _SINGLE_CHECK_ALPHA / (2.0 * checks))


def wrap(x: float) -> float:
    """Angle reduced to ``(-pi, pi]``."""
    r = math.remainder(x, 2.0 * math.pi)
    return math.pi if r == -math.pi else r


def triangle(delta: float) -> float:
    return 1.0 - 2.0 * abs(wrap(delta)) / math.pi


def _reject_constant(token: str):
    raise GateError(f"non-standard JSON token {token}")


def parse_table(stdout: bytes, fmt: str, fields: tuple[str, ...]) -> list[dict]:
    """Rows as dicts; strict JSON, or CSV with exactly the expected header."""
    try:
        text = stdout.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GateError(f"output is not UTF-8: {exc}") from None
    if fmt == "json":
        try:
            rows = json.loads(text, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise GateError(f"invalid JSON: {exc}") from None
        if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
            raise GateError("JSON output is not an array of objects")
        for row in rows:
            if tuple(row) != fields:
                raise GateError(f"JSON keys {tuple(row)} != {fields}")
        return rows
    lines = list(csv.reader(io.StringIO(text, newline="")))
    if not lines or tuple(lines[0]) != fields:
        raise GateError(f"CSV header {lines[:1]} != {list(fields)}")
    if not text.endswith("\n") or "\r" in text:
        raise GateError("CSV rows must end in a bare line feed")
    for line in lines[1:]:
        if len(line) != len(fields):
            raise GateError(f"CSV row has {len(line)} fields: {line}")
    return [dict(zip(fields, line)) for line in lines[1:]]


def num(row: dict, key: str) -> float:
    value = row[key]
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise GateError(f"{key}: not a number: {value!r}")
    try:
        x = float(value)
    except ValueError:
        raise GateError(f"{key}: not a number: {value!r}") from None
    if not math.isfinite(x):
        raise GateError(f"{key}: not finite: {value!r}")
    return x


def integer(row: dict, key: str) -> int:
    value = row[key]
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise GateError(f"{key}: not an integer: {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, int):
        raise GateError(f"{key}: not an integer: {value!r}")
    return value


def _printed_ulp(x: float) -> float:
    """Largest rounding error of ``format(x, ".12g")``."""
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(x))) - 11) if x else 0.0


def _close(row: dict, key: str, expected: float, tol: float = EXACT_TOL) -> float:
    """The printed value is ``expected`` to ``tol``, after 12-digit rounding."""
    x = num(row, key)
    if abs(x - expected) > tol + _printed_ulp(expected):
        raise GateError(f"{key} = {x!r}, expected {expected!r}")
    return x


def _within(what: str, x: float, expected: float, sigma: float, z: float) -> None:
    if sigma == 0.0:
        if x != expected:
            raise GateError(f"{what} = {x!r}, expected exactly {expected!r}")
    elif abs(x - expected) > z * sigma + PRINT_TOL:
        raise GateError(
            f"{what} = {x!r} is {abs(x - expected) / sigma:.2f} sigma from "
            f"{expected!r} (bound {z:.2f})"
        )


def _check_rows(rows: list[dict], count: int) -> None:
    if len(rows) != count:
        raise GateError(f"{len(rows)} rows, expected {count}")


def check_curve(rows: list[dict], inv: Invocation, analytic_key: str = "m_analytic") -> None:
    _check_rows(rows, len(inv.angles))
    n = inv.trials
    z = sigma_bound(sum(1 for d in inv.angles if abs(triangle(d)) < 1.0))
    for row, delta in zip(rows, inv.angles):
        m = triangle(delta)
        _close(row, "delta_alpha", delta)
        _close(row, analytic_key, m)
        if integer(row, "n") != n:
            raise GateError(f"n = {row['n']!r}, expected {n}")
        num(row, "stderr")
        _within(f"m_estimated at delta={delta:.6f}", num(row, "m_estimated"), m,
                math.sqrt((1.0 - m * m) / n), z)


def check_compare(rows: list[dict], inv: Invocation) -> None:
    check_curve(rows, inv, analytic_key="m_classical")
    for row, delta in zip(rows, inv.angles):
        _close(row, "e_singlet", -math.cos(delta))


def check_chsh(rows: list[dict], inv: Invocation) -> None:
    _check_rows(rows, 1)
    row = rows[0]
    n = inv.trials
    a1, a2, b1, b2 = inv.angles
    for key, angle in zip(("a1", "a2", "b1", "b2"), inv.angles):
        _close(row, key, angle)
    z = sigma_bound(4)
    variance = 0.0
    terms = []
    for key, (x, y) in zip(("e11", "e12", "e21", "e22"), ((a1, b1), (a1, b2), (a2, b1), (a2, b2))):
        m = triangle(x - y)
        variance += (1.0 - m * m) / n
        terms.append(num(row, key))
        _within(key, terms[-1], m, math.sqrt((1.0 - m * m) / n), z)
    s = _close(row, "s", terms[0] - terms[1] + terms[2] + terms[3], PRINT_TOL)
    if abs(s) > 2.0 + SIGMA * math.sqrt(variance) + PRINT_TOL:
        raise GateError(f"|s| = {abs(s)!r} breaks the classical bound")
    num(row, "s_stderr")
    s_quantum = -2.0 * math.sqrt(2.0)
    _close(row, "s_quantum", s_quantum)
    num(row, "ratio")  # a zero s prints a non-finite ratio, which fails here
    _close(row, "ratio", abs(s_quantum) / abs(s), PRINT_TOL)


def check_init(rows: list[dict], inv: Invocation) -> None:
    _check_rows(rows, len(inv.angles))
    n = inv.trials
    signal = inv.angles[0]
    expected_p = [1.0 - abs(wrap(a - signal)) / math.pi for a in inv.angles]
    z = sigma_bound(1 + sum(1 for p in expected_p if 0.0 < p < 1.0))
    accepted = integer(rows[0], "n_accepted")
    _within("n_accepted", accepted, n / 2, math.sqrt(n) / 2, z)
    for q, (row, alpha, p) in enumerate(zip(rows, inv.angles, expected_p)):
        if integer(row, "qubit") != q:
            raise GateError(f"row {q} is qubit {row['qubit']!r}")
        _close(row, "alpha", wrap(alpha))
        if integer(row, "n_trials") != n or integer(row, "n_accepted") != accepted:
            raise GateError(f"qubit {q}: trial counts {row['n_trials']!r}/{row['n_accepted']!r}")
        num(row, "stderr")
        _within(f"p_bit0 of qubit {q}", num(row, "p_bit0"), p,
                math.sqrt(p * (1.0 - p) / accepted), z)


def check_gates(rows: list[dict], inv: Invocation) -> None:
    expected = [
        {"gate": "cnot", "input": f"control={c} target={t}", "output": f"target={c ^ t}"}
        for c in (0, 1) for t in (0, 1)
    ]
    expected += [
        {"gate": "hadamard", "input": f"balanced({wrap(a)!r})", "output": "definite(0)"}
        for a in inv.angles
    ]
    expected += [
        {"gate": "hadamard", "input": f"definite({b})", "output": "balanced(0.0)"}
        for b in (0, 1)
    ]
    if rows != expected:
        raise GateError(f"gates table differs: {rows!r}")


_CHECKS = {
    "curve": (CURVE_FIELDS, check_curve),
    "compare": (COMPARE_FIELDS, check_compare),
    "chsh": (CHSH_FIELDS, check_chsh),
    "init": (INIT_FIELDS, check_init),
    "gates": (GATES_FIELDS, check_gates),
}


def check_output(inv: Invocation, exit_code: int, stdout: bytes) -> None:
    """Raise :class:`GateError` unless the invocation exited 0 with correct output."""
    if exit_code != 0:
        raise GateError(f"exit code {exit_code}")
    fields, check = _CHECKS[inv.command]
    check(parse_table(stdout, inv.fmt, fields), inv)
