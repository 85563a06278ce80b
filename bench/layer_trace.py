"""Outside-in per-layer tracing of one phasebit CLI invocation.

The tracer wraps each layer's public functions at the module attribute its
caller looks them up through (``phasebit.cli.correlation_curve``,
``phasebit.stats.dichotomic_array``, ...) or, for ``PhaseStream.take``, on
its class, records a span per call in memory, and restores every original on
exit.  Nothing under ``src/`` is
edited.

Run as a script, this file is the traced child of ``run_bench.py``::

    python -X importtime bench/layer_trace.py untraced-first curve --trials 1000

It times ``import phasebit.cli`` in a fresh interpreter, between two marker
lines on stderr so that :func:`scipy_import_ns` can find scipy's share in the
``-X importtime`` report.  (Importing ``scipy.stats`` on its own first would
keep charging it after the program stops importing it.)  It then runs
``phasebit.cli.main`` once without and once with the wrappers, in the order
given so that a caller can alternate it to cancel warm-up effects, and prints
one JSON object with the timings, spans and the captured program output.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext, redirect_stdout
from pathlib import Path


def _model_kind(args, kwargs, result):
    return "phase." + args[0].kind


def _samples(args, kwargs, result):
    return {"samples": len(result)}


def _evals(args, kwargs, result):
    return {"evals": len(args[0])}


def _estimate_trials(args, kwargs, result):
    return {"trials": args[3]}


def _records(args, kwargs, result):
    return {"records": len(result), "attempted": args[1]}


# (module, attribute path, span name or a function naming the span, counter)
PROBES = (
    ("phasebit.cli", "main", "cli", None),
    ("phasebit.cli", "read_key_values", "config", None),
    ("phasebit.cli", "build_config", "config", None),
    ("phasebit.cli", "validate_config", "config", None),
    ("phasebit.cli", "emit_csv", "cli.emit", None),
    ("phasebit.cli", "emit_json", "cli.emit", None),
    ("phasebit.cli", "correlation_curve", "stats", None),
    ("phasebit.cli", "chsh_classical", "stats", None),
    ("phasebit.cli", "chsh_quantum", "oracle", None),
    ("phasebit.cli", "singlet_correlation", "oracle", None),
    ("phasebit.cli", "make_phase_stream", "phase", None),
    ("phasebit.cli", "initialize", "register", _records),
    ("phasebit.cli", "cnot", "register", None),
    ("phasebit.cli", "hadamard", "register", None),
    ("phasebit.stats", "make_phase_stream", "phase", None),
    ("phasebit.stats", "substream", "phase", None),
    ("phasebit.stats", "chunk_quota", "phase", None),
    ("phasebit.stats", "estimate_correlation", "signals.estimate", _estimate_trials),
    ("phasebit.stats", "dichotomic_array", "signals.dichotomic", _evals),
    ("phasebit.signals", "substream", "phase", None),
    ("phasebit.signals", "chunk_quota", "phase", None),
    ("phasebit.signals", "dichotomic_array", "signals.dichotomic", _evals),
    ("phasebit.register", "dichotomic_array", "signals.dichotomic", _evals),
    ("phasebit.phase", "PhaseStream.take", "phase", None),
    ("phasebit.phase", "phases_at", _model_kind, _samples),
)


def probe_owner(module_name: str, attr: str):
    """The object that holds a probed attribute, and the attribute's last name."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory spans: ``[name, start_ns, end_ns, parent_index, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [
                name if isinstance(name, str) else name(args, kwargs, None),
                time.perf_counter_ns(), 0,
                self._stack[-1] if self._stack else -1,
                None,
            ]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter_ns()
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Install a wrapper per probe; restore every original on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in PROBES:
                owner, attr = probe_owner(module_name, attr)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def totals(spans) -> dict[str, dict[str, int]]:
    """Per span name: summed self time (``self_ns``), call count and counters."""
    out: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[0]]
        entry["self_ns"] += own
        entry["calls"] += 1
        for key, value in (span[4] or {}).items():
            entry[key] += value
    return {name: dict(entry) for name, entry in out.items()}


def run_main(argv, tracer: Tracer | None = None) -> tuple[int, str, int]:
    """``phasebit.cli.main(argv)`` with stdout captured: (exit code, output, ns)."""
    import phasebit.cli

    buffer = io.StringIO()
    with redirect_stdout(buffer), (tracer.installed() if tracer else nullcontext()):
        start = time.perf_counter_ns()
        try:
            code = phasebit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        elapsed = time.perf_counter_ns() - start
    return code, buffer.getvalue(), elapsed


IMPORT_START = "bench: import phasebit.cli"
IMPORT_END = "bench: imported phasebit.cli"


def scipy_import_ns(stderr: str) -> int:
    """Time spent importing scipy between the import markers, from ``-X importtime``.

    Each report line reads ``import time: self | cumulative | name``, with the
    name indented two spaces per nesting level and nested imports listed
    before the import that caused them.  Summed: the cumulative times of
    scipy modules not imported from inside another scipy module.
    """
    lines = stderr.split(IMPORT_START + "\n", 1)[-1].split(IMPORT_END, 1)[0].splitlines()
    total = 0
    ancestors: list[tuple[int, str]] = []
    for line in reversed(lines):
        if not line.startswith("import time:") or line.endswith("imported package"):
            continue
        _, cumulative, name = line.split("|")
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        parent = ancestors[-1][1] if ancestors else ""
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            total += int(cumulative) * 1000
        ancestors.append((depth, name))
    return total


def _child(order: str, argv: list[str]) -> dict:
    print(IMPORT_START, file=sys.stderr, flush=True)
    start = time.perf_counter_ns()
    import phasebit.cli

    end = time.perf_counter_ns()
    print(IMPORT_END, file=sys.stderr, flush=True)
    expected_src = Path(__file__).resolve().parent.parent / "src" / "phasebit"
    if Path(phasebit.cli.__file__).resolve().parent != expected_src:
        raise SystemExit(f"imported phasebit from {phasebit.cli.__file__}, not {expected_src}")
    tracer = Tracer()
    runs = {}
    for mode in (("untraced", "traced") if order == "untraced-first" else ("traced", "untraced")):
        runs[mode] = run_main(argv, tracer if mode == "traced" else None)
    (code_u, out_u, ns_u), (code_t, out_t, ns_t) = runs["untraced"], runs["traced"]
    return {
        "import_ns": end - start,
        "untraced_ns": ns_u,
        "traced_ns": ns_t,
        "exit_untraced": code_u,
        "exit_traced": code_t,
        "untraced_sha256": hashlib.sha256(out_u.encode()).hexdigest(),
        "stdout": out_t,
        "spans": tracer.spans,
    }


if __name__ == "__main__":
    print(json.dumps(_child(sys.argv[1], sys.argv[2:])))
