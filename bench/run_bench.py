"""phasebit benchmark: end-to-end CLI timings, a correctness gate, and a per-layer trace.

Usage, from the root of a checkout::

    python3 bench/run_bench.py --workload curve-iid --seed 7 --seconds 20 --trace 0

With ``--trace 0`` every measurement is a fresh ``python -m phasebit``
process timed from outside.  For ``--seconds`` seconds the run repeats the
workload's invocations, with a set-up probe (the same invocations at
``--trials 1``) before every set, gates every output (``gate.py``) and
reports:

* ``wall_s``: median wall time of the full invocations, interpreter start
  included (several invocations run one after another and their times add);
* ``setup_s``: median wall time of the set-up probes;
* ``peak_rss_mb``: median over sets of the largest ``ru_maxrss`` of a set;
* ``success_ratio``: invocations that exited 0 with gated output, over those
  attempted (``1 - failed/attempted``).

With ``--trace 1`` each invocation instead runs in ``layer_trace.py``, which
times the imports and splits the in-process time by layer; the medians over
repetitions are the per-layer metrics.

The seed reaches the program only as ``--seed``.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
result file with every sample, quartiles, output digests, ``src_loc`` and the
machine context goes to ``.bench_build/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import gate
import layer_trace
from workloads import WORKLOADS, Invocation, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build"
# Children still running at this point are killed, so a run exits within 180 s.
RUN_LIMIT_S = 170.0

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Self-time metrics and the span names each one sums.  Every span name the
# tracer records is in exactly one of them, so together they split the time
# inside ``cli.main``.
SELF_SPANS = {
    "config.self_s": ("config",),
    "oracle.self_s": ("oracle",),
    "cli.self_s": ("cli",),
    "cli.emit_s": ("cli.emit",),
    "phase.self_s": ("phase", "phase.iid", "phase.oscillator"),
    "signals.dichotomic.self_s": ("signals.dichotomic",),
    "signals.estimate.self_s": ("signals.estimate",),
    "stats.self_s": ("stats",),
    "register.self_s": ("register",),
}
# Import times, which come before the first span.
SETUP_METRICS = ("setup.import_scipy_s", "setup.import_s")


@dataclass(frozen=True)
class Exit:
    code: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kb: int


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


class Spawner:
    """Runs child processes one at a time; each is reaped with ``os.wait4``."""

    def __init__(self, tmp: Path, deadline: float):
        self.out = tmp / "stdout"
        self.err = tmp / "stderr"
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items() if k != "PHASEBIT_SEED"}
        self.env["PYTHONPATH"] = str(SRC)
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, args: list[str]) -> Exit:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise _Timeout
        write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(self.out), write, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(self.err), write, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(args[0], args, self.env, file_actions=actions)
        reaped = False
        signal.setitimer(signal.ITIMER_REAL, remaining)
        try:
            _, status, usage = os.wait4(pid, 0)
            wall = time.perf_counter() - start
            reaped = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        return Exit(
            os.waitstatus_to_exitcode(status),
            self.out.read_bytes(),
            self.err.read_bytes(),
            wall,
            usage.ru_maxrss,
        )

    def phasebit(self, argv: list[str]) -> Exit:
        return self.run([sys.executable, "-m", "phasebit", *argv])


class Tally:
    """Attempted and failed invocations, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}

    def check(self, inv: Invocation, code: int, stdout: bytes, stderr: bytes = b"") -> bool:
        """Gate one full invocation; outputs at one seed must not change."""
        digest = hashlib.sha256(stdout).hexdigest()
        try:
            gate.check_output(inv, code, stdout)
            if self.digests.setdefault(inv.label, digest) != digest:
                raise gate.GateError("stdout differs from an earlier run at this seed")
        except gate.GateError as exc:
            self.reject(inv, f"{exc} {stderr.decode(errors='replace')[-300:]}".rstrip())
            return False
        self.attempted += 1
        return True

    def probe(self, inv: Invocation, result: Exit) -> None:
        """A set-up probe fails only on a nonzero exit."""
        if result.code != 0:
            self.reject(inv, f"--trials 1 exit {result.code}")
        else:
            self.attempted += 1

    def reject(self, inv: Invocation | None, reason: str) -> None:
        self.attempted += 1
        self.errors.append(f"{inv.label}: {reason}" if inv else reason)


def _keep_going(start: float, sets: int, seconds: float) -> bool:
    """True while one more set, at the mean pace so far, fits in ``seconds``."""
    elapsed = time.monotonic() - start
    return elapsed + elapsed / sets <= seconds


def measure(workload: Workload, seed: int, seconds: float, spawner: Spawner, tally: Tally):
    invs = workload.invocations
    # Warm-up, untimed: bytecode compilation and the file cache.
    spawner.phasebit(invs[0].argv(seed, trials=1))
    samples = defaultdict(list)
    start = time.monotonic()
    sets = 0
    while True:
        # A set-up probe before every full set gives setup_s as many samples
        # as wall_s, taken under the same load.
        setup = 0.0
        for inv in invs:
            result = spawner.phasebit(inv.argv(seed, trials=1))
            tally.probe(inv, result)
            setup += result.wall_s
        samples["setup_s"].append(setup)
        wall, rss = 0.0, 0
        for inv in invs:
            result = spawner.phasebit(inv.argv(seed))
            tally.check(inv, result.code, result.stdout, result.stderr)
            wall += result.wall_s
            rss = max(rss, result.maxrss_kb)
        samples["wall_s"].append(wall)
        samples["peak_rss_mb"].append(rss / 1024.0)
        sets += 1
        if not _keep_going(start, sets, seconds):
            break
    samples["success_ratio"].append(1.0 - len(tally.errors) / tally.attempted)
    return samples, None


def layer_metrics(children: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one repetition, summed over the workload's invocations."""
    agg: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for child in children:
        for name, entry in layer_trace.totals(child["spans"]).items():
            for key, value in entry.items():
                agg[name][key] += value

    def per(name, count_key):
        count = agg[name][count_key]
        return agg[name]["self_ns"] / count if count else 0.0

    def child_sum(key):
        return sum(c[key] for c in children) / 1e9

    attempted = agg["register"]["attempted"]
    return {
        **{
            name: sum(agg[span]["self_ns"] for span in spans) / 1e9
            for name, spans in SELF_SPANS.items()
        },
        "setup.import_scipy_s": child_sum("import_scipy_ns"),
        "setup.import_s": child_sum("import_ns") - child_sum("import_scipy_ns"),
        "oracle.calls": agg["oracle"]["calls"],
        "cli.bytes_out": sum(len(c["stdout"].encode()) for c in children),
        "phase.samples": agg["phase.iid"]["samples"] + agg["phase.oscillator"]["samples"],
        "phase.iid.ns_per_sample": per("phase.iid", "samples"),
        "phase.oscillator.ns_per_sample": per("phase.oscillator", "samples"),
        "signals.evals": agg["signals.dichotomic"]["evals"],
        "signals.ns_per_eval": per("signals.dichotomic", "evals"),
        "signals.reduce_ns_per_trial": per("signals.estimate", "trials"),
        "register.records": agg["register"]["records"],
        "register.accept_ratio": agg["register"]["records"] / attempted if attempted else 0.0,
        "register.ns_per_trial": per("register", "attempted"),
        "trace.overhead_s": child_sum("traced_ns") - child_sum("untraced_ns"),
    }


def trace(workload: Workload, seed: int, seconds: float, spawner: Spawner, tally: Tally):
    invs = workload.invocations
    spawner.phasebit(invs[0].argv(seed, trials=1))
    samples = defaultdict(list)
    spans = {}
    start = time.monotonic()
    reps = 0
    while True:
        # Alternate which in-process run goes first so warm-up cancels out.
        order = "untraced-first" if reps % 2 == 0 else "traced-first"
        children = []
        for inv in invs:
            result = spawner.run([
                sys.executable, "-X", "importtime", str(HERE / "layer_trace.py"),
                order, *inv.argv(seed),
            ])
            if result.code != 0:
                tally.reject(inv, f"trace child exit {result.code}: "
                             + result.stderr.decode(errors="replace")[-300:])
                continue
            child = json.loads(result.stdout)
            child["import_scipy_ns"] = layer_trace.scipy_import_ns(result.stderr.decode())
            out = child["stdout"].encode()
            if child["exit_untraced"] != 0 or hashlib.sha256(out).hexdigest() != child["untraced_sha256"]:
                tally.reject(inv, "traced and untraced output differ")
                continue
            if tally.check(inv, child["exit_traced"], out):
                children.append(child)
                spans[inv.label] = child["spans"]
        reps += 1
        if len(children) == len(invs):
            for name, value in layer_metrics(children).items():
                samples[name].append(value)
        if not _keep_going(start, reps, seconds):
            break
    return samples, spans


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "value": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "samples": values,
    }


def top_layer(metrics: dict[str, dict]) -> str:
    """The layer (or import step) with the largest self time."""
    shares = defaultdict(float)
    for name in SELF_SPANS:
        shares[name.split(".")[0]] += metrics[name]["value"]
    for name in SETUP_METRICS:
        shares[name] = metrics[name]["value"]
    return max(shares, key=shares.get)


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "platform": platform.platform(),
        **versions,
    }


def src_loc() -> int:
    return sum(
        len(path.read_bytes().splitlines()) for path in sorted((SRC / "phasebit").rglob("*.py"))
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "phasebit" / "__init__.py").is_file():
        print(f"bench: no phasebit sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("bench: --seed must be in 0 .. 2**64-1", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT_DIR.mkdir(exist_ok=True)
    tally = Tally()
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        spawner = Spawner(Path(tmp), deadline)
        run = trace if args.trace else measure
        try:
            samples, spans = run(workload, args.seed, args.seconds, spawner, tally)
        except _Timeout:
            samples, spans = {}, None
            tally.reject(None, f"run exceeded {RUN_LIMIT_S:.0f} s")

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {**summarize(samples[name]), "unit": unit}
               for name, unit in units.items() if samples.get(name)}
    correct = not tally.errors and len(metrics) == len(units)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "machine": machine(),
        "src_loc": src_loc(),
        "stdout_sha256": tally.digests,
        "invocations": [" ".join(inv.argv(args.seed)) for inv in workload.invocations],
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "errors": tally.errors,
        "metrics": metrics,
    }
    if args.trace and correct:
        report["top_layer"] = top_layer(metrics)
        report["spans"] = spans
    results = OUT_DIR / "results"
    results.mkdir(exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  traced {args.trace}  "
          f"src_loc {report['src_loc']}  nproc {report['machine']['nproc']}")
    for name, m in metrics.items():
        print(f"  {name:32} {m['value']:.6g} {m['unit']}  "
              f"(median of {m['n']}; q1 {m['q1']:.6g}, q3 {m['q3']:.6g}; spread {m['spread']:.1%})")
    if "top_layer" in report:
        print(f"  largest self time: {report['top_layer']}")
    for label, digest in tally.digests.items():
        print(f"  sha256 {digest[:16]}  {label}")
    for error in tally.errors:
        print(f"  FAILED {error}")
    print(f"  result file {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
