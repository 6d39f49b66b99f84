"""mapcalc benchmark: closed-loop suite passes through ``mapcalc.cli.run_suite``.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: each pass starts when the previous one
has finished, and passes repeat until the next one would overrun
``--seconds`` (at least one pass runs).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` runs untraced passes for half the time,
then one pass under the outside tracer, and reports the per-layer metrics.

Every pass must write report bytes identical to the first pass, and only
the workload's known baseline failures may fail.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted`` (passes),
``failed`` (passes that raised, exited with an error code or wrote other
bytes) and ``metrics``.  Per-pass details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import (
    SRC,
    WORKLOADS,
    SourceMissing,
    pin_environment,
    prepare,
    use_source_tree,
)

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
# files whose content is wall-clock time, so they differ between passes
UNTIMED_FILES = {"metadata.json"}


@dataclass
class Pass:
    seconds: float
    outputs: dict[str, bytes] = field(default_factory=dict)
    checks: list[dict] = field(default_factory=list)
    error: str | None = None


def run_pass(config, suites, out_dir: Path) -> Pass:
    from mapcalc.cli import run_suite

    shutil.rmtree(out_dir, ignore_errors=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            codes = [run_suite(config, suite, out_dir / suite) for suite in suites]
            seconds = time.perf_counter() - start
    except Exception:  # a crashing pass is counted as failed, not fatal
        return Pass(float("nan"), error=traceback.format_exc())
    outputs = {
        path.relative_to(out_dir).as_posix(): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and path.name not in UNTIMED_FILES
    }
    result = Pass(seconds, outputs)
    for suite, code in zip(suites, codes):
        raw = outputs.get(f"{suite}/report.json")
        report = json.loads(raw) if raw is not None else None
        if report is None or code != (0 if report["all_pass"] else 1):
            result.error = f"suite {suite} exited with code {code}"
            return result
        result.checks += report["checks"]
    return result


def run_passes(config, suites, seconds: float, out_dir: Path) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(config, suites, out_dir))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


@dataclass
class Verdict:
    failed_passes: int = 0
    checks: int = 0
    failed_checks: int = 0
    failing: dict[str, float | None] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def judge(passes: list[Pass], reference: dict[str, bytes], known: frozenset) -> Verdict:
    """Gate every pass against the reference bytes and the known failures."""
    verdict = Verdict()
    for i, p in enumerate(passes):
        if p.error is not None:
            verdict.failed_passes += 1
            verdict.problems.append(f"pass {i}: {p.error}")
            continue
        if p.outputs != reference:
            differ = sorted(set(p.outputs) ^ set(reference)) + sorted(
                k for k in set(p.outputs) & set(reference) if p.outputs[k] != reference[k]
            )
            verdict.failed_passes += 1
            verdict.problems.append(f"pass {i}: output bytes differ in {differ}")
        for row in p.checks:
            verdict.checks += 1
            if not row["pass"]:
                verdict.failed_checks += 1
                verdict.failing[row["check"]] = row["residual"]
    unexpected = sorted(set(verdict.failing) - known)
    if unexpected:
        verdict.problems.append(f"checks failing beyond the known baseline: {unexpected}")
    return verdict


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter until it could start a pass."""
    samples = []
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        samples.append(elapsed)
    return samples


def metadata() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "env": {k: os.environ[k] for k in sorted(os.environ) if k.endswith("THREADS")},
    }


def end_to_end(args, config, suites, out_dir):
    known = WORKLOADS[args.workload].known_failures
    setup = measure_setup(args.workload, args.seed)
    passes = run_passes(config, suites, args.seconds, out_dir)
    reference = next((p.outputs for p in passes if p.error is None), {})
    verdict = judge(passes, reference, known)
    times = [p.seconds for p in passes if p.error is None]
    fail_frac = verdict.failed_checks / verdict.checks if verdict.checks else 1.0
    values = {
        "setup_s": statistics.median(setup),
        "suite_s": statistics.median(times) if times else float("nan"),
        "pass_frac": 1.0 - fail_frac,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_samples_s": setup,
        "pass_seconds": [p.seconds for p in passes],
        "fail_frac": fail_frac,
        "checks_attempted": verdict.checks,
        "checks_failed": verdict.failed_checks,
        "failing_checks": verdict.failing,
        "known_failures": sorted(known),
    }
    print(f"passes {len(passes)}: " + " ".join(f"{t:.3f}" for t in details["pass_seconds"]) + " s")
    print(f"fail_frac {fail_frac:.6g} ratio ({verdict.failed_checks}/{verdict.checks} checks; "
          f"failing {sorted(verdict.failing) or 'none'})")
    return passes, verdict, values, details, END_TO_END


def per_layer(args, config, suites, out_dir):
    from tracer import Tracer

    known = WORKLOADS[args.workload].known_failures
    untraced = run_passes(config, suites, args.seconds / 2, out_dir)
    tracer = Tracer()
    with tracer:
        traced = run_pass(config, suites, out_dir)
    passes = untraced + [traced]
    reference = next((p.outputs for p in untraced if p.error is None), {})
    verdict = judge(passes, reference, known)
    if not tracer.restored():
        verdict.problems.append("the tracer left a function rebound")
    times = [p.seconds for p in untraced if p.error is None]
    overhead = traced.seconds - statistics.median(times) if times else float("nan")
    values = tracer.layer_metrics(overhead)
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.csv"
    tracer.write_spans(spans_file)
    details = {
        "untraced_seconds": [p.seconds for p in untraced],
        "traced_seconds": traced.seconds,
        "spans": len(tracer.spans),
        "spans_file": spans_file.name,
    }
    print(f"traced pass {traced.seconds:.3f} s, {len(tracer.spans)} spans -> {spans_file}")
    return passes, verdict, values, details, PER_LAYER


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")

    pin_environment()
    try:
        use_source_tree()
    except SourceMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    config = prepare(args.workload, args.seed)
    suites = WORKLOADS[args.workload].suites
    OUT.mkdir(exist_ok=True)
    out_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    measure = per_layer if args.trace else end_to_end
    passes, verdict, values, details, spec = measure(args, config, suites, out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)

    for name, unit, *_ in spec:
        if not args.trace:
            print(f"{name} {values[name]:.6g} {unit}")
    for problem in verdict.problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not verdict.problems,
        "problems": verdict.problems,
        "metadata": metadata(),
        **details,
        "metrics": values,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )
    result = {
        "correct": not verdict.problems,
        "attempted": len(passes),
        "failed": verdict.failed_passes,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, *_ in spec},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
