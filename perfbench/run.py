"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tpch_olap --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--seconds`` fixes how many operations the
run executes (each workload's nominal rate times the seconds), never how
long it may take.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The run keeps to one CPU and reports host times in reference seconds
(``clock.py``).

The traced run first runs the same workload and seed untraced in a child
process (for ``trace.overhead_frac``), then again with the tracer
installed, and writes its spans to ``perfbench/.out/``.

Determinism guard: every run stores its simulated metrics, a digest of its
result rows, the program's own counters and (traced) its per-layer counts
under ``perfbench/.out/fingerprints``, keyed by workload, seed, length and
a hash of the program's sources.  A later run with the same key must
reproduce them bit for bit, or the benchmark exits with status 3.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")

#: The untraced child of a traced run must end well inside the run's limit.
CHILD_TIMEOUT_SECONDS = 150


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def _source_hash() -> str:
    """Hash of the program and benchmark sources the run executes."""
    digest = hashlib.sha256()
    for top in (os.path.join(SOURCE, "repro"), HERE):
        for directory, subdirectories, files in os.walk(top):
            subdirectories[:] = sorted(d for d in subdirectories if not d.startswith("."))
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _guard(key: str, fingerprint: dict) -> None:
    """Compare with the stored fingerprint of the same key, then merge."""
    directory = os.path.join(OUT, "fingerprints")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, key + ".json")
    stored = {}
    if os.path.exists(path):
        with open(path) as handle:
            stored = json.load(handle)
    for section, values in fingerprint.items():
        earlier = stored.get(section)
        if earlier is not None and earlier != values:
            differing = sorted(
                name
                for name in set(earlier) | set(values)
                if earlier.get(name) != values.get(name)
            )
            print(
                f"determinism guard: {section} differ from an earlier run of {key}: "
                + ", ".join(
                    f"{name} {earlier.get(name)} -> {values.get(name)}" for name in differing[:8]
                ),
                file=sys.stderr,
            )
            raise SystemExit(3)
    stored.update(fingerprint)
    temporary = path + ".tmp"
    with open(temporary, "w") as handle:
        json.dump(stored, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)


def _untraced_qps(args) -> float:
    """``host_qps`` of the same workload and seed, untraced, in a child."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", "0",
    ]
    child = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_SECONDS
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"untraced reference run failed with status {child.returncode}")
    return json.loads(child.stdout.strip().splitlines()[-1])["metrics"]["host_qps"]["value"]


def _pin_to_one_cpu() -> None:
    """Keep every thread on one CPU, the one whose speed the clock probes."""
    if not hasattr(os, "sched_setaffinity"):
        return
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as error:  # measured unpinned, only noisier
        print(f"perfbench: could not pin to one CPU: {error}", file=sys.stderr)


def main(argv=None) -> int:
    args = _arguments(argv)
    if not os.path.isfile(os.path.join(SOURCE, "repro", "__init__.py")):
        print(f"perfbench: program sources not found under {SOURCE}", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    sys.path.insert(0, SOURCE)
    import metrics
    import oracle
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    untraced_qps = _untraced_qps(args) if args.trace else None
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    tracer = Tracer() if args.trace else None
    run = workloads.run(workload, tracer.recording if tracer else contextlib.nullcontext)

    # Outside the timed phase: every read against the oracle.
    answers = workload.answers()
    results = hashlib.sha256()
    mismatches = []
    for entry in run.served:
        if entry.error is not None:
            results.update(entry.error.encode())
            continue
        rows = oracle.canonical_rows(entry.rows)
        results.update(repr(rows).encode())
        problem = oracle.compare(answers[entry.read], rows, entry.read.ordered)
        if problem is not None:
            mismatches.append(f"{entry.read.sql}: {problem}")
    errors = [entry.error for entry in run.served if entry.error is not None]
    failed = len(errors) + len(mismatches) + run.failed_appends
    attempted = len(run.served) + run.appends

    fingerprint = {
        "simulated": {k: repr(v) for k, v in metrics.simulated(run).items()},
        "results": {"sha256": results.hexdigest(), "failed": failed},
        "counters": {k: repr(v) for k, v in sorted(run.counters.items())},
    }
    if tracer is not None:
        values = metrics.per_layer(run, tracer, failed, attempted, untraced_qps)
        fingerprint["per_layer"] = {
            name: repr(value) for name, value in values.items() if name not in metrics.HOST_CLOCK
        }
        catalog = metrics.PER_LAYER
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        values = metrics.end_to_end(run)
        catalog = metrics.END_TO_END
    _guard(
        f"{args.workload}-seed{args.seed}-{args.seconds}s-{_source_hash()[:16]}", fingerprint
    )

    for message in (errors + mismatches)[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed}: {len(run.served)} reads, {run.appends} appends, "
        f"{failed} failed, timed phase {run.timed_seconds:.2f} s wall = "
        f"{run.reference_seconds:.2f} reference s"
    )
    print(
        json.dumps(
            {
                "correct": not mismatches,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalog},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
