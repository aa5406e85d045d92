"""Benchmark entry point.

    python3 perfbench/run.py --workload predict-guided-maze --seed 1 --seconds 25 --trace 0

Run from the repository root. The package is imported from ./src, the
frozen inputs from perfbench/inputs (their digests are checked first). The
last line of stdout is the result: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics for --trace 0 and the per-layer
metrics for --trace 1. The line before it is a report with the environment
record, the output checks and the details behind the metrics. A traced run
also writes its spans to perfbench/.out/.

Exit codes: 0 with a result, 2 for usage errors, 3 when the inputs or the
package are missing or altered (no result is printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The keys of workloads.WORKLOADS, repeated here because importing that module
# imports numpy, which must wait for pin_blas_threads().
WORKLOAD_NAMES = ("predict-guided-maze", "predict-unguided-open", "train-default")


# One BLAS thread. The GEMMs here are small (at most 32 x 20 rows and 128
# channels); on a shared 2-core machine a second OpenBLAS thread made training
# throughput swing threefold between runs when the other core was busy.
BLAS_THREADS = "1"


def pin_blas_threads() -> None:
    """Must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def check_inputs() -> str | None:
    """None when every frozen input matches MANIFEST.json, else what differs."""
    inputs = HERE / "inputs"
    try:
        manifest = json.loads((inputs / "MANIFEST.json").read_text())
    except (OSError, ValueError) as exc:
        return f"cannot read the input manifest: {exc}"
    present = {str(p.relative_to(inputs)) for p in inputs.rglob("*")
               if p.is_file() and p.name != "MANIFEST.json"}
    if present != set(manifest):
        return f"input files differ from the manifest: {sorted(present ^ set(manifest))[:5]}"
    for rel, digest in manifest.items():
        if hashlib.sha256((inputs / rel).read_bytes()).hexdigest() != digest:
            return f"digest mismatch for {rel}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    problem = check_inputs()
    if problem is None and not (ROOT / "src" / "trajdiffuse" / "__init__.py").is_file():
        problem = f"package sources not found under {ROOT / 'src'}"
    if problem is not None:
        print(f"perfbench: {problem}; refusing to measure", file=sys.stderr)
        return 3

    pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import envinfo
    import report
    import tracer as tracing
    from workloads import Run

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = Run(args.workload, args.seed, args.seconds, tracer)
    out = run.execute()

    if tracer is None:
        if not tracing.is_pristine():
            out.fail("untraced run", "library functions were found wrapped")
        metrics, details = report.end_to_end(out)
    else:
        tracer.activate(False)
        metrics, details = report.per_layer(args.workload, out, tracer)
        trace_dir = HERE / ".out"
        trace_dir.mkdir(exist_ok=True)
        trace_file = trace_dir / f"{args.workload}-seed{args.seed}.trace.json.gz"
        tracer.write(trace_file)
        details["trace_file"] = str(trace_file.relative_to(ROOT))

    correct = out.failed == 0 and all(v for v in out.checks.values())
    print(json.dumps({"report": {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": envinfo.record(ROOT, args.seed),
        "checks": out.checks, "errors": out.errors, **details,
    }}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
