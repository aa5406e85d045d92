"""Smoke check of the benchmark itself: every workload at minimum size.

    python3 perfbench/smoke.py

For each workload it runs run.py untraced and traced with --seconds 1 and
asserts that
- the run exits 0, is correct, and prints exactly the metrics BENCHMARK.json
  names, each with its unit and a non-null value;
- in the traced run, the self times of all spans add up to the traced wall
  time within the measured trace overhead;
- the traced run confirms what the workload is for (guidance share on
  predict-guided-maze, no guidance and a forward-dominated predict on
  predict-unguided-open, backward and Adam but no guidance on train-default).
Finally it runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result. Exits 1 on the
first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 0


def run(args: list, cwd: Path = ROOT) -> tuple[int, list]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    if proc.returncode != 0 and proc.stderr:
        print(proc.stderr.strip()[-2000:], file=sys.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok    {what}")


def metric(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def check_purpose(workload: str, result: dict) -> None:
    predict_s = metric(result, "pipeline.predict_s")
    if workload == "predict-guided-maze":
        check(metric(result, "mapguide.guidance_s") >= predict_s / 6,
              f"{workload}: guidance is at least 1/6 of predict time")
    elif workload == "predict-unguided-open":
        check(metric(result, "mapguide.guidance_calls") == 0,
              f"{workload}: guidance never runs")
        check(metric(result, "denoiser.forward_s") >= 0.9 * predict_s,
              f"{workload}: denoiser forward is at least 90% of predict time")
    else:
        check(metric(result, "denoiser.backward_s") > 0 and metric(result, "denoiser.adam_s") > 0,
              f"{workload}: backward and Adam run")
        check(metric(result, "mapguide.guidance_calls") == 0, f"{workload}: guidance never runs")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                               "--trace", str(trace)])
            label = f"{workload} trace={trace}"
            check(code == 0, f"{label}: exit code 0")
            result = json.loads(lines[-1])
            report = json.loads(lines[-2])["report"]
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: correct, {result['attempted']} attempted, none failed")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{label}: every {key} metric printed with its unit")
            nulls = [k for k, v in result["metrics"].items() if v["value"] is None]
            check(not nulls, f"{label}: no null metric {nulls}")
            if trace:
                overhead = (abs(metric(result, "trace_overhead")) * report["units_per_op"]
                            * report["traced_ops"])
                gap = abs(report["self_time_sum_s"] - report["traced_wall_s"])
                check(gap <= overhead,
                      f"{label}: self times sum to traced wall within trace overhead "
                      f"({gap:.2e} s <= {overhead:.2e} s)")
                check_purpose(workload, result)

    with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
        code, lines = run(["--workload", spec["workloads"][0]["name"], "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare)
        check(code != 0 and not lines, "without the package: non-zero exit and no result")
    print("smoke check passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as exc:
        print(f"FAIL  {exc}", file=sys.stderr)
        sys.exit(1)
