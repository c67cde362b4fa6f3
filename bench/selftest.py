"""Self-test of the benchmark at toy size; takes well under a minute.

    python3 bench/selftest.py

From the root of a checkout, runs every workload at toy size, untraced and
traced, each in its own process as the real benchmark does, and requires:
exit code 0, every check passed, every metric of BENCHMARK.json present with
its unit, and no traced name absent from the program. It then runs the
benchmark in a directory holding only BENCHMARK.json and bench/, where it
must fail without printing a result. At toy size a model learns too little
for the trained-beats-initialization check, so that one check is left out.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_run(workload: str, trace: int) -> list[str]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "2",
                 "--trace", str(trace), "--toy")
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} failed={result['failed']}\n"
                        f"{proc.stderr[-2000:]}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{label}: metric {metric['name']} is {got}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append(f"{label}: unexpected metrics {sorted(result['metrics'])}")
    if "absent from the program" in proc.stderr:
        problems.append(f"{label}: {proc.stderr.splitlines()[-1]}")
    return problems


def check_without_program() -> list[str]:
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{BENCH.name}/run.py", "--workload", "train-crf", "--seed", "1",
             "--seconds", "2", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without the program: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    problems = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            found = check_run(workload, trace)
            print(f"{'ok  ' if not found else 'FAIL'} {workload} --trace {trace}")
            problems += found
    found = check_without_program()
    print(f"{'ok  ' if not found else 'FAIL'} refuses to run without the program")
    problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
