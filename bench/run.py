"""Benchmark of the traffictag program, one workload per process.

    python3 bench/run.py --workload train-crf --seed 1 --seconds 50 --trace 0

Run from the root of a checkout. With ``--trace 0`` the run measures every
end-to-end metric with tracing off; with ``--trace 1`` it runs one untraced
and one traced round of the same operations and reports per-layer metrics
derived from the spans, which it also writes to
``.bench_out/trace-<workload>-seed<seed>.json``. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).
"""

from __future__ import annotations

import os

# one closed-loop caller on one core: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent

# tolerated share of a traced training step not covered by layer spans
UNATTRIBUTED_MAX_PCT = 5.0


def _metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Metric name -> unit for (end-to-end, per-layer), as BENCHMARK.json lists them."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


def run_traced(run, workloads, tracer_mod) -> dict[str, float]:
    """Per-layer metrics from one traced round, after one untraced round."""
    untraced_s = workloads.run_round(run)
    run.final_checks()
    tracer = tracer_mod.Tracer()
    tracer.install()
    run.untimed = tracer.paused
    tracer.enabled = True
    try:
        traced_s = workloads.run_round(run)
    finally:
        tracer.enabled = False
        tracer.uninstall()
    out = tracer.layer_metrics()
    # a wall-clock ratio of two rounds swings by +-20% on a shared machine,
    # so the overhead is the spans' calibrated cost against the traced work
    overhead_s = tracer.overhead_seconds(*tracer.calibrate())
    program_s = traced_s - tracer.probe_seconds() - overhead_s
    out["trace.overhead_pct"] = 100.0 * overhead_s / program_s
    coverage = tracer.step_coverage()
    unattributed = 100.0 * (1.0 - coverage[1] / coverage[0]) if coverage else 100.0
    out["trace.unattributed_pct"] = unattributed
    run.check("trace.step_covered_by_layers", unattributed <= UNATTRIBUTED_MAX_PCT,
              f"{unattributed:.2f}% of traced training time outside layer spans")
    path = ROOT / ".bench_out" / f"trace-{run.w.name}-seed{run.seed}.json"
    tracer.write(path, {"workload": run.w.name, "seed": run.seed,
                        "untraced_round_s": untraced_s, "traced_round_s": traced_s,
                        "probe_s": tracer.probe_seconds(), "overhead_s": overhead_s})
    for name, value in sorted(out.items()):
        print(f"  {name:34s} {value:14.6f}", file=sys.stderr)
    print(f"spans written to {path}", file=sys.stderr)
    if tracer.absent:
        print(f"absent from the program: {', '.join(tracer.absent)}", file=sys.stderr)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="toy sizes, for the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "traffictag").is_dir():
        print(f"no traffictag sources under {ROOT / 'src'}: run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = workloads.WORKLOADS[args.workload]
    if args.toy:
        workload = workloads.toy(workload)
    end_to_end, per_layer = _metric_units()

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        run = workloads.Run(workload, args.seed, workdir, once=bool(args.trace))
        if args.trace:
            values, units = run_traced(run, workloads, tracer_mod), per_layer
        else:
            values, units = workloads.run_untraced(run, args.seconds), end_to_end
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
