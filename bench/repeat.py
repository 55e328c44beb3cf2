"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/repeat.py [--runs 10] [--first-seed 1] [--workloads a,b] [--trace 0]

Workloads are interleaved (seed 1 of every workload, then seed 2, ...), so a
slow stretch of a shared machine lands on all of them rather than on one. Each
run's line ends with its median probe time (see run.py), so such a stretch
shows up as such. For each workload and metric it prints the median and the
quartile spread, (Q3 - Q1) / median with quartiles from
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in workloads:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().split("\n")[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)
                return 1
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            # the run's summary is the last line of stderr; its probe shows slow stretches
            probe = json.loads(proc.stderr.strip().split("\n")[-1])["probe_s_median"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                + f", probe_ms={1000 * probe:.1f}", flush=True)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"\n{'workload':<20}{'metric':<40}{'median':>14}{'spread':>9}{'bound':>7}")
    for workload, metrics in values.items():
        for name, vals in metrics.items():
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) > 1 and med else 0.0
            bound = bounds.get(name)
            print(f"{workload:<20}{name:<40}{med:>14.6g}{sp:>9.3f}"
                  f"{'' if bound is None else f'{bound:>7}'}")
    out = Path(".bench_out") / f"repeat-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(values, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
