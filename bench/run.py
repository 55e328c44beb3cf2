"""bitextverify benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` and
the CLI is run as ``python -m bitextverify.cli``. Workloads (see
BENCHMARK.json for why each was chosen):

    filter-serial      filter --jobs 1 on a labelled TSV of full sentences
    filter-pool-short  filter --format aligned --jobs N on many short pairs
    train-codec        train on a priming file, then a coder round trip

With ``--trace 0`` the program runs as subprocesses, timed from outside, in
rounds until S seconds have passed: each round runs a benchmark-owned probe
loop before the one-unit input and again before the full batch. A shared
machine switches between a fast and a slow state within seconds, and the
share of time it spends in the slow one drifts over minutes, by up to a
quarter between sets of runs of the same code. Two things keep the figures
steady against that. The slow-state figures vary less between runs than
medians do, so ``setup_s`` starts from the third quartile of the one-unit
wall times and ``throughput_per_s`` from the first quartile of the rounds'
rates, in work units per second of the full batch (see ``step_units`` in
workloads.py). And both are scaled to a machine on which the probe takes
REFERENCE_PROBE_S, by the run's median probe time; the probe is the
benchmark's own code, so a change to the program moves these figures in
full. The unscaled figures are kept in the run record.

Every output is checked against a reference computed in this process,
outside the timed region; identical batches are checked by digest. With
``--trace 1`` the workload runs in this process through ``cli.main`` at
``--jobs 1``, once plain and once with span wrappers, followed by kernel
replay loops (see spans.py).

The last line of stdout is the result as JSON. A record of the run (rounds,
probe timings, CPU seconds, digests, spans) goes to stderr and to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PINNED = Path(__file__).resolve().parent / "pinned.json"
PINNED_SEED = 0  # outputs for this seed must match pinned.json byte for byte
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150

REFERENCE_PROBE_S = 0.040  # scaled figures are for a machine where probe_s() takes this

clock = time.perf_counter


def probe_s() -> float:
    """A fixed pure-Python loop; its time shows how fast the machine runs now."""
    t = clock()
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return clock() - t


def _alarm(signum, frame):
    raise TimeoutError(f"command ran longer than {CHILD_TIMEOUT_S} s")


def run_child(argv: list[str], env: dict, log) -> tuple[float, float, float, int]:
    """Run one command; returns wall s, CPU s, peak RSS MB of its largest
    process (its own or a reaped child's, as wait4 reports), and exit code.

    The command gets its own process group, so a hung one is killed together
    with any pool workers it started.
    """
    t = clock()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=log, stderr=log, start_new_session=True)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except TimeoutError:
        os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
    wall = clock() - t
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode


class Verifier:
    """Checks outputs; an output byte-identical to one that passed is not re-checked."""

    def __init__(self, wl, seed: int):
        self.wl = wl
        self.good: dict[str, str] = {}
        self.pinned = {}
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        if seed == PINNED_SEED:
            self.pinned = json.loads(PINNED.read_text())[wl.name]
            scores = getattr(wl, "scores_digest", None)
            if scores is not None and scores != self.pinned["scores"]:
                self.failures.append("reference scores of the full input differ from pinned.json")
                self.failed += 1
        self.digests: dict[str, str] = {}

    def verify(self, size: str, out: Path, exit_code: int = 0) -> None:
        import check

        items = self.wl.items(size)
        self.attempted += items
        if exit_code != 0:
            failures = [f"{size}: exit code {exit_code}"]
            self.failed += items
        else:
            d = check.digest(out)
            self.digests[size] = d
            if self.good.get(size) == d:
                return
            failures = self.wl.check(size, out)
            if size in self.pinned and d != self.pinned[size]:
                failures.append(f"{size}: outputs differ from pinned.json")
            if not failures:
                self.good[size] = d
            self.failed += min(items, len(failures))
        self.failures += failures[:20]


def untraced(wl, work: Path, seconds: float, verifier: Verifier, env: dict,
             units: dict) -> tuple[dict, dict]:
    from workloads import command

    rounds = []
    setups = []
    log_path = work / "children.log"
    deadline = clock() + seconds
    with open(log_path, "w") as log:

        def batch(size: str) -> dict:
            out = work / f"out-{size}"
            out.mkdir()
            walls, cpu, rss, code = [], 0.0, 0.0, 0
            for step in wl.steps(work, size, out):
                w, c, r, code = run_child(command(step), env, log)
                walls.append(w)
                cpu, rss = cpu + c, max(rss, r)
                if code:
                    break
            verifier.verify(size, out, code)
            shutil.rmtree(out)
            return {"wall_s": sum(walls), "step_wall_s": walls, "cpu_s": cpu, "rss_mb": rss}

        while len(rounds) < MIN_ROUNDS or clock() < deadline:
            setups.append({"probe_s": probe_s(), **batch("unit")})
            rounds.append({"probe_s": probe_s(), **batch("full")})
    step_units = wl.step_units("full")
    raw = {
        "setup_s": statistics.quantiles([s["wall_s"] for s in setups], n=4)[2],
        "throughput_per_s": statistics.quantiles(
            [sum(step_units) / r["wall_s"] for r in rounds], n=4)[0],
    }
    # how much slower than the reference the machine ran: > 1 when slower
    slowness = statistics.median(r["probe_s"] for r in rounds + setups) / REFERENCE_PROBE_S
    values = {
        "setup_s": raw["setup_s"] / slowness,
        "throughput_per_s": raw["throughput_per_s"] * slowness,
        "peak_rss_mb": max(r["rss_mb"] for r in rounds + setups),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    # per-step rates: characters/s for filter; training and round-trip symbols/s for train-codec
    step_rates = [statistics.median(n / r["step_wall_s"][i] for r in rounds)
                  for i, n in enumerate(step_units)]
    return metrics, {"rounds": rounds, "setup_runs": setups, "step_per_s": step_rates,
                     "unscaled": raw, "slowness": slowness}


def run_in_process(wl, work: Path, out: Path) -> int:
    """Run the workload's full batch in this process at --jobs 1."""
    import codec_job
    from bitextverify import cli

    out.mkdir()
    with contextlib.redirect_stdout(sys.stderr):
        for kind, args in wl.steps(work, "full", out, jobs=1):
            code = cli.main(args) if kind == "cli" else codec_job.main(*args)
            if code:
                return code
    return 0


def layer_metrics(wl, tracer, out: Path, verifier: Verifier) -> dict[str, float]:
    import spans

    totals = tracer.totals()

    def total(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def rate(name):
        wall = total(name, "wall_s")
        return total(name, "count") / wall if wall else 0.0

    m = {
        "ppm.train.symbols_per_s": rate("ppm.train"),
        "corpus.load.rows_per_s": rate("corpus.load_corpus"),
        "corpus.score_pairs.self_s": total("corpus.score_pairs", "self_s"),
        "corpus.filter_corpus.self_s": total("corpus.filter_corpus", "self_s"),
        "metrics.score_pair.self_s": total("metrics.score_pair", "self_s"),
        "cli.filter.self_s": total("cli.filter", "self_s"),
        "cli.train.self_s": total("cli.train", "self_s"),
        "corpus.pool.bytes": 0,
        "metrics.invalid_share": 0.0,
    }
    if "score_pairs" in tracer.captured:
        (pairs, *_), results = tracer.captured["score_pairs"]
        m["corpus.pool.bytes"] = len(pickle.dumps(list(pairs))) + len(pickle.dumps(results))
    report = out / "report.json"
    if report.exists():
        counts = json.loads(report.read_text(encoding="utf-8"))["counts"]
        m["metrics.invalid_share"] = counts["invalid"] / counts["total"]

    # the first replay set is the Arabic side
    replays = [spans.replay(*rs) | spans.model_io(rs[0]) for rs in wl.replay_sets()]
    pooled = {key: sum(r[key] for r in replays) for key in replays[0]}
    pooled["overhead_bits_max"] = max(r["overhead_bits_max"] for r in replays)
    arabic = replays[0]
    sym = pooled["symbols"]
    mb = pooled["bytes"] / 1e6
    m.update({
        "coder.ideal_bits_adapt.symbols_per_s": sym / pooled["adapt_s"],
        "coder.ideal_bits_static.symbols_per_s": sym / pooled["static_s"],
        "ppm.overlay_update.symbols_per_s": sym / pooled["overlay_s"],
        "coder.encode.symbols_per_s": sym / pooled["encode_s"],
        "coder.decode.symbols_per_s": sym / pooled["decode_s"],
        "coder.overhead_bits.max": pooled["overhead_bits_max"],
        "ppm.config_hash.s": pooled["hash_s"],
        "ppm.loads.mb_per_s": mb / pooled["loads_s"],
        "ppm.dumps.mb_per_s": mb / pooled["dumps_s"],
        "ppm.contexts": pooled["contexts"],
        "preprocess.prepare.chars_per_s": pooled["chars"] / pooled["prepare_s"],
        "preprocess.bytes_per_char": arabic["symbols"] / arabic["chars"],
    })
    if pooled["roundtrip_failures"]:
        verifier.failures.append(f"replay: {pooled['roundtrip_failures']} texts did not round-trip")
    return m


def traced(wl, work: Path, seconds: float, verifier: Verifier, units: dict) -> tuple[dict, dict]:
    import spans

    rounds = []
    all_spans = []
    deadline = clock() + seconds
    while not rounds or clock() < deadline:
        probe = probe_s()
        plain_out = work / "plain"
        t = clock()
        code = run_in_process(wl, work, plain_out)
        plain_s = clock() - t
        verifier.verify("full", plain_out, code)
        shutil.rmtree(plain_out)

        tracer = spans.Tracer()
        traced_out = work / "traced"
        with spans.traced(tracer):
            t = clock()
            code = run_in_process(wl, work, traced_out)
            traced_s = clock() - t
        verifier.verify("full", traced_out, code)
        m = layer_metrics(wl, tracer, traced_out, verifier)
        shutil.rmtree(traced_out)
        m["bench.trace_overhead_s"] = traced_s - plain_s
        rounds.append({"probe_s": probe, "plain_s": plain_s, "traced_s": traced_s, "layers": m,
                       "span_totals": tracer.totals()})
        all_spans = tracer.spans
    metrics = {
        name: {"value": statistics.median(r["layers"][name] for r in rounds), "unit": unit}
        for name, unit in units.items()
    }
    return metrics, {"rounds": rounds, "spans": all_spans}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bitextverify" / "__init__.py").is_file():
        print(f"bench: no bitextverify package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    started = clock()
    cpu0 = os.times()
    try:
        wl = workloads.make(args.workload)
        wl.prepare(work, args.seed)
        verifier = Verifier(wl, args.seed)
        if args.trace:
            metrics, record = traced(wl, work, args.seconds, verifier, units)
        else:
            metrics, record = untraced(wl, work, args.seconds, verifier, env, units)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    cpu1 = os.times()
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "wall_s": clock() - started,
        "cpu_s": {"self": cpu1.user + cpu1.system - cpu0.user - cpu0.system,
                  "children": (cpu1.children_user + cpu1.children_system
                               - cpu0.children_user - cpu0.children_system)},
        "probe_s_median": statistics.median(
            r["probe_s"] for r in record["rounds"] + record.get("setup_runs", [])),
        "attempted": verifier.attempted, "failed": verifier.failed,
        "error_rate": verifier.failed / verifier.attempted,
        "failures": verifier.failures, "digests": verifier.digests, "metrics": metrics,
    })
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    summary = {k: v for k, v in record.items() if k not in ("rounds", "spans", "setup_runs")}
    print(json.dumps(summary), file=sys.stderr)
    print(json.dumps({
        "correct": not verifier.failures,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
