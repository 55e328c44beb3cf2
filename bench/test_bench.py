"""Self-tests for the benchmark. From the repo root:

    PYTHONPATH=src python -m pytest bench
"""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import check  # noqa: E402
import codec_job  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bitextverify import cli  # noqa: E402


def _small(name):
    if name == "train-codec":
        return workloads.TrainCodecWorkload(n_priming=40, n_sentences=4)
    aligned = name == "filter-pool-short"
    return workloads.FilterWorkload(name, aligned=aligned, jobs=2 if aligned else 1, n_pairs=60)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run(wl, work: Path, size: str = "full") -> Path:
    out = work / "out"
    out.mkdir()
    for kind, args in wl.steps(work, size, out, jobs=1):
        assert (cli.main(args) if kind == "cli" else codec_job.main(*args)) == 0
    return out


def test_generator_is_deterministic(tmp_path):
    for name in workloads.WORKLOADS:
        dirs = [tmp_path / f"{name}-{i}" for i in range(3)]
        for directory, seed in zip(dirs, (5, 5, 6)):
            directory.mkdir()
            _small(name).prepare(directory, seed)
        assert _files(dirs[0]) == _files(dirs[1]), name
        assert _files(dirs[0]) != _files(dirs[2]), name


def test_short_corpus_reaches_every_output(tmp_path):
    wl = workloads.FilterWorkload("filter-pool-short", aligned=True, jobs=2, n_pairs=400)
    wl.prepare(tmp_path, 0)
    assert {"accepted", "rejected", "invalid"} <= set(wl.expected["full"])


def test_checker_flags_a_misplaced_pair(tmp_path):
    wl = _small("filter-serial")
    wl.prepare(tmp_path, 3)
    out = _run(wl, tmp_path)
    assert wl.check("full", out) == []

    # Move the first accepted row into rejected.tsv at its input position and
    # keep report.json consistent, so only the placement is wrong.
    accepted = (out / "accepted.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    rejected = (out / "rejected.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    moved = accepted.pop(0)
    order = {row[0]: i for i, row in enumerate(wl.rows["full"])}
    rejected = sorted(rejected + [moved], key=lambda line: order[line.split("\t")[0]])
    (out / "accepted.tsv").write_text("".join(accepted), encoding="utf-8")
    (out / "rejected.tsv").write_text("".join(rejected), encoding="utf-8")
    report = (out / "report.json").read_text(encoding="utf-8")
    report = report.replace(f'"accepted": {len(accepted) + 1},', f'"accepted": {len(accepted)},')
    report = report.replace(f'"rejected": {len(rejected) - 1},', f'"rejected": {len(rejected)},')
    (out / "report.json").write_text(report, encoding="utf-8")

    failures = wl.check("full", out)
    moved_id = moved.split("\t")[0]
    assert failures == [f"id {moved_id!r}: placed in ['rejected'], reference says accepted"]


def test_checker_flags_a_corrupted_payload(tmp_path):
    wl = _small("train-codec")
    wl.prepare(tmp_path, 3)
    out = _run(wl, tmp_path)
    assert wl.check("full", out) == []

    data = bytearray((out / "codec.bin").read_bytes())
    header = struct.calcsize(">4sB8sQ")  # EncodedBlob header before the payload
    data[4 + header] ^= 0x5A  # first payload byte of the first blob
    (out / "codec.bin").write_bytes(bytes(data))
    failures = wl.check("full", out)
    assert failures and failures[0].startswith("sentence 0:")


def test_pinned_seed_matches_pinned_json(tmp_path):
    """At the pinned seed, the reference scores of the full input and the
    outputs of the unit input equal pinned.json; the run's verifier flags a
    filter output that passes every other check but differs from the pin."""
    pinned = json.loads(run.PINNED.read_text())
    for name in workloads.WORKLOADS:
        work = tmp_path / name
        work.mkdir()
        wl = workloads.make(name)
        wl.prepare(work, run.PINNED_SEED)
        verifier = run.Verifier(wl, run.PINNED_SEED)
        assert getattr(wl, "scores_digest", None) == pinned[name].get("scores"), name
        out = _run(wl, work, "unit")
        assert check.digest(out) == pinned[name]["unit"], name
        verifier.verify("unit", out)
        assert verifier.failures == [], name

        if name != "train-codec":
            # a byte the output checks do not read: report.json is parsed, so
            # a trailing newline changes only its digest
            report = out / "report.json"
            report.write_bytes(report.read_bytes() + b"\n")
            assert wl.check("unit", out) == [], name
            verifier = run.Verifier(wl, run.PINNED_SEED)
            verifier.verify("unit", out)
            assert verifier.failures == ["unit: outputs differ from pinned.json"], name


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench")
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "filter-serial", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
