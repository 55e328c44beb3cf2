"""Output checks. Each returns a list of failures, one line each; empty means correct."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

from bitextverify.coder import EncodedBlob, decode, ideal_bits

FILTER_OUTPUTS = ("accepted", "rejected", "invalid")
MAX_OVERHEAD_BITS = 64  # payload_bits - ideal_bits, the coder's documented bound


def digest(out_dir: Path) -> str:
    """sha256 over the names and contents of every file in an output directory."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def check_filter(out_dir: Path, rows, expected: list[str]) -> list[str]:
    """Check a filter run against its input rows and the reference placements.

    ``rows`` are the input rows (id, arabic, english, ...) in input order;
    ``expected[i]`` is "accepted", "rejected" or "invalid" for ``rows[i]``.
    """
    out_dir = Path(out_dir)
    index = {row[0]: i for i, row in enumerate(rows)}
    placed: dict[str, list[str]] = {}
    failures = []
    counts = {}
    for name in FILTER_OUTPUTS:
        lines = (out_dir / f"{name}.tsv").read_text(encoding="utf-8").split("\n")[:-1]
        counts[name] = len(lines)
        last = -1
        for line in lines:
            pair_id, text_a, text_e = (line.split("\t") + ["", ""])[:3]
            i = index.get(pair_id)
            if i is None:
                failures.append(f"{name}.tsv: unknown id {pair_id!r}")
                continue
            placed.setdefault(pair_id, []).append(name)
            if i <= last:
                failures.append(f"{name}.tsv: id {pair_id!r} out of input order")
            last = i
            if (text_a, text_e) != tuple(rows[i][1:3]):
                failures.append(f"{name}.tsv: id {pair_id!r} texts differ from the input")
    for row, want in zip(rows, expected):
        got = placed.get(row[0], [])
        if got != [want]:
            failures.append(f"id {row[0]!r}: placed in {got}, reference says {want}")
    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["counts"]
    for name in FILTER_OUTPUTS:
        if report[name] != counts[name]:
            failures.append(f"report.json: {name} {report[name]} but {counts[name]} rows")
    if report["total"] != len(rows):
        failures.append(f"report.json: total {report['total']} but {len(rows)} input rows")
    return failures


def read_codec_output(path: Path) -> list[bytes]:
    """Split a codec_job.py output into its length-prefixed chunks."""
    data = Path(path).read_bytes()
    chunks, pos = [], 0
    while pos < len(data):
        (n,) = struct.unpack_from(">I", data, pos)
        chunks.append(data[pos + 4:pos + 4 + n])
        pos += 4 + n
    return chunks


def check_codec(out_file: Path, texts: list[bytes], model) -> list[str]:
    """Check codec_job.py output: the job's own decode returned the input, the
    blob decodes to the input here too, and it costs at most 64 bits over the
    ideal code length."""
    chunks = read_codec_output(out_file)
    if len(chunks) != 2 * len(texts):
        return [f"{len(chunks) // 2} records for {len(texts)} sentences"]
    failures = []
    for i, text in enumerate(texts):
        raw, decoded = chunks[2 * i], chunks[2 * i + 1]
        if decoded != text:
            failures.append(f"sentence {i}: job decoded a different text")
            continue
        try:
            blob = EncodedBlob.from_bytes(raw)
            # a corrupted length field would make decode run for that many symbols
            ok = blob.length == len(text) and decode(model, blob) == text
        except (ValueError, IndexError) as exc:
            failures.append(f"sentence {i}: blob does not decode ({exc})")
            continue
        if not ok:
            failures.append(f"sentence {i}: blob decodes to a different text")
        elif blob.payload_bits - ideal_bits(model, text) > MAX_OVERHEAD_BITS:
            failures.append(f"sentence {i}: payload over the ideal by more than 64 bits")
    return failures
