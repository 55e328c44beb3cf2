import contextlib
import hashlib
import importlib.util
import io
import json
import marshal
import os
import shlex
import shutil
import subprocess
import sys
import tempfile
import types
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from bitextverify import cli
from bitextverify import corpus
from bitextverify.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_IO, fmt_pct, main, parse_grid
from bitextverify.metrics import SATISFACTORY, UNSATISFACTORY
from bitextverify.ppm import MAX_ORDER, PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY, apply_transform

AR_LINE = "ذهب رجل الى السوق ليشتري الخبز والفاكهة."
EN_LINE = "A man went to the market to buy bread and fruit."
GOLDEN = Path(__file__).parent / "data" / "filter_golden"
PACKAGE_DATA = Path(cli.__file__).parent / "data"
# (language, the transform its bundled model was primed with, hash of that model)
BUNDLED = (
    ("arabic", ARABIC_NUMERIC, "3904117a500a0e60"),
    ("english", IDENTITY, "c17e2503c48e1d54"),
)
SCORING = ("score", "evaluate", "sweep", "filter", "stats")
STALE = "data/*.table no longer match data/*.txt; rebuild them with README.md's block"


def _refuse_training(self, texts):
    raise AssertionError("a scoring run must load its models, not prime them")


def _run_readme_regeneration(tmp_path, monkeypatch):
    """Run the `train` lines of README.md's regeneration block, as printed, beside
    a copy of the package whose tables are gone and whose pins are stale; return
    the block's heredoc and the env whose PYTHONPATH imports that copy."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = next(part for part in readme.split("```bash\n")[1:] if "<<'EOF'\n" in part)
    commands, heredoc = block.split("python3 - <<'EOF'\n")
    package = tmp_path / "src" / "bitextverify"
    shutil.copytree(PACKAGE_DATA.parent, package,
                    ignore=shutil.ignore_patterns("__pycache__", "*.table"))
    code = (package / "cli.py").read_text(encoding="utf-8")
    for stale, pinned in zip("0f", cli.TABLE_SHA256.values()):
        code = code.replace(pinned, stale * 64)
    (package / "cli.py").write_text(code, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for line in commands.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        assert argv[:2] == ["bitextverify", "train"], line
        assert main(argv[1:]) == 0
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    return heredoc.split("\nEOF\n", 1)[0] + "\n", env


@pytest.fixture
def corpus_tsv(tmp_path):
    path = tmp_path / "pairs.tsv"
    rows = [
        f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory",
        f"2\t{AR_LINE}\t{EN_LINE} {EN_LINE} {EN_LINE}\tUnsatisfactory",
        f"3\tالطقس اليوم صاف.\tThe weather today is clear.\tSatisfactory",
        f"4\tنص\t{'tiny arabic against long english ' * 6}\tUnsatisfactory",
    ]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_fmt_pct_half_up():
    assert fmt_pct(60.145) == "60.15"
    assert fmt_pct(100.0) == "100.00"
    assert fmt_pct(8.184) == "8.18"
    assert fmt_pct(Fraction(100, 3)) == "33.33"
    assert fmt_pct(Fraction(200, 3)) == "66.67"
    assert fmt_pct(1e-05) == "0.00"
    assert fmt_pct(-0.125) == "-0.13"


def _decimal_half_up(value):
    """fmt_pct's rule through the decimal module: half-up to two places on the
    repr of a float, on the exact quotient of a rational."""
    exact = Decimal(value.numerator) / Decimal(value.denominator) if isinstance(
        value, Fraction) else Decimal(repr(value))
    return str(exact.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


@settings(max_examples=300, deadline=None)
@given(
    value=st.one_of(
        st.floats(-1e6, 1e6).map(lambda v: v + 0.0),  # no -0.0, which prints as 0.00
        st.integers(0, 10**5).map(lambda n: n / 1000),  # three places: ties included
        st.builds(lambda k, n: Fraction(100 * k, n), st.integers(0, 500), st.integers(1, 500)),
    ),
)
def test_fmt_pct_matches_decimal_rounding(value):
    with localcontext() as ctx:
        ctx.prec = 60
        assert fmt_pct(value) == _decimal_half_up(value)


def test_parse_grid_range_and_list():
    assert parse_grid("1.25:3.50:0.25") == [1.25 + 0.25 * i for i in range(10)]
    assert parse_grid("1.0,2.0,3.5") == [1.0, 2.0, 3.5]
    assert len(parse_grid("1:1000:1")) == cli.MAX_GRID == 1000
    with pytest.raises(ValueError, match="1 to 1000 strictly increasing values"):
        parse_grid("1:1001:1")
    with pytest.raises(ValueError):
        parse_grid("3:1:0.5")
    with pytest.raises(ValueError):
        parse_grid("2.0,1.0")


@pytest.mark.parametrize("spec", ["nan", "1,inf", "-inf,1", "1,nan,2", "0:1:0.5", "0,1",
                                  "-1,2", "-2:-1:0.5", "1,,2", "1,2,", ",1"])
def test_parse_grid_rejects_non_finite_and_non_positive_values(spec):
    with pytest.raises(ValueError, match="finite and above 0"):
        parse_grid(spec)


class TestTrain:
    def test_train_writes_model_and_reports(self, tmp_path, capsys):
        src = tmp_path / "corpus.txt"
        src.write_text("line one here\nline two here\n", encoding="utf-8")
        out = tmp_path / "model.ppm"
        assert main(["train", "--input", str(src), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "2 texts" in printed and "26 symbols" in printed
        model = PpmModel.load(out)
        assert model.stats(()).total == 26

    def test_train_deterministic_bytes(self, tmp_path):
        src = tmp_path / "corpus.txt"
        src.write_text("repeatable input text\n" * 5, encoding="utf-8")
        out1, out2 = tmp_path / "m1.ppm", tmp_path / "m2.ppm"
        main(["train", "--input", str(src), "--out", str(out1)])
        main(["train", "--input", str(src), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_train_empty_input(self, tmp_path):
        src = tmp_path / "empty.txt"
        src.write_text("", encoding="utf-8")
        out = tmp_path / "m.ppm"
        assert main(["train", "--input", str(src), "--out", str(out)]) == 0
        assert PpmModel.load(out) == PpmModel()

    def test_arabic_numeric_transform(self, tmp_path, capsys):
        src = tmp_path / "ar.txt"
        src.write_text(AR_LINE + "\n", encoding="utf-8")
        out = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(out), "--transform", "arabic-numeric"])
        # single-byte recoding: symbol count equals character count
        assert f"{len(AR_LINE)} symbols" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["ab\u2028cd\nef\n", "a\rb\nc\n"])
    def test_train_splits_lines_like_the_corpus_loaders(self, tmp_path, capsys, text):
        src = tmp_path / "priming.txt"
        src.write_bytes(text.encode("utf-8"))
        assert main(["train", "--input", str(src), "--out", str(tmp_path / "m.ppm")]) == 0
        assert "trained 2 texts" in capsys.readouterr().out

    def test_byte_order_mark_leaves_the_dump_unchanged(self, tmp_path):
        dumps = []
        for bom in ("", "\ufeff"):
            src = tmp_path / "priming.txt"
            src.write_text(bom + "line one here\nline two here\n", encoding="utf-8")
            out = tmp_path / "m.ppm"
            assert main(["train", "--input", str(src), "--out", str(out)]) == 0
            dumps.append(out.read_bytes())
        assert dumps[0] == dumps[1]


class TestModelLoading:
    def test_bundled_model_hashes(self):
        """The models the filter command's defaults load, by the loader the bench uses."""
        args = cli.build_parser().parse_args(["filter", "--out-dir", "unused"])
        for (model, model_id), (language, _, digest) in zip(cli._load_models(args), BUNDLED):
            assert (model_id, model.config_hash().hex()) == (f"bundled:{language}", digest)

    def test_shipped_dumps_equal_a_fresh_priming(self, tmp_path, monkeypatch):
        """The `train` lines of README.md's regeneration block, run as printed, write
        the dump of each shipped table's model byte for byte, with the bundled hash."""
        _run_readme_regeneration(tmp_path, monkeypatch)
        for language, _, digest in BUNDLED:
            fresh = (tmp_path / f"{language}.ppm").read_bytes()
            model = PpmModel.load_table(PACKAGE_DATA / f"{language}.table",
                                        cli.TABLE_SHA256[language])
            assert fresh == model.dumps(), STALE
            assert PpmModel.loads(fresh).config_hash().hex() == digest, STALE
            assert hashlib.sha256(fresh).hexdigest()[:16] == model.config_hash().hex(), STALE

    def test_default_filter_never_primes(self, tmp_path, corpus_tsv, monkeypatch):
        monkeypatch.setattr(PpmModel, "train_many", _refuse_training)
        out = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out)]) == 0
        models = json.loads((out / "report.json").read_text(encoding="utf-8"))["models"]
        assert models == {language: {"id": f"bundled:{language}", "hash": digest}
                          for language, _, digest in BUNDLED}

    # the hashes of the desk-corpus models primed at order 3
    @pytest.mark.parametrize("order, digests", [
        ("3", ["1c67455b8e1b9e14", "adedb43186074d5c"]),
    ], ids=["order-3"])
    def test_train_primes_other_parameters(self, tmp_path, corpus_tsv, monkeypatch, order,
                                           digests):
        """Another order: prime with train, score with the model files."""
        models = {}
        for language, side_transform in (("arabic", ARABIC_NUMERIC), ("english", IDENTITY)):
            models[language] = str(tmp_path / f"{language}.ppm")
            assert main(["train", "--input", str(PACKAGE_DATA / f"{language}.txt"),
                         "--order", order, "--transform", side_transform,
                         "--out", models[language]]) == 0
        monkeypatch.setattr(PpmModel, "train_many", _refuse_training)
        out = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out),
                     "--model-a", models["arabic"], "--model-e", models["english"]]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [report["models"][language] for language in ("arabic", "english")] == [
            {"id": models[language], "hash": digest} for language, digest in zip(models, digests)]

    def test_missing_dump_is_io_error(self, tmp_path, corpus_tsv, monkeypatch, capsys):
        """No fallback: a default run without its shipped table fails; it never primes."""
        data = tmp_path / "data"
        shutil.copytree(PACKAGE_DATA, data)
        (data / "arabic.table").unlink()
        monkeypatch.setattr(cli, "DATA_DIR", str(data))
        monkeypatch.setattr(PpmModel, "train_many", _refuse_training)
        args = ["filter", "--pairs", str(corpus_tsv), "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_IO
        assert "arabic.table" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["flip", "truncate", "append"])
    def test_damaged_table_exits_before_the_corpus_is_read(self, tmp_path, corpus_tsv,
                                                           monkeypatch, capsys, damage):
        """One byte flipped, cut or added: the digest differs, so the table is never
        unmarshalled, and the run exits 2 naming it before any corpus line is read."""
        data = tmp_path / "data"
        shutil.copytree(PACKAGE_DATA, data)
        table = data / "arabic.table"
        raw = bytearray(table.read_bytes())
        if damage == "flip":
            raw[len(raw) // 2] ^= 0x10
        elif damage == "truncate":
            del raw[-1:]
        else:
            raw += b"\0"
        table.write_bytes(raw)

        def refuse(*args, **kwargs):
            raise AssertionError("an input was read, or a damaged table unmarshalled")

        monkeypatch.setattr(cli, "DATA_DIR", str(data))
        monkeypatch.setattr(cli, "load_corpus", refuse)
        # ppm's own name only: importlib reads bytecode through marshal.loads
        monkeypatch.setattr("bitextverify.ppm.marshal", types.SimpleNamespace(loads=refuse))
        out_dir = tmp_path / "out"
        args = ["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out_dir)]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == (f"configuration error: {table}: SHA-256 is not the "
                                           f"pinned {cli.TABLE_SHA256['arabic']}; the table is "
                                           "damaged\n")
        assert not out_dir.exists()

    def test_a_table_is_no_model_file(self, tmp_path, corpus_tsv, capsys):
        """The table format serves only the defaults: a --model-a file goes through loads."""
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), "--model-a",
                     str(PACKAGE_DATA / "arabic.table"), "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "configuration error: not a PPMV1 model dump\n"

    def test_shipped_tables_equal_their_dumps(self, tmp_path, monkeypatch):
        """Each table the defaults load, under its pinned digest, is the model loads
        builds from a fresh README `train` dump: the same dump bytes, hash and entry
        sharing. The table_bytes() of that load unmarshal to the same table
        (marshal's reference flags follow refcounts, so the bytes may differ)."""
        _run_readme_regeneration(tmp_path, monkeypatch)
        for (language, _, digest), runs in zip(BUNDLED, (923, 1145)):
            dump = (tmp_path / f"{language}.ppm").read_bytes()
            table = PACKAGE_DATA / f"{language}.table"
            model = PpmModel.load_table(table, cli.TABLE_SHA256[language])
            assert model.dumps() == dump, STALE
            assert model.config_hash().hex() == digest
            assert len({id(entry) for entry in model._table.values()}) == runs
            fresh = PpmModel.loads(dump).table_bytes()
            assert marshal.loads(fresh) == marshal.loads(table.read_bytes()), STALE

    def test_every_data_file_is_package_data(self):
        """data/ holds each bundled model's text and table, each matches a
        [tool.setuptools.package-data] pattern, so a wheel ships it, and each pattern
        matches a file (read as text: 3.10 has no tomllib)."""
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        lines = pyproject.read_text(encoding="utf-8").splitlines()
        section = lines[lines.index("[tool.setuptools.package-data]") + 1:]
        line = next(line for line in section if line.startswith("bitextverify ="))
        patterns = json.loads(line.partition("=")[2])
        files = {f"data/{path.name}" for path in PACKAGE_DATA.iterdir()}
        assert files == {f"data/{lang}.{ext}" for lang, *_ in BUNDLED for ext in ("table", "txt")}
        assert [f for f in files if not any(fnmatchcase(f, p) for p in patterns)] == []
        assert [p for p in patterns if not any(fnmatchcase(f, p) for f in files)] == []

    def test_model_file_on_one_side_bundled_on_the_other(self, tmp_path):
        path = tmp_path / "a.ppm"
        model = PpmModel()
        model.train("مرحبا".encode("utf-8"))
        model.save(path)
        args = cli.build_parser().parse_args(["filter", "--out-dir", "x", "--model-a", str(path)])
        (model_a, id_a), (model_e, id_e) = cli._load_models(args)
        assert (id_a, id_e) == (str(path), "bundled:english")
        assert model_a == model and model_a.frozen and model_e.frozen
        assert model_e.config_hash().hex() == "c17e2503c48e1d54"


class TestScore:
    def test_score_to_file(self, tmp_path, corpus_tsv):
        out = tmp_path / "scores.tsv"
        code = main(["score", "--pairs", str(corpus_tsv), "--out", str(out)])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("id\tlen_a\tlen_e")
        assert len(lines) == 5
        assert lines[1].split("\t")[0] == "1"

    def test_stdout_gets_the_bytes_of_the_out_file(self, tmp_path, corpus_tsv, capsys):
        """Without --out the TSV goes to stdout byte for byte. The unscorable pairs are
        listed on stderr as bare `id<TAB>reason` rows, and filter's report.json lists
        the same pairs."""
        pairs = tmp_path / "mixed.tsv"
        pairs.write_text(corpus_tsv.read_text(encoding="utf-8") + "5\t\ttext\n6\tنص\t\n",
                         encoding="utf-8")
        out = tmp_path / "s.tsv"
        invalid_rows = "5\tempty arabic side\n6\tempty english side\n"
        assert main(["score", "--pairs", str(pairs), "--out", str(out)]) == 0
        assert capsys.readouterr() == ("", invalid_rows)
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5
        assert main(["score", "--pairs", str(pairs)]) == 0
        captured = capsys.readouterr()
        assert captured.out.encode("utf-8") == out.read_bytes()
        assert captured.err == invalid_rows
        out_dir = tmp_path / "filtered"
        assert main(["filter", "--pairs", str(pairs), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["invalid"] == [["5", "empty arabic side"], ["6", "empty english side"]]

    def test_identical_pair_satisfactory(self, tmp_path):
        # identical pipeline on both sides: same model; ASCII passes arabic-numeric unchanged
        src = tmp_path / "prime.txt"
        src.write_text("some shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tsame text\tsame text\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        main(["score", "--pairs", str(pairs), "--out", str(out),
              "--model-a", str(model), "--model-e", str(model)])
        row = out.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[5] == "1.0000" and row[6] == "1.0000" and row[7] == "Satisfactory"

    def test_empty_side_routed_to_invalid(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tنص\ttext\n2\t\tenglish only\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        code = main(["score", "--pairs", str(pairs), "--out", str(out)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2  # header + pair 1
        assert capsys.readouterr().err.splitlines() == ["2\tempty arabic side"]

    def test_deterministic_across_runs(self, tmp_path, corpus_tsv):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            main(["score", "--pairs", str(corpus_tsv), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scatter_export(self, tmp_path, corpus_tsv):
        """The README's scatter recipe, `cut -f2-5,8` of the score TSV, gives one
        (len_a, len_e, bits_a, bits_e, verdict) row per valid pair."""
        out = tmp_path / "s.tsv"
        assert main(["score", "--pairs", str(corpus_tsv), "--out", str(out)]) == 0
        rows = [line.split("\t") for line in out.read_text(encoding="utf-8").splitlines()]
        scatter = ["\t".join(row[1:5] + row[7:8]) for row in rows]
        assert scatter[0] == "len_a\tlen_e\tbits_a\tbits_e\tverdict"
        assert len(scatter) == 5

    def test_aligned_input(self, tmp_path):
        ar = tmp_path / "x.ar"
        en = tmp_path / "x.en"
        ar.write_text(AR_LINE + "\n" + AR_LINE + "\n", encoding="utf-8")
        en.write_text(EN_LINE + "\n" + EN_LINE + "\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        code = main(["score", "--format", "aligned", "--arabic", str(ar), "--english", str(en),
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 3

    def test_aligned_byte_order_mark_scores_like_none(self, tmp_path):
        en = tmp_path / "x.en"
        en.write_text(EN_LINE + "\n" + EN_LINE + "\n", encoding="utf-8")
        outs = []
        for bom in ("", "\ufeff"):
            ar = tmp_path / "x.ar"
            ar.write_text(bom + AR_LINE + "\n" + AR_LINE + "\n", encoding="utf-8")
            out = tmp_path / "s.tsv"
            assert main(["score", "--format", "aligned", "--arabic", str(ar),
                         "--english", str(en), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEvaluateSweep:
    def test_evaluate_prints_three_accuracies(self, corpus_tsv, capsys):
        assert main(["evaluate", "--pairs", str(corpus_tsv)]) == 0
        out = capsys.readouterr().out
        assert "satisfactory accuracy:" in out
        assert "unsatisfactory accuracy:" in out
        assert "average accuracy:" in out

    def test_evaluate_single_metric_flag(self, corpus_tsv, capsys):
        assert main(["evaluate", "--pairs", str(corpus_tsv), "--metric", "slr"]) == 0
        assert "average accuracy:" in capsys.readouterr().out

    def test_sweep_layout(self, corpus_tsv, capsys):
        assert main(["sweep", "--pairs", str(corpus_tsv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = lines[0].split("\t")
        assert header[0] == "CR\\SLR" and len(header) == 11
        assert header[1] == "1.25" and header[-1] == "3.5"
        assert len(lines) == 11
        for row in lines[1:]:
            assert len(row.split("\t")) == 11


def _run_without_site(script):
    """Run script in a fresh interpreter without site (-S), with this checkout's
    src/ on the path, and fail on a non-zero exit."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr


class TestFilter:
    def test_outputs_and_report(self, tmp_path, corpus_tsv):
        out_dir = tmp_path / "out"
        code = main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out_dir)])
        assert code == 0
        for name in ("accepted.tsv", "rejected.tsv", "invalid.tsv", "report.json"):
            assert (out_dir / name).exists()
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        counts = report["counts"]
        assert counts["total"] == 4
        n_accepted = len((out_dir / "accepted.tsv").read_text(encoding="utf-8").splitlines())
        assert counts["accepted"] == n_accepted
        assert report["transform"]["arabic"] == "arabic-numeric"
        assert set(report["models"]) == {"arabic", "english"}

    @pytest.mark.parametrize("rows", [
        None,
        "1\tمرحبا بكم\thello there\n2\tمرحبا\thello\n3\tمر\thel\n4\tعالم\tworld\n"
        "5\tمرحبا\thello there\n6\tمر\t\n",
    ], ids=["sentences", "prefixes"])
    def test_jobs_byte_identical(self, tmp_path, corpus_tsv, monkeypatch, rows):
        """The four outputs are the same bytes at --jobs 1 and 2. In the second
        corpus the Arabic sides begin one another, and so do the English sides, so
        filter scores each chain of them in one walk, and --jobs 2 splits the walks
        over two processes; pair 6 has an empty English side."""
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)  # a fork even on one core
        pairs = corpus_tsv
        if rows is not None:
            pairs = tmp_path / "prefixes.tsv"
            pairs.write_text(rows, encoding="utf-8")
        outputs = []
        for jobs, name in (("1", "one"), ("2", "two")):
            out_dir = tmp_path / name
            assert main(["filter", "--pairs", str(pairs), "--out-dir", str(out_dir),
                         "--jobs", jobs]) == 0
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
            )
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_golden_outputs(self, tmp_path, monkeypatch, jobs):
        """Labelled pairs in two categories and in none, with an empty Arabic and an
        empty English side: the outputs are the pinned bytes in tests/data/filter_golden."""
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)  # a pool even on one core
        out_dir = tmp_path / "out"
        args = ["--pairs", str(GOLDEN / "pairs.tsv"), "--out-dir", str(out_dir), "--jobs", jobs]
        assert main(["filter", *args]) == 0
        for name in ("accepted.tsv", "rejected.tsv", "report.json"):
            assert (out_dir / name).read_bytes() == (GOLDEN / name).read_bytes(), name
        # invalid.tsv: ids and row count only. Its rows put the reason where an
        # unlabelled pair's label goes; ROADMAP item 3 replaces that row format.
        rows = (out_dir / "invalid.tsv").read_text(encoding="utf-8").splitlines()
        assert [row.split("\t")[0] for row in rows] == ["5", "6"]

    @pytest.mark.parametrize("rows", ["", "1\t\tenglish only\n2\tنص\t\n"])
    def test_no_valid_pair_reports_zero_percent(self, tmp_path, rows):
        pairs = tmp_path / "p.tsv"
        pairs.write_text(rows, encoding="utf-8")
        out_dir = tmp_path / "out"
        if rows:
            assert main(["filter", "--pairs", str(pairs), "--out-dir", str(out_dir)]) == 0
        else:
            with pytest.warns(UserWarning, match="empty corpus"):
                assert main(["filter", "--pairs", str(pairs), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["percentages"] == {"accepted": 0.0, "rejected": 0.0}
        assert report["counts"]["invalid"] == report["counts"]["total"] == rows.count("\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_side_over_the_limit_is_reported_invalid(self, tmp_path, monkeypatch, jobs):
        """A side of 65,537 prepared bytes is invalid with its reason; 65,536 is
        the most a side may have (two bytes a UTF-8 "é", one an Arabic letter)."""
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)
        pairs = tmp_path / "p.tsv"
        pairs.write_text(f"a\t{'س' * 65537}\thello\ne\tمرحبا\t{'é' * 32768}a\n"
                         "ok\tمرحبا\thello\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        args = ["filter", "--pairs", str(pairs), "--out-dir", str(out_dir), "--jobs", jobs]
        assert main(args) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["invalid"] == [["a", "arabic side longer than 65536 bytes"],
                                     ["e", "english side longer than 65536 bytes"]]
        assert report["counts"]["total"] == 3

    def test_self_paired_corpus_reports_full_acceptance(self, tmp_path):
        src = tmp_path / "prime.txt"
        src.write_text("shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("".join(f"{i}\ttext {i}\ttext {i}\n" for i in range(10)), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(pairs), "--model-a", str(model), "--model-e",
                     str(model), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["percentages"] == {"accepted": 100.0, "rejected": 0.0}
        assert report["counts"]["accepted"] == 10

    def test_serial_run_skips_multiprocessing(self, tmp_path, corpus_tsv):
        """Importing the CLI and a --jobs 1 filter never import multiprocessing,
        nor dataclasses and the inspect module it pulls in (records are
        NamedTuples), nor fractions and decimal (only exact accuracies and their
        printing use them), nor importlib.resources, pathlib, tempfile and
        shutil (the bundled files are found with os.path; only argparse's help
        formatter imports shutil, once the parser is built), nor _hashlib,
        which maps OpenSSL, where a built-in SHA-256 module exists. Then, with
        every package module imported, each top-level module the package
        brought in is from the standard library. Runs in a fresh interpreter without site
        (-S): the test runner may have imported them here, and site's .pth
        files may import them too."""
        out_dir = tmp_path / "out"
        modules = ("multiprocessing", "dataclasses", "inspect", "fractions", "decimal",
                   "importlib.resources", "pathlib", "tempfile", "shutil")
        if any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
            modules += ("_hashlib",)
        script = (
            "import sys\n"
            "bare = {m.partition('.')[0] for m in sys.modules}\n"
            f"def unused(*allowed): return [m for m in {modules!r} if m in sys.modules and m not in allowed]\n"
            "from bitextverify.cli import main\n"
            "assert not unused(), f'{unused()} imported by the CLI'\n"
            f"assert main(['filter', '--pairs', {str(corpus_tsv)!r}, '--out-dir', {str(out_dir)!r}]) == 0\n"
            # argparse's HelpFormatter imports shutil to read the terminal width
            "assert not unused('shutil'), f'{unused(\"shutil\")} imported by a serial filter'\n"
            "import bitextverify, importlib, pkgutil\n"
            "for info in pkgutil.iter_modules(bitextverify.__path__):\n"
            "    importlib.import_module(f'bitextverify.{info.name}')\n"
            "top = {m.partition('.')[0] for m in sys.modules} - bare - {'bitextverify'}\n"
            "outside = sorted(top - set(sys.stdlib_module_names))\n"
            "assert not outside, f'{outside} imported from outside the standard library'\n"
        )
        _run_without_site(script)
        assert (out_dir / "report.json").exists()

    def test_codec_modules_skip_the_scoring_modules(self, tmp_path):
        """The package root imports no submodule, and the model, coder and
        transform modules import none of corpus, metrics and cli. A train run
        leaves json (only filter writes it), signal and array (only the fork-join
        uses them) unimported. Runs without site (-S), like the test above."""
        prime = tmp_path / "prime.txt"
        prime.write_text(f"{EN_LINE}\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        script = (
            "import sys\n"
            "import bitextverify\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('bitextverify.'))\n"
            "assert not loaded, f'{loaded} imported by the package root'\n"
            "import bitextverify.ppm, bitextverify.coder, bitextverify.preprocess\n"
            "loaded = [m for m in ('corpus', 'metrics', 'cli') if f'bitextverify.{m}' in sys.modules]\n"
            "assert not loaded, f'{loaded} imported by the codec modules'\n"
            "from bitextverify.cli import main\n"
            f"assert main(['train', '--input', {str(prime)!r}, '--out', {str(model)!r}]) == 0\n"
            "loaded = [m for m in ('json', 'signal', 'array') if m in sys.modules]\n"
            "assert not loaded, f'{loaded} imported by a train run'\n"
        )
        _run_without_site(script)
        assert model.exists()


class TestStats:
    def test_self_paired_zero_percent(self, tmp_path, capsys):
        src = tmp_path / "prime.txt"
        src.write_text("shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tsame\tsame\n2\talso same\talso same\n", encoding="utf-8")
        assert main(["stats", "--pairs", str(pairs), "--model-a", str(model),
                     "--model-e", str(model)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].split("\t") == ["overall", "2", "0.00", "0.00"]

    def test_no_scorable_pair_is_format_error(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\t\ttext\n2\tنص\t\n", encoding="utf-8")
        assert main(["stats", "--pairs", str(pairs)]) == EXIT_FORMAT
        assert capsys.readouterr().err == "input error: no scorable pairs\n"

    def test_category_rows(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text(
            "1\tنص\ttext\tSatisfactory\tnews\n2\tنص اخر\tmore text\tSatisfactory\tsport\n",
            encoding="utf-8",
        )
        main(["stats", "--pairs", str(pairs)])
        out = capsys.readouterr().out
        assert "news" in out and "sport" in out and "overall" in out

    def test_category_named_overall_is_format_error(self, tmp_path, capsys):
        """A pair's category row would print beside the total row of the same name."""
        pairs = tmp_path / "p.tsv"
        pairs.write_text(
            "a1\tنص\ttext\tSatisfactory\toverall\n2\tنص اخر\tmore text\tSatisfactory\tnews\n"
            "3\tمرحبا\thello\tSatisfactory\tnews\n",
            encoding="utf-8",
        )
        assert main(["stats", "--pairs", str(pairs)]) == EXIT_FORMAT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: pair 'a1': category 'overall' names the total row\n"


# sides that begin one another in both languages, so that a walk has several members
_AGREE_SIDE = st.sampled_from(["a", "ab", "abc", "ab c", "hello", "hello there", "the",
                               "مر", "مرحبا", "مرحبا بكم", "نص", "نص اخر"])
_AGREE_ROWS = st.lists(
    st.tuples(_AGREE_SIDE, _AGREE_SIDE, st.sampled_from(corpus.LABELS),
              st.sampled_from(["", "news", "web"])),
    min_size=2, max_size=14,
).map(lambda rows: [(str(i), a, e, corpus.LABELS[i] if i < 2 else label, category)
                    for i, (a, e, label, category) in enumerate(rows)])  # both labels


@pytest.fixture(scope="module")
def small_model_files(tmp_path_factory):
    """(arabic, english) model files primed on a few lines, quick to load."""
    directory = tmp_path_factory.mktemp("models")
    files = []
    for name, text, transform in (("arabic", "مرحبا بكم في نص اخر", ARABIC_NUMERIC),
                                  ("english", "hello there, the abc of it", IDENTITY)):
        model = PpmModel(3)
        model.train(apply_transform(text, transform))
        model.save(directory / f"{name}.ppm")
        files.append(str(directory / f"{name}.ppm"))
    return files


@settings(max_examples=12, deadline=None)
@given(rows=_AGREE_ROWS)
def test_commands_agree_on_one_corpus(small_model_files, rows):
    """score, filter, evaluate and stats on one labelled corpus, at --jobs 1 and 2:
    filter's split is score's verdict column, evaluate's accuracies and stats'
    percentages follow from the score TSV, and every output is the same at both."""
    outputs = []
    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "usable_cores", lambda: 2)  # a child even on one core
        pairs = os.path.join(work, "pairs.tsv")
        with open(pairs, "w", encoding="utf-8") as fh:
            fh.writelines("\t".join(row) + "\n" for row in rows)
        model_a, model_e = small_model_files
        for jobs in ("1", "2"):
            common = ["--pairs", pairs, "--model-a", model_a, "--model-e", model_e, "--jobs", jobs]
            score_tsv, out_dir = os.path.join(work, f"score{jobs}.tsv"), os.path.join(work, jobs)
            printed = {}
            for command, extra in (("score", ["--out", score_tsv]), ("filter", ["--out-dir", out_dir]),
                                   ("evaluate", []), ("stats", [])):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    assert main([command, *common, *extra]) == 0
                printed[command] = out.getvalue().splitlines()
            with open(score_tsv, encoding="utf-8") as fh:
                header, *scores = (line.rstrip("\n").split("\t") for line in fh)
            files = {name: Path(out_dir, f"{name}.tsv").read_text(encoding="utf-8")
                     for name in ("accepted", "rejected", "invalid")}
            outputs.append((scores, files, printed["evaluate"], printed["stats"]))

            assert [s[0] for s in scores] == [row[0] for row in rows]
            verdicts = {s[0]: s[7] for s in scores}
            for name, verdict in (("accepted", SATISFACTORY), ("rejected", UNSATISFACTORY)):
                ids = [line.split("\t")[0] for line in files[name].splitlines()]
                assert ids == [row[0] for row in rows if verdicts[row[0]] == verdict]
            assert files["invalid"] == ""

            accuracy = []
            for label in corpus.LABELS:
                judged = [verdicts[row[0]] for row in rows if row[3] == label]
                accuracy.append(Fraction(100 * judged.count(label), len(judged)))
            assert printed["evaluate"] == [
                f"satisfactory accuracy: {fmt_pct(accuracy[0])}",
                f"unsatisfactory accuracy: {fmt_pct(accuracy[1])}",
                f"average accuracy: {fmt_pct(sum(accuracy) / 2)}",
            ]

            groups = {}
            for row, s in zip(rows, scores):
                groups.setdefault(row[4] or corpus.UNCATEGORIZED, []).append(s)
            expected = ["category\tpairs\tlen_a_greater_pct\tbits_a_greater_pct"]
            for category, group in [*sorted(groups.items()), ("overall", scores)]:
                n = len(group)
                longer = sum(int(s[1]) > int(s[2]) for s in group)
                costlier = sum(float(s[3]) > float(s[4]) for s in group)
                expected.append(f"{category}\t{n}\t{fmt_pct(100.0 * longer / n)}"
                                f"\t{fmt_pct(100.0 * costlier / n)}")
            assert printed["stats"] == expected
    assert outputs[0] == outputs[1]


# ids and sides mix text with what the line reader and a TSV row treat specially: a
# byte-order mark, separators other than "\n", NUL and a lone "\r"
_ODD_TEXT = st.lists(st.sampled_from(["\ufeff", "\u2028", "\x85", "\0", "\r", "7", "the ",
                                      "مرحبا ", "نص"]), max_size=4).map("".join)
_ODD_ROWS = st.lists(
    st.tuples(_ODD_TEXT, _ODD_TEXT, _ODD_TEXT, st.sampled_from([None, *corpus.LABELS]),
              st.sampled_from([None, "news", "\ufeff\u2028web\x85"])),
    min_size=1, max_size=6, unique_by=lambda row: row[0],
)


@settings(max_examples=50, deadline=None)
@given(rows=_ODD_ROWS)
@example(rows=[("1", "", "hello", None, None),  # "\ufeff2" opens accepted.tsv
               ("\ufeff2", "مرحبا بالعالم", "hello world", None, None)])
def test_filter_outputs_load_back(rows):
    """filter exits 0, or 3 naming file:line. On 0, accepted.tsv and rejected.tsv load
    to exactly the pairs load_tsv reads for them from the input, in input order, and
    each invalid.tsv row is its pair's corpus row, a tab and the reason."""
    with tempfile.TemporaryDirectory() as work:
        path, out_dir = os.path.join(work, "pairs.tsv"), os.path.join(work, "out")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            for pair_id, text_a, text_e, label, category in rows:
                extra = [label or "", category] if category else [label] if label else []
                fh.write("\t".join([pair_id, text_a, text_e, *extra]) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(["filter", "--pairs", path, "--out-dir", out_dir])
        if code == EXIT_FORMAT:
            message = err.getvalue()
            lineno = message.removeprefix(f"input error: {path}:").partition(": ")[0]
            assert message.startswith(f"input error: {path}:") and lineno.isdigit(), message
            return
        assert code == 0, err.getvalue()
        pairs = corpus.load_tsv(path)
        report = json.loads(Path(out_dir, "report.json").read_text(encoding="utf-8"))
        outputs = {name: Path(out_dir, f"{name}.tsv") for name in ("accepted", "rejected")}
        loaded = {name: corpus.load_tsv(output) if output.stat().st_size else []  # empty warns
                  for name, output in outputs.items()}
        invalid = [pair_id for pair_id, _ in report["invalid"]]
        verdicts = {pair.id: name for name, part in loaded.items() for pair in part}
        verdicts.update(dict.fromkeys(invalid, "invalid"))
        assert sorted(verdicts) == sorted(pair.id for pair in pairs)
        for name, part in loaded.items():
            assert part == [pair for pair in pairs if verdicts[pair.id] == name]
        assert invalid == [pair.id for pair in pairs if verdicts[pair.id] == "invalid"]
        row = {pair.id: line for pair, line in zip(pairs, corpus.read_lines(path))}
        assert Path(out_dir, "invalid.tsv").read_bytes().decode("utf-8") == "".join(
            f"{row[pair_id]}\t{reason}\n" for pair_id, reason in report["invalid"])


class TestParser:
    def test_scoring_commands_share_defaults(self):
        parser = cli.build_parser()
        shared = {"pairs": None, "format": "tsv", "arabic": None, "english": None,
                  "model_a": None, "model_e": None, "jobs": 1}
        for command in SCORING:
            extra = ["--out-dir", "out"] if command == "filter" else []
            args = vars(parser.parse_args([command, *extra]))
            assert {key: args.get(key) for key in shared} == shared, command
            if command in ("score", "evaluate", "filter"):
                assert (args["theta_slr"], args["theta_cr"]) == (2.5, 2.25), command
            else:
                assert "theta_slr" not in args and "theta_cr" not in args, command

    @pytest.mark.parametrize("command, flag", [
        *(pytest.param(command, "--alphabet", id=command) for command in SCORING),
        *(pytest.param(command, "--order", id=f"{command}-order") for command in SCORING),
    ])
    def test_only_train_takes_alphabet(self, tmp_path, corpus_tsv, command, flag, capsys):
        """--alphabet and --order shape a model, so no scoring command takes them."""
        extra = ["--out-dir", str(tmp_path / "out")] if command == "filter" else []
        assert main([command, "--pairs", str(corpus_tsv), flag, "3", *extra]) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("train", "--alphabet", "3", id="train-alphabet"),
        pytest.param("score", "--scatter", "3", id="score-scatter"),
        *(pytest.param(command, "--transform", IDENTITY, id=f"{command}-transform")
          for command in SCORING),
    ])
    def test_removed_options_are_refused(self, tmp_path, command, flag, value, capsys):
        """A model of another alphabet comes from the library, `cut -f2-5,8` of the
        score TSV gives the old --scatter columns, and scoring always recodes the
        Arabic side with arabic-numeric. The option exits 2 before the (missing)
        input is read, which would exit 4."""
        missing = str(tmp_path / "missing.tsv")
        inputs = (["--input", missing, "--out", str(tmp_path / "m.ppm")]
                  if command == "train" else ["--pairs", missing])
        extra = ["--out-dir", str(tmp_path / "out")] if command == "filter" else []
        assert main([command, *inputs, flag, value, *extra]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestExitCodes:
    def test_missing_file_is_io_error(self, tmp_path):
        assert main(["score", "--pairs", str(tmp_path / "nope.tsv")]) == EXIT_IO

    def test_malformed_corpus_is_format_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("just one column\n", encoding="utf-8")
        assert main(["score", "--pairs", str(path)]) == EXIT_FORMAT

    def test_bad_config_is_config_error(self, tmp_path, corpus_tsv):
        train = ["train", "--input", str(corpus_tsv), "--out", str(tmp_path / "m.ppm")]
        assert main([*train, "--order", "-2"]) == EXIT_CONFIG
        assert main(["sweep", "--pairs", str(corpus_tsv), "--grid", "3:1:1"]) == EXIT_CONFIG

    def test_unknown_flag_value_is_usage_error(self, corpus_tsv, capsys):
        assert main(["evaluate", "--pairs", str(corpus_tsv), "--metric", "rot13"]) == 2
        assert "invalid choice: 'rot13'" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, corpus_tsv, jobs):
        out_dir = tmp_path / "out"
        args = ["--pairs", str(corpus_tsv), "--jobs", jobs]
        assert main(["score", *args]) == EXIT_CONFIG
        assert main(["filter", *args, "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()

    @pytest.mark.parametrize("command", [["sweep", "--grid", "nan"], ["filter", "--jobs", "0"],
                                         ["score", "--jobs", "-1"]], ids=" ".join)
    def test_bad_option_exits_before_any_input_is_read(self, tmp_path, capsys, command):
        args = [*command, "--pairs", str(tmp_path / "missing.tsv")]
        if command[0] == "filter":
            args += ["--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("inputs, ignored", [
        (["--pairs", "pairs", "--arabic", "arabic", "--english", "english"], "--arabic"),
        (["--pairs", "pairs", "--english", "english"], "--english"),
        (["--format", "aligned", "--arabic", "arabic", "--english", "english", "--pairs", "pairs"],
         "--pairs"),
        (["--format", "aligned", "--arabic", "arabic"], "--english"),
        (["--pairs", "pairs", "--arabic", ""], "--arabic"),
    ], ids=["tsv-arabic", "tsv-english", "aligned-pairs", "aligned-no-english",
            "tsv-empty-arabic"])
    def test_an_input_of_the_other_format_exits_before_any_input_is_read(
            self, tmp_path, capsys, monkeypatch, inputs, ignored):
        """A corpus option the chosen --format would not read is refused, not ignored."""
        (tmp_path / "arabic").write_text("مرحبا\n", encoding="utf-8")
        (tmp_path / "english").write_text("hello\n", encoding="utf-8")
        shutil.copy(GOLDEN / "pairs.tsv", tmp_path / "pairs")
        monkeypatch.chdir(tmp_path)

        def load_corpus(*args, **kwargs):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_corpus", load_corpus)
        assert main(["filter", *inputs, "--out-dir", "out"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and ignored in err, err
        assert not (tmp_path / "out").exists()

    def test_missing_required_input_is_config_error(self):
        assert main(["score"]) == EXIT_CONFIG

    @pytest.mark.parametrize("option", ["--model-a", "--model-e"])
    def test_empty_model_path_is_io_error(self, tmp_path, corpus_tsv, capsys, option):
        """An empty path names no file; it does not stand for the bundled model."""
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), option, "",
                     "--out-dir", str(out_dir)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")
        assert not out_dir.exists()

    def test_empty_out_path_is_io_error(self, corpus_tsv, capsys, monkeypatch):
        """`score --out ""` names no file; it does not stand for stdout, and it fails
        before any pair is scored."""

        def score_pairs(*args, **kwargs):
            raise AssertionError("the corpus was scored")

        monkeypatch.setattr(cli, "score_pairs", score_pairs)
        assert main(["score", "--pairs", str(corpus_tsv), "--out", ""]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("i/o error: ") and "''" in captured.err

    def test_unencodable_stdout_is_io_error(self, tmp_path, capsys, monkeypatch):
        """Writing an Arabic id to an ASCII stdout is an output failure, not a
        configuration error."""
        pairs = tmp_path / "p.tsv"
        pairs.write_text("مرحبا\tمرحبا\thello\n", encoding="utf-8")
        monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
        assert main(["score", "--pairs", str(pairs)]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: 'ascii' codec can't encode")

    def test_corrupt_model_is_config_error(self, tmp_path, corpus_tsv):
        model = PpmModel(2, 256)
        model.train(b"abc")
        data = bytearray(model.dumps())
        data[5] = 1  # max_order 1 under a dumped context of length 2
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        assert main(["score", "--pairs", str(corpus_tsv), "--model-a", str(path)]) == EXIT_CONFIG

    def test_train_order_above_the_cap_is_config_error(self, tmp_path, capsys):
        src = tmp_path / "priming.txt"
        src.write_text("line one here\n", encoding="utf-8")
        out = tmp_path / "m.ppm"
        argv = ["train", "--input", str(src), "--out", str(out), "--order", str(MAX_ORDER + 1)]
        assert main(argv) == EXIT_CONFIG
        assert f"max_order must be an integer in 0..16, got {MAX_ORDER + 1}" in capsys.readouterr().err
        assert not out.exists()

    def test_order_byte_above_the_cap_is_config_error(self, tmp_path, corpus_tsv, capsys,
                                                      bundled_models):
        """The bundled English model's dump with the top bit of its order byte flipped
        (5 -> 133) lists no context longer than 5, so only the order cap refuses it."""
        data = bytearray(bundled_models[1].dumps())
        data[5] ^= 0x80
        path = tmp_path / "flipped.ppm"
        path.write_bytes(data)
        assert main(["score", "--pairs", str(corpus_tsv), "--model-a", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("configuration error: corrupt PPMV1 model dump: "
                                           "max_order must be an integer in 0..16, got 133\n")

    def test_order_at_the_cap_trains_and_scores(self, tmp_path, corpus_tsv):
        src = tmp_path / "priming.txt"
        src.write_text(f"{EN_LINE}\nThe weather today is clear.\n", encoding="utf-8")
        model = tmp_path / "m16.ppm"
        assert main(["train", "--input", str(src), "--out", str(model), "--order", "16"]) == 0
        assert PpmModel.load(model).max_order == MAX_ORDER == 16
        out = tmp_path / "scores.tsv"
        assert main(["score", "--pairs", str(corpus_tsv), "--model-e", str(model),
                     "--out", str(out)]) == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 5

    @staticmethod
    def _score_with_endless_model(pairs):
        """`score --pairs pairs --model-a /dev/zero` in a child that caps its own address
        space at 600 MB, so that a loader reading on fails fast with MemoryError
        (exit 1) instead of exhausting the machine: (exit status, stderr)."""
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (600 << 20,) * 2); "
                 "from bitextverify.cli import main; sys.exit(main(sys.argv[1:]))")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run([sys.executable, "-c", child, "score", "--pairs", str(pairs),
                               "--model-a", "/dev/zero"], env=env, capture_output=True,
                              text=True, encoding="utf-8", timeout=120)
        return proc.returncode, proc.stderr

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/zero and RLIMIT_AS")
    def test_endless_model_file_is_refused_after_its_first_bytes(self, tmp_path, corpus_tsv):
        """--model-a /dev/zero is no dump: refused after 5 bytes, not read until memory
        runs out."""
        assert self._score_with_endless_model(corpus_tsv) == (
            EXIT_CONFIG, "configuration error: not a PPMV1 model dump\n")

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /dev/zero and RLIMIT_AS")
    def test_models_load_before_the_corpus_is_read(self, tmp_path):
        """A model that is no dump wins over a corpus line with an invalid label:
        exit 2, not 3, because the models are loaded first."""
        path = tmp_path / "bad_label.tsv"
        path.write_text(f"1\t{AR_LINE}\t{EN_LINE}\tMaybe\n", encoding="utf-8")
        assert main(["score", "--pairs", str(path)]) == EXIT_FORMAT  # the corpus alone is bad
        assert self._score_with_endless_model(path) == (
            EXIT_CONFIG, "configuration error: not a PPMV1 model dump\n")

    def test_unmakeable_out_dir_fails_before_any_pair_is_scored(self, tmp_path, corpus_tsv,
                                                                 monkeypatch, capsys):
        """--out-dir under a regular file exits 4 once the corpus is read, not after
        every pair has been scored."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")

        def filter_corpus(*args, **kwargs):
            raise AssertionError("the corpus was scored")

        monkeypatch.setattr(cli, "filter_corpus", filter_corpus)
        assert main(["filter", "--pairs", str(corpus_tsv),
                     "--out-dir", str(blocker / "out")]) == EXIT_IO
        assert capsys.readouterr().err.startswith("i/o error: ")

    @pytest.mark.parametrize("option", ["--out"])
    def test_unwritable_score_output_fails_before_any_pair_is_scored(
            self, tmp_path, corpus_tsv, monkeypatch, capsys, option):
        """--out under a regular file exits 4 once the corpus is read, before any pair
        is scored, with nothing on stdout."""
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")

        def score_pairs(*args, **kwargs):
            raise AssertionError("the corpus was scored")

        monkeypatch.setattr(cli, "score_pairs", score_pairs)
        assert main(["score", "--pairs", str(corpus_tsv), option, str(blocker / "x.tsv")]) == EXIT_IO
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("i/o error: ")

    def test_invalid_out_is_config_error(self, tmp_path, monkeypatch, capsys):
        """score has no --invalid-out: stderr lists the unscorable pairs. The option
        exits 2 before any model or corpus file is read, and leaves its file as it was."""
        monkeypatch.chdir(tmp_path)
        Path("X").write_bytes(b"kept\n")
        missing = ["--pairs", "missing.tsv", "--model-a", "missing.ppm"]
        assert main(["score", *missing, "--invalid-out", "X"]) == EXIT_CONFIG
        assert "unrecognized arguments: --invalid-out X" in capsys.readouterr().err
        assert Path("X").read_bytes() == b"kept\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_model_alphabet_too_small_is_config_error(self, tmp_path, corpus_tsv, jobs,
                                                       monkeypatch):
        monkeypatch.setattr(corpus, "usable_cores", lambda: 2)  # a pool even on one core
        path = tmp_path / "small.ppm"
        PpmModel(2, 4).save(path)
        out_dir = tmp_path / "out"
        args = ["--pairs", str(corpus_tsv), "--model-e", str(path), "--jobs", jobs]
        assert main(["filter", *args, "--out-dir", str(out_dir)]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["evaluate", "sweep"])
    @pytest.mark.parametrize("rows, message", [
        (f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory\n2\t{AR_LINE}\t{EN_LINE}\n",
         "pair '2' is unlabeled"),
        (f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory\n2\tنص\ttext\tSatisfactory\n",
         "evaluation needs at least one pair of each label"),
        (f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory\n2\t\ttext\tUnsatisfactory\n",
         "labeled corpus has 1 unscorable pairs"),
    ], ids=["unlabeled-pair", "one-label-only", "unscorable-pair"])
    def test_corpus_evaluate_cannot_use_is_format_error(self, tmp_path, capsys, command, rows,
                                                        message):
        path = tmp_path / "labeled.tsv"
        path.write_text(rows, encoding="utf-8")
        assert main([command, "--pairs", str(path)]) == EXIT_FORMAT
        assert capsys.readouterr().err == f"input error: {message}\n"

    def test_id_opening_with_a_byte_order_mark_is_format_error(self, tmp_path, capsys):
        """Pair 1 is invalid, so "\ufeff2" would open accepted.tsv, whose reader drops
        a file's opening mark; the mark opening the corpus is still dropped."""
        path = tmp_path / "pairs.tsv"
        path.write_text(f"\ufeff1\t\thello\n\ufeff2\t{AR_LINE}\t{EN_LINE}\n", encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(path), "--out-dir", str(out_dir)]) == EXIT_FORMAT
        assert capsys.readouterr().err == (
            f"input error: {path}:2: pair id '\\ufeff2' begins with U+FEFF\n")
        assert not out_dir.exists()

    def test_invalid_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"1\t\xff\xfe\tx\n")
        assert main(["score", "--pairs", str(path)]) == EXIT_FORMAT

    @pytest.mark.parametrize("bad", ["pairs", "arabic", "english", "priming"])
    def test_invalid_utf8_names_file_and_line(self, tmp_path, capsys, bad):
        """The bad byte sits on line 400, past the decoder's first 8 KiB chunk."""
        good = [f"{i}\t{AR_LINE}\t{EN_LINE}" for i in range(1, 400)]
        files = {"pairs": good, "arabic": [AR_LINE] * 399, "english": [EN_LINE] * 399,
                 "priming": [EN_LINE] * 399}
        for name, lines in files.items():
            last = b"400\tx\t\xff" if name == "pairs" else b"x\xff"
            tail = last if name == bad else last.replace(b"\xff", b"y")
            (tmp_path / name).write_bytes("\n".join(lines).encode("utf-8") + b"\n" + tail + b"\n")
        assert (tmp_path / bad).stat().st_size > 8192
        path = {name: str(tmp_path / name) for name in files}
        argv = {
            "pairs": ["score", "--pairs", path["pairs"]],
            "arabic": ["score", "--format", "aligned", "--arabic", path["arabic"],
                       "--english", path["english"]],
            "priming": ["train", "--input", path["priming"], "--out", str(tmp_path / "m.ppm")],
        }
        argv["english"] = argv["arabic"]
        assert main(argv[bad]) == EXIT_FORMAT
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path[bad]}:400: 'utf-8' codec can't decode byte 0xff")

    @pytest.mark.parametrize("bad", ["pairs", "arabic", "english"])
    def test_line_over_the_limit_names_file_and_line(self, tmp_path, capsys, bad):
        """A corpus line of 1,048,577 bytes before its "\\n" exits 3 naming its file
        and line; the loaders read no more than one byte past the limit of a line."""
        over = 1048577
        lines = {"pairs": [f"1\t{AR_LINE}\t{EN_LINE}", "2\tx\t" + "e" * (over - 4)],
                 "arabic": [AR_LINE, "x"], "english": [EN_LINE, "y"]}
        if bad != "pairs":
            lines[bad][1] = "z" * over
        for name, rows in lines.items():
            (tmp_path / name).write_text("\n".join(rows) + "\n", encoding="utf-8")
        assert len((tmp_path / bad).read_bytes().split(b"\n")[1]) == over
        path = {name: str(tmp_path / name) for name in lines}
        argv = (["--pairs", path["pairs"]] if bad == "pairs" else
                ["--format", "aligned", "--arabic", path["arabic"], "--english", path["english"]])
        assert main(["score", *argv]) == EXIT_FORMAT
        assert capsys.readouterr().err == (
            f"input error: {path[bad]}:2: line longer than 1048576 bytes\n")

    @pytest.mark.parametrize("ending", ["\n", ""])
    def test_line_at_the_limit_loads_and_its_long_side_is_invalid(self, tmp_path, ending):
        """A line of exactly 1,048,576 bytes loads, with or without its "\\n"; its
        Arabic side of 65,537 prepared bytes makes the pair invalid as before."""
        head = f"big\t{'س' * 65537}\t"
        row = head + "e" * (1048576 - len(head.encode("utf-8")))
        path = tmp_path / "p.tsv"
        path.write_text("ok\tمرحبا\thello\n" + row + ending, encoding="utf-8")
        assert len(row.encode("utf-8")) == 1048576
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(path), "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["invalid"] == [["big", "arabic side longer than 65536 bytes"]]
        assert report["counts"]["total"] == 2

    def test_alphabet_above_256_dump_is_config_error(self, tmp_path, corpus_tsv, capsys):
        path = tmp_path / "wide.ppm"
        # header: max order 2, alphabet 257, one context; the empty context with 1 entry
        path.write_bytes(b"PPMV1" + bytes([2]) + (257).to_bytes(4, "big") + (1).to_bytes(8, "big")
                         + bytes([0]) + (1).to_bytes(4, "big")
                         + (1).to_bytes(4, "big") + (1).to_bytes(8, "big"))
        assert main(["score", "--pairs", str(corpus_tsv), "--model-a", str(path)]) == EXIT_CONFIG
        assert "alphabet_size must be an integer in 2..256, got 257" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:inf:1", "0:1:1e-12", "1:2"])
    def test_sweep_rejects_unbounded_grid(self, corpus_tsv, capsys, grid):
        assert main(["sweep", "--pairs", str(corpus_tsv), "--grid", grid]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")


def test_readme_python_api_example_runs(tmp_path):
    """The code block under README.md's "## Python API" heading runs as written
    against src/, outside the checkout, and prints an SLR, a CR and a verdict."""
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Python API\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    slr, cr, verdict = proc.stdout.split()
    assert float(slr) >= 1 and float(cr) >= 1, proc.stdout
    assert verdict in ("Satisfactory", "Unsatisfactory"), proc.stdout


def test_readme_table_regeneration_pins_what_it_writes(tmp_path, monkeypatch):
    """README.md's regeneration block, run as printed on a copy of the package whose
    tables are gone and whose pins are stale: its heredoc writes each table from the
    fresh dump and pins its digest, so the copy's defaults load the bundled models."""
    heredoc, env = _run_readme_regeneration(tmp_path, monkeypatch)
    check = ("from bitextverify import cli\n"
             "args = cli.build_parser().parse_args(['filter', '--out-dir', 'unused'])\n"
             "print(*(model.config_hash().hex() for model, _ in cli._load_models(args)))\n")
    for argv, stdin in ((["-"], heredoc), (["-c", check], None)):
        proc = subprocess.run([sys.executable, *argv], input=stdin, cwd=tmp_path, env=env,
                              capture_output=True, text=True, encoding="utf-8", timeout=120)
        assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [digest for *_, digest in BUNDLED]


def test_readme_commands_parse():
    """Each `bitextverify ...` line of README.md's bash blocks, continuation lines
    joined, parses as written, and every command has an example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [part.split("```", 1)[0] for part in readme.split("```bash\n")[1:]]
    commands = [shlex.split(line, comments=True) for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("bitextverify ")]
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {shlex.join(argv)}")
    assert {argv[1] for argv in commands} == {"train", *SCORING}
