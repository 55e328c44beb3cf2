import hashlib
import json
import os
import shutil
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fnmatch import fnmatchcase
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bitextverify import cli
from bitextverify import corpus
from bitextverify.cli import EXIT_CONFIG, EXIT_FORMAT, EXIT_IO, fmt_pct, main, parse_grid
from bitextverify.ppm import PpmModel
from bitextverify.preprocess import ARABIC_NUMERIC, IDENTITY

AR_LINE = "ذهب رجل الى السوق ليشتري الخبز والفاكهة."
EN_LINE = "A man went to the market to buy bread and fruit."
GOLDEN = Path(__file__).parent / "data" / "filter_golden"
PACKAGE_DATA = Path(cli.__file__).parent / "data"
# (language, the transform its shipped dump was primed with, hash of that dump)
BUNDLED = (
    ("arabic", ARABIC_NUMERIC, "3904117a500a0e60"),
    ("english", IDENTITY, "c17e2503c48e1d54"),
)
REGENERATE = (
    "bitextverify train --input src/bitextverify/data/arabic.txt --transform arabic-numeric"
    " --out src/bitextverify/data/arabic.ppm",
    "bitextverify train --input src/bitextverify/data/english.txt"
    " --out src/bitextverify/data/english.ppm",
)
SCORING = ("score", "evaluate", "sweep", "filter", "stats")


def _refuse_training(self, text):
    raise AssertionError("a scoring run must load its models, not prime them")


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


class TestTrain:
    def test_train_writes_model_and_reports(self, tmp_path, capsys):
        src = tmp_path / "corpus.txt"
        src.write_text("line one here\nline two here\n", encoding="utf-8")
        out = tmp_path / "model.ppm"
        assert main(["train", "--input", str(src), "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "2 texts" in printed and "26 symbols" in printed and "order-0 total 26" in printed
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

    def test_byte_outside_alphabet_names_file_and_line(self, tmp_path, capsys):
        """A priming byte the alphabet cannot hold is an input error at its line."""
        src = tmp_path / "priming.txt"
        src.write_text("plain ascii\nnaïve\n", encoding="utf-8")
        out = tmp_path / "m.ppm"
        argv = ["train", "--input", str(src), "--out", str(out), "--alphabet", "128"]
        assert main(argv) == EXIT_FORMAT
        assert capsys.readouterr().err == (
            f"input error: {src}:2: symbol 195 outside alphabet of size 128\n")
        assert not out.exists()


class TestModelLoading:
    def test_bundled_model_hashes(self):
        """The models the filter command's defaults load, by the loader the bench uses."""
        args = cli.build_parser().parse_args(["filter", "--out-dir", "unused"])
        for (model, model_id), (language, _, digest) in zip(cli._load_models(args), BUNDLED):
            assert (model_id, model.config_hash().hex()) == (f"bundled:{language}", digest)

    def test_shipped_dumps_equal_a_fresh_priming(self, tmp_path, monkeypatch):
        """The README's regeneration commands, run verbatim on a copy of the desk
        corpora, write the shipped dumps byte for byte."""
        stale = "data/*.ppm no longer match data/*.txt; regenerate both with\n  " + "\n  ".join(
            REGENERATE)
        data = tmp_path / "src" / "bitextverify" / "data"
        data.mkdir(parents=True)
        for language, *_ in BUNDLED:
            shutil.copy(PACKAGE_DATA / f"{language}.txt", data)
        monkeypatch.chdir(tmp_path)
        for command in REGENERATE:
            assert main(command.split()[1:]) == 0
        for language, _, digest in BUNDLED:
            fresh = (data / f"{language}.ppm").read_bytes()
            shipped = (PACKAGE_DATA / f"{language}.ppm").read_bytes()
            assert fresh == shipped, stale
            assert PpmModel.loads(fresh).config_hash().hex() == digest, stale
            assert hashlib.sha256(shipped).hexdigest()[:16] == digest, stale

    def test_default_filter_never_primes(self, tmp_path, corpus_tsv, monkeypatch):
        monkeypatch.setattr(PpmModel, "train", _refuse_training)
        out = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out)]) == 0
        models = json.loads((out / "report.json").read_text(encoding="utf-8"))["models"]
        assert models == {language: {"id": f"bundled:{language}", "hash": digest}
                          for language, _, digest in BUNDLED}

    # the hashes of the desk-corpus models primed at order 3, and of the Arabic one
    # primed without the arabic-numeric transform
    @pytest.mark.parametrize("order, transform, digests", [
        ("3", ARABIC_NUMERIC, ["1c67455b8e1b9e14", "adedb43186074d5c"]),
        ("5", IDENTITY, ["84214cb98949873b", "c17e2503c48e1d54"]),
    ], ids=["order-3", "transform-identity"])
    def test_train_primes_other_parameters(self, tmp_path, corpus_tsv, monkeypatch, order,
                                           transform, digests):
        """Another order or Arabic transform: prime with train, score with the model files."""
        models = {}
        for language, side_transform in (("arabic", transform), ("english", IDENTITY)):
            models[language] = str(tmp_path / f"{language}.ppm")
            assert main(["train", "--input", str(PACKAGE_DATA / f"{language}.txt"),
                         "--order", order, "--transform", side_transform,
                         "--out", models[language]]) == 0
        monkeypatch.setattr(PpmModel, "train", _refuse_training)
        out = tmp_path / "out"
        assert main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out),
                     "--transform", transform,
                     "--model-a", models["arabic"], "--model-e", models["english"]]) == 0
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert [report["models"][language] for language in ("arabic", "english")] == [
            {"id": models[language], "hash": digest} for language, digest in zip(models, digests)]

    @pytest.mark.parametrize("command", SCORING)
    def test_other_transform_needs_a_model_file(self, tmp_path, corpus_tsv, monkeypatch,
                                                capsys, command):
        """The bundled Arabic model is primed with arabic-numeric; no other transform
        primes one in its place."""
        monkeypatch.setattr(PpmModel, "train", _refuse_training)
        out = tmp_path / "out"
        extra = ["--out-dir", str(out)] if command == "filter" else []
        assert main([command, "--pairs", str(corpus_tsv), "--transform", IDENTITY,
                     *extra]) == EXIT_CONFIG
        assert "--model-a" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_dump_is_io_error(self, tmp_path, corpus_tsv, monkeypatch, capsys):
        """No fallback: a default run without its shipped dump fails, it does not prime."""
        data = tmp_path / "data"
        data.mkdir()
        for name in ("arabic.txt", "english.txt", "english.ppm"):
            shutil.copy(PACKAGE_DATA / name, data / name)
        monkeypatch.setattr(cli, "DATA_DIR", str(data))
        monkeypatch.setattr(PpmModel, "train", _refuse_training)
        args = ["filter", "--pairs", str(corpus_tsv), "--out-dir", str(tmp_path / "out")]
        assert main(args) == EXIT_IO
        assert "arabic.ppm" in capsys.readouterr().err

    def test_every_data_file_is_package_data(self):
        """Each file under data/ matches a [tool.setuptools.package-data] pattern,
        so a wheel ships it (read as text: 3.10 has no tomllib)."""
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        lines = pyproject.read_text(encoding="utf-8").splitlines()
        section = lines[lines.index("[tool.setuptools.package-data]") + 1:]
        line = next(line for line in section if line.startswith("bitextverify ="))
        patterns = json.loads(line.partition("=")[2])
        files = [f"data/{path.name}" for path in PACKAGE_DATA.iterdir()]
        assert {f"data/{lang}.{ext}" for lang, *_ in BUNDLED for ext in ("ppm", "txt")} <= set(files)
        assert [f for f in files if not any(fnmatchcase(f, p) for p in patterns)] == []

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

    def test_identical_pair_satisfactory(self, tmp_path):
        # identical pipeline on both sides: same model, identity transform
        src = tmp_path / "prime.txt"
        src.write_text("some shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tsame text\tsame text\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        main(["score", "--pairs", str(pairs), "--out", str(out),
              "--model-a", str(model), "--model-e", str(model), "--transform", "identity"])
        row = out.read_text(encoding="utf-8").splitlines()[1].split("\t")
        assert row[5] == "1.0000" and row[6] == "1.0000" and row[7] == "Satisfactory"

    def test_empty_side_routed_to_invalid(self, tmp_path):
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tنص\ttext\n2\t\tenglish only\n", encoding="utf-8")
        out = tmp_path / "s.tsv"
        invalid = tmp_path / "inv.tsv"
        code = main(["score", "--pairs", str(pairs), "--out", str(out), "--invalid-out", str(invalid)])
        assert code == 0
        assert len(out.read_text(encoding="utf-8").splitlines()) == 2  # header + pair 1
        assert invalid.read_text(encoding="utf-8").splitlines() == ["2\tempty arabic side"]

    def test_deterministic_across_runs(self, tmp_path, corpus_tsv):
        outs = []
        for name in ("a.tsv", "b.tsv"):
            out = tmp_path / name
            main(["score", "--pairs", str(corpus_tsv), "--out", str(out)])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_scatter_export(self, tmp_path, corpus_tsv):
        out = tmp_path / "s.tsv"
        scatter = tmp_path / "scatter.tsv"
        main(["score", "--pairs", str(corpus_tsv), "--out", str(out), "--scatter", str(scatter)])
        lines = scatter.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "len_a\tlen_e\tbits_a\tbits_e\tverdict"
        assert len(lines) == 5

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

    def test_jobs_byte_identical(self, tmp_path, corpus_tsv):
        outputs = []
        for jobs, name in (("1", "one"), ("2", "two")):
            out_dir = tmp_path / name
            main(["filter", "--pairs", str(corpus_tsv), "--out-dir", str(out_dir), "--jobs", jobs])
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

    def test_self_paired_corpus_reports_full_acceptance(self, tmp_path):
        src = tmp_path / "prime.txt"
        src.write_text("shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("".join(f"{i}\ttext {i}\ttext {i}\n" for i in range(10)), encoding="utf-8")
        out_dir = tmp_path / "out"
        assert main(["filter", "--pairs", str(pairs), "--model-a", str(model), "--model-e",
                     str(model), "--transform", "identity", "--out-dir", str(out_dir)]) == 0
        report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
        assert report["percentages"] == {"accepted": 100.0, "rejected": 0.0}
        assert report["counts"]["accepted"] == 10

    def test_serial_run_skips_multiprocessing(self, tmp_path, corpus_tsv):
        """Importing the CLI and a --jobs 1 filter never import multiprocessing,
        nor dataclasses and the inspect module it pulls in (records are
        NamedTuples), nor fractions and decimal (only exact accuracies and their
        printing use them), nor importlib.resources, pathlib, tempfile and
        shutil (the bundled files are found with os.path; only argparse's help
        formatter imports shutil, once the parser is built). Then, with every
        package module imported, each top-level module the package brought in
        is from the standard library. Runs in a fresh interpreter without site
        (-S): the test runner may have imported them here, and site's .pth
        files may import them too."""
        out_dir = tmp_path / "out"
        modules = ("multiprocessing", "dataclasses", "inspect", "fractions", "decimal",
                   "importlib.resources", "pathlib", "tempfile", "shutil")
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
        src = str(Path(cli.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out_dir / "report.json").exists()


class TestStats:
    def test_self_paired_zero_percent(self, tmp_path, capsys):
        src = tmp_path / "prime.txt"
        src.write_text("shared priming text\n", encoding="utf-8")
        model = tmp_path / "m.ppm"
        main(["train", "--input", str(src), "--out", str(model)])
        pairs = tmp_path / "p.tsv"
        pairs.write_text("1\tsame\tsame\n2\talso same\talso same\n", encoding="utf-8")
        assert main(["stats", "--pairs", str(pairs), "--model-a", str(model),
                     "--model-e", str(model), "--transform", "identity"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1].split("\t") == ["overall", "2", "0.00", "0.00"]

    def test_category_rows(self, tmp_path, capsys):
        pairs = tmp_path / "p.tsv"
        pairs.write_text(
            "1\tنص\ttext\tSatisfactory\tnews\n2\tنص اخر\tmore text\tSatisfactory\tsport\n",
            encoding="utf-8",
        )
        main(["stats", "--pairs", str(pairs)])
        out = capsys.readouterr().out
        assert "news" in out and "sport" in out and "overall" in out


class TestParser:
    def test_scoring_commands_share_defaults(self):
        parser = cli.build_parser()
        shared = {"pairs": None, "format": "tsv", "arabic": None, "english": None,
                  "model_a": None, "model_e": None, "transform": ARABIC_NUMERIC,
                  "jobs": 1}
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
        """--alphabet and --order shape a model, so only train takes them."""
        extra = ["--out-dir", str(tmp_path / "out")] if command == "filter" else []
        assert main([command, "--pairs", str(corpus_tsv), flag, "3", *extra]) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


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

    def test_unknown_flag_value_is_usage_error(self, corpus_tsv):
        assert main(["score", "--pairs", str(corpus_tsv), "--transform", "rot13"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_config_error(self, tmp_path, corpus_tsv, jobs):
        out_dir = tmp_path / "out"
        args = ["--pairs", str(corpus_tsv), "--jobs", jobs]
        assert main(["score", *args]) == EXIT_CONFIG
        assert main(["filter", *args, "--out-dir", str(out_dir)]) == EXIT_CONFIG
        assert not out_dir.exists()

    def test_missing_required_input_is_config_error(self):
        assert main(["score"]) == EXIT_CONFIG

    def test_corrupt_model_is_config_error(self, tmp_path, corpus_tsv):
        model = PpmModel(2, 256)
        model.train(b"abc")
        data = bytearray(model.dumps())
        data[5] = 1  # max_order 1 under a dumped context of length 2
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        assert main(["score", "--pairs", str(corpus_tsv), "--model-a", str(path)]) == EXIT_CONFIG

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
    @pytest.mark.parametrize("rows", [
        f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory\n2\t{AR_LINE}\t{EN_LINE}\n",
        f"1\t{AR_LINE}\t{EN_LINE}\tSatisfactory\n2\tنص\ttext\tSatisfactory\n",
    ], ids=["unlabeled-pair", "one-label-only"])
    def test_corpus_evaluate_cannot_use_is_format_error(self, tmp_path, capsys, command, rows):
        path = tmp_path / "labeled.tsv"
        path.write_text(rows, encoding="utf-8")
        assert main([command, "--pairs", str(path)]) == EXIT_FORMAT
        assert capsys.readouterr().err.startswith("input error: ")

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

    def test_alphabet_above_256_dump_is_config_error(self, tmp_path, corpus_tsv, capsys):
        path = tmp_path / "wide.ppm"
        # header: max order 2, alphabet 257, one context; the empty context with 1 entry
        path.write_bytes(b"PPMV1" + bytes([2]) + (257).to_bytes(4, "big") + (1).to_bytes(8, "big")
                         + bytes([0]) + (1).to_bytes(4, "big")
                         + (1).to_bytes(4, "big") + (1).to_bytes(8, "big"))
        assert main(["score", "--pairs", str(corpus_tsv), "--model-a", str(path)]) == EXIT_CONFIG
        assert "alphabet_size must be an integer in 2..256, got 257" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["1:inf:1", "0:1:1e-12"])
    def test_sweep_rejects_unbounded_grid(self, corpus_tsv, capsys, grid):
        assert main(["sweep", "--pairs", str(corpus_tsv), "--grid", grid]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("configuration error: ")
