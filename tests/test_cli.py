import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import imdner
from imdner import training
from imdner.corpus import parse_conll
from imdner.cli import main

from checkpoint_files import DAMAGED, as_old_version, damage, read_checkpoint, write_checkpoint

TINY_CONFIG = {
    "epochs": 2,
    "batch_size": 8,
    "lstm_hidden": 6,
    "char_embed_dim": 4,
    "char_filter_count": 4,
}


@pytest.fixture(scope="session")
def model_path(tmp_path_factory, data_dir):
    tmp = tmp_path_factory.mktemp("cli_model")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps(TINY_CONFIG))
    out = tmp / "model.ckpt"
    rc = main([
        "train",
        "--corpus", str(data_dir / "toy_corpus.conll"),
        "--embeddings", str(data_dir / "test_embeddings.txt"),
        "--config", str(cfg),
        "--out", str(out),
    ])
    assert rc == 0
    return out


class TestTrain:
    def test_writes_checkpoint_and_history(self, model_path):
        assert model_path.exists()
        history = model_path.parent / (model_path.name + ".history.txt")
        assert history.exists()
        assert len(history.read_text().strip().split("\n")) == TINY_CONFIG["epochs"]

    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["train", "--embeddings", "x", "--out", "y"])
        assert e.value.code == 2

    def test_header_echoes_defaults(self, data_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**TINY_CONFIG, "epochs": 1}))
        main([
            "train",
            "--corpus", str(data_dir / "toy_corpus.conll"),
            "--embeddings", str(data_dir / "test_embeddings.txt"),
            "--config", str(cfg),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        head = capsys.readouterr().out.split("\n")[0]
        assert "learning_rate=0.001" in head
        assert "batch_size=8" in head
        assert "dropout=0.5" in head
        assert "optimizer=adam" in head

    def test_unreadable_corpus_is_runtime_error(self, data_dir, tmp_path, capsys):
        rc = main([
            "train",
            "--corpus", str(tmp_path / "missing.conll"),
            "--embeddings", str(data_dir / "test_embeddings.txt"),
            "--out", str(tmp_path / "m.ckpt"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestEval:
    def test_report_shape(self, model_path, data_dir, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main([
            "eval",
            "--model", str(model_path),
            "--corpus", str(data_dir / "toy_corpus.conll"),
            "--report", str(report_path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "micro avg" in out and "macro avg" in out and "weighted avg" in out
        doc = json.loads(report_path.read_text())
        assert len(doc["per_label"]) == 12

    def test_schema_mismatch_lists_both_label_sets(self, model_path, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("word\tB-Made_Up_Label\n")
        rc = main(["eval", "--model", str(model_path), "--corpus", str(bad)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "Made_Up_Label" in err
        assert "Symptom" in err  # checkpoint's label set is listed too


class TestPredict:
    def test_conll_roundtrip_and_determinism(self, model_path, data_dir, tmp_path):
        out1, out2 = tmp_path / "p1.conll", tmp_path / "p2.conll"
        for out in (out1, out2):
            rc = main([
                "predict",
                "--model", str(model_path),
                "--input", str(data_dir / "toy_corpus.conll"),
                "--out", str(out),
            ])
            assert rc == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert len(out1.read_text().strip().split("\n\n")) >= 20

    def test_empty_input(self, model_path, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        out = tmp_path / "out.conll"
        rc = main(["predict", "--model", str(model_path), "--input", str(empty), "--raw", "--out", str(out)])
        assert rc == 0
        assert out.read_text() == ""

    def test_raw_input_is_tokenized(self, model_path, tmp_path):
        raw = tmp_path / "note.txt"
        raw.write_text("Fever persisted. Prednisone was started.")
        out = tmp_path / "out.conll"
        rc = main(["predict", "--model", str(model_path), "--input", str(raw), "--raw", "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().split("\n") if l.strip()]
        assert lines[0].split("\t")[0] == "Fever"
        assert all(len(l.split("\t")) == 2 for l in lines)

    def test_unreadable_model(self, tmp_path, capsys):
        rc = main(["predict", "--model", str(tmp_path / "nope.ckpt"), "--input", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 1


class TestSplit:
    def test_eight_two_split(self, tmp_path):
        corpus = tmp_path / "ten.conll"
        corpus.write_text("\n-DOCSTART-\n\n".join(f"tok{i}\tO\n" for i in range(10)))
        train_out, test_out = tmp_path / "train.conll", tmp_path / "test.conll"
        rc = main([
            "split", "--corpus", str(corpus), "--test-fraction", "0.2", "--seed", "7",
            "--train-out", str(train_out), "--test-out", str(test_out),
        ])
        assert rc == 0
        n_train = train_out.read_text().count("-DOCSTART-") + 1
        n_test = test_out.read_text().count("-DOCSTART-") + 1
        assert (n_train, n_test) == (8, 2)

    def test_split_is_deterministic(self, tmp_path):
        corpus = tmp_path / "ten.conll"
        corpus.write_text("\n-DOCSTART-\n\n".join(f"tok{i}\tO\n" for i in range(10)))
        outs = []
        for tag in ("a", "b"):
            train_out, test_out = tmp_path / f"train{tag}", tmp_path / f"test{tag}"
            main(["split", "--corpus", str(corpus), "--test-fraction", "0.2", "--seed", "7",
                  "--train-out", str(train_out), "--test-out", str(test_out)])
            outs.append((train_out.read_bytes(), test_out.read_bytes()))
        assert outs[0] == outs[1]

    def test_writes_utf8_under_an_ascii_locale(self, tmp_path):
        corpus = tmp_path / "notes.conll"
        corpus.write_bytes("fièvre\tB-Symptom\n\n-DOCSTART-\n\nnaïve\tO\n".encode())
        train_out, test_out = tmp_path / "train.conll", tmp_path / "test.conll"
        proc = subprocess.run(
            [sys.executable, "-m", "imdner.cli", "split", "--corpus", str(corpus), "--test-fraction", "0.5",
             "--train-out", str(train_out), "--test-out", str(test_out)],
            env={**os.environ, "PYTHONPATH": str(Path(imdner.__file__).resolve().parent.parent),
                 "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        (train,), (test,) = parse_conll(train_out.read_bytes()), parse_conll(test_out.read_bytes())
        assert {train.sentences, test.sentences} == {d.sentences for d in parse_conll(corpus.read_bytes())}


class TestStats:
    def test_counts_match_hand_tally(self, data_dir, capsys):
        rc = main(["stats", "--corpus", str(data_dir / "toy_corpus.conll")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "documents\t4" in out
        assert "sentences\t20" in out
        assert "tokens\t102" in out
        assert "Symptom\t11" in out
        assert "Treatment\t8" in out
        assert "Biomarker\t8" in out


class TestIaa:
    def test_identical_files(self, data_dir, capsys):
        path = str(data_dir / "toy_corpus.conll")
        rc = main(["iaa", "--a", path, "--b", path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "token_agreement_pct\t100.0" in out
        assert "entity_f1_a_as_gold\t1.0000" in out


class TestKg:
    def test_structured_output(self, data_dir, tmp_path):
        out = tmp_path / "graph.json"
        rc = main(["kg", "--corpus", str(data_dir / "sle_narrative.conll"), "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 11
        assert any(e["relation"] == "HAS_SYMPTOM" for e in doc["edges"])

    def test_dot_output_to_stdout(self, data_dir, capsys):
        rc = main(["kg", "--corpus", str(data_dir / "sle_narrative.conll"), "--format", "dot"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2


def _bad_input_case(case, data_dir, tmp_path):
    """argv for one malformed-input case, with its files written to tmp_path."""
    train = ["train", "--corpus", str(data_dir / "toy_corpus.conll"),
             "--embeddings", str(data_dir / "test_embeddings.txt"), "--out", str(tmp_path / "m.ckpt")]
    bad = tmp_path / "bad"
    version = b'{"format_version": %d' % training.CHECKPOINT_VERSION
    if case == "checkpoint-header-without-tensors":
        bad.write_bytes(version + b'}\n')
        return ["eval", "--model", str(bad), "--corpus", str(data_dir / "toy_corpus.conll")]
    if case == "checkpoint-header-nested-too-deep":  # deeper than Python's recursion limit
        bad.write_bytes(version + b', "tensors": [' + b"[" * 1200 + b"]" * 1200 + b"]}\n")
        return ["eval", "--model", str(bad), "--corpus", str(data_dir / "toy_corpus.conll")]
    if case == "config-nested-too-deep":
        bad.write_text("[" * 5000 + "]" * 5000)
        return train + ["--config", str(bad)]
    if case == "config-not-json":
        bad.write_text("{bad")
        return train + ["--config", str(bad)]
    if case == "config-value-of-wrong-type":
        bad.write_text('{"epochs": "x"}')
        return train + ["--config", str(bad)]
    if case == "config-names-an-adam-constant":
        bad.write_text('{"adam_beta1": 0.9}')
        return train + ["--config", str(bad)]
    if case == "config-sets-seed":  # the seed has one source, --seed
        bad.write_text('{"seed": 13, "epochs": 1, "lstm_hidden": 2}')
        return train + ["--config", str(bad), "--seed", "5"]
    if case == "corpus-not-utf8":
        bad.write_bytes("fièvre\tO\n".encode("latin-1"))
        return ["stats", "--corpus", str(bad)]
    if case == "train-negative-seed":
        return train + ["--seed", "-1"]
    if case == "config-network-too-large-for-memory":
        bad.write_text('{"lstm_hidden": 1000000000}')  # refused before any weight is allocated
        return train + ["--config", str(bad)]
    if case == "split-negative-seed":
        return ["split", "--corpus", str(data_dir / "toy_corpus.conll"), "--seed", "-1",
                "--train-out", str(tmp_path / "train.conll"), "--test-out", str(tmp_path / "test.conll")]
    raise AssertionError(case)


@pytest.mark.parametrize("case", [
    "checkpoint-header-without-tensors", "config-not-json", "config-value-of-wrong-type",
    "config-names-an-adam-constant", "corpus-not-utf8", "train-negative-seed", "split-negative-seed",
    "config-network-too-large-for-memory", "checkpoint-header-nested-too-deep", "config-nested-too-deep",
    "config-sets-seed",
])
def test_malformed_input_is_one_error_line_and_exit_1(case, data_dir, tmp_path, capsys):
    rc = main(_bad_input_case(case, data_dir, tmp_path))
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@pytest.mark.parametrize("tag, line", [
    ("B-Foo", "error: unknown label 'Foo' in tag 'B-Foo' (notes.conll line 3)"),
    ("X-Symptom", "error: malformed tag 'X-Symptom' (notes.conll line 3)"),
])
def test_a_bad_tag_is_one_error_line_naming_the_file_and_line(tag, line, tmp_path, capsys):
    notes = tmp_path / "notes.conll"
    notes.write_text(f"Fever\tB-Symptom\n\nrash\t{tag}\n")
    rc = main(["stats", "--corpus", str(notes)])
    assert rc == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError("Unable to allocate 763. MiB for an array with shape (20000, 5000) and data type float64"),
     "error: out of memory: Unable to allocate 763. MiB for an array with shape (20000, 5000) and data type float64"),
    (MemoryError(), "error: out of memory"),
], ids=["numpy-message", "no-message"])
def test_running_out_of_memory_is_one_error_line(error, line, data_dir, tmp_path, capsys, monkeypatch):
    # A network that fits the machine's memory can still fail to allocate,
    # e.g. under a ulimit; numpy then raises MemoryError.
    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(training, "train", out_of_memory)
    rc = main(["train", "--corpus", str(data_dir / "toy_corpus.conll"),
               "--embeddings", str(data_dir / "test_embeddings.txt"), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 1
    assert capsys.readouterr().err == line + "\n"


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("case", sorted(DAMAGED))
def test_damaged_checkpoint_is_one_error_line_naming_it(case, command, model_path, data_dir, tmp_path, capsys):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(model_path.read_bytes())
    named = damage(bad, case)
    corpus = str(data_dir / "toy_corpus.conll")
    if command == "predict":
        rc = main(["predict", "--model", str(bad), "--input", corpus, "--out", str(tmp_path / "out.conll")])
    else:
        rc = main(["eval", "--model", str(bad), "--corpus", corpus])
    err = capsys.readouterr().err
    assert rc == 1
    assert len(err.splitlines()) == 1 and err.startswith("error:") and named in err, err


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("version", [1, 2, 3])
def test_an_old_checkpoint_version_is_one_error_line_naming_both_versions(version, command, model_path, data_dir,
                                                                          tmp_path, capsys):
    old = tmp_path / "old.ckpt"
    old.write_bytes(model_path.read_bytes())
    as_old_version(old, version)
    corpus = str(data_dir / "toy_corpus.conll")
    if command == "predict":
        rc = main(["predict", "--model", str(old), "--input", corpus, "--out", str(tmp_path / "out.conll")])
    else:
        rc = main(["eval", "--model", str(old), "--corpus", corpus])
    assert rc == 1
    assert capsys.readouterr().err == (f"error: checkpoint format version {version} is not supported "
                                       "(this build reads version 4)\n")


@pytest.mark.parametrize("command", ["predict", "eval"])
@pytest.mark.parametrize("tensor, value", [
    ("crf.transitions", 3e38), ("lstm.wh", float("inf")), ("proj_bias", float("nan")), ("proj_weights", 3e38),
    ("char_embeddings", float("inf")), ("conv_bias", -float("inf")), ("embeddings.matrix", float("inf")),
])
def test_overflowing_or_non_finite_weights_give_a_result_or_one_error_line(tensor, value, command, model_path,
                                                                           data_dir, tmp_path):
    # A NaN or an Inf is an error even where tanh or a sigmoid would saturate it
    # to a finite output; 3e38 is a finite float32 and may give a result.
    # In a subprocess, so that numpy's RuntimeWarnings reach stderr instead of pytest's warning capture.
    header, tensors = read_checkpoint(model_path)
    if tensor == "embeddings.matrix":
        assert header["embedding_words"][0] == "fever"  # flat index 0 is in the row of a word in the corpus
    tensors[tensor] = tensors[tensor].copy()
    tensors[tensor].flat[0] = value
    bad = tmp_path / "bad.ckpt"
    write_checkpoint(bad, header, tensors)
    corpus = str(data_dir / "toy_corpus.conll")
    argv = {"predict": ["--input", corpus, "--out", str(tmp_path / "out.conll")], "eval": ["--corpus", corpus]}
    proc = subprocess.run(
        [sys.executable, "-m", "imdner.cli", command, "--model", str(bad), *argv[command]],
        env={**os.environ, "PYTHONPATH": str(Path(imdner.__file__).resolve().parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode == 0 and math.isfinite(value):
        assert proc.stderr == ""
    else:
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:"), proc.stderr


def test_a_warning_is_one_line(model_path, tmp_path):
    # In a subprocess, so that the warning reaches stderr instead of pytest's warning capture.
    raw = tmp_path / "note.txt"
    raw.write_text("fever " * 600)
    proc = subprocess.run(
        [sys.executable, "-m", "imdner.cli", "predict", "--model", str(model_path), "--input", str(raw), "--raw",
         "--out", str(tmp_path / "out.conll")],
        env={**os.environ, "PYTHONPATH": str(Path(imdner.__file__).resolve().parent.parent)},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == "warning: splitting a 600-token sentence at the 512-token boundary\n"


# Fragments of CoNLL text, good and bad, so that random joins reach past the
# UTF-8 decoder and the line splitter into tags, spans and the graph.
_TEXTS = [b"SLE", b"pain", b"C:\\", b'"', b"\xc3\xa9", b"\x00", b" ", b"\x0b", b"\r", b"\xff", b"\xef\xbb\xbf", b""]
_TAGS = [b"O", b"B-Symptom", b"I-Symptom", b"B-Immune_Mediated_Disease", b"I-Immune_Mediated_Disease", b"B-Nope",
         b"I-", b"X-Symptom", b"O\tO"]
_LINE = st.builds(lambda text, tag: text + b"\t" + tag, st.sampled_from(_TEXTS), st.sampled_from(_TAGS))
_CORPUS_BYTES = (
    st.binary(max_size=200)
    | st.lists(st.sampled_from([*_TEXTS, *_TAGS, b"\t", b"\n", b"\r\n", b"-DOCSTART-"]), max_size=60).map(b"".join)
    | st.lists(_LINE | st.sampled_from([b"", b"-DOCSTART-"]), max_size=30).map(b"\n".join)
)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CORPUS_BYTES, argv=st.sampled_from([["kg"], ["kg", "--format", "dot"], ["kg", "--window", "0"],
                                                  ["kg", "--window", "-1"], ["stats"]]))
@example(data=b"C:\\\tB-Symptom\nSLE\tB-Immune_Mediated_Disease\n", argv=["kg", "--format", "dot"])
@example(data=b"a\tI-Symptom\n", argv=["stats"])
@example(data=b"\xef\xbb\xbf-DOCSTART-\r\n\r\n", argv=["kg"])
def test_any_corpus_bytes_give_a_result_or_one_error_line(data, argv, tmp_path):
    corpus, out = tmp_path / "corpus.conll", tmp_path / "out"
    corpus.write_bytes(data)
    out.unlink(missing_ok=True)  # tmp_path is shared by every example
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main([*argv, "--corpus", str(corpus), "--out", str(out)])
    err = err.getvalue()
    if rc == 0:
        assert err == "" and out.exists()
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


_GOOD_CORPUS = b"SLE\tB-Immune_Mediated_Disease\n"


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CORPUS_BYTES, fuzzed=st.sampled_from(["--a", "--b"]))
@example(data=b"\xef\xbb\xbfSLE\tO\r\n", fuzzed="--a")
@example(data=b"SLE\tB-Symptom\n\n-DOCSTART-\n", fuzzed="--b")
@example(data=b"SLE\tI-Symptom\n", fuzzed="--b")
@example(data=b"C:\\\tO\n", fuzzed="--a")
def test_iaa_with_any_bytes_on_one_side_gives_a_result_or_one_error_line(data, fuzzed, tmp_path):
    files = {"--a": tmp_path / "a.conll", "--b": tmp_path / "b.conll"}
    for flag, path in files.items():
        path.write_bytes(data if flag == fuzzed else _GOOD_CORPUS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["iaa", "--a", str(files["--a"]), "--b", str(files["--b"])])
    out, err = out.getvalue(), err.getvalue()
    if rc == 0:
        assert err == ""
        assert [line.split("\t")[0] for line in out.splitlines()] == [
            "token_agreement_pct", "entity_f1_a_as_gold", "token_count"
        ]
    else:
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_CORPUS_BYTES, command=st.sampled_from(["predict", "predict-raw", "eval"]))
@example(data=b"SLE\tB-Immune_Mediated_Disease\npain\tI-Immune_Mediated_Disease\n", command="eval")
@example(data=b"SLE\tB-Nope\n", command="predict")
@example(data=b"\xff", command="predict-raw")
@example(data=b"\xef\xbb\xbf \x0b\r\n", command="predict-raw")
def test_predict_and_eval_with_any_bytes_give_a_result_or_one_error_line(data, command, model_path, tmp_path):
    corpus, out = tmp_path / "corpus.conll", tmp_path / "out.conll"
    corpus.write_bytes(data)
    out.unlink(missing_ok=True)  # tmp_path is shared by every example
    argv = {
        "predict": ["predict", "--input", str(corpus), "--out", str(out)],
        "predict-raw": ["predict", "--raw", "--input", str(corpus), "--out", str(out)],
        "eval": ["eval", "--corpus", str(corpus)],
    }[command]
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        rc = main([*argv, "--model", str(model_path)])
    err = err.getvalue()
    if rc == 0:
        assert err == ""
        assert out.exists() if command != "eval" else stdout.getvalue()
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


_JSON_VALUE = (st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3)
               | st.lists(st.integers(0, 3), max_size=2)
               | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
_DIMENSIONS = st.lists(st.integers(0, 12) | st.sampled_from([1.0, 4.0, True]), max_size=3)
_HEADER_EDITS = ["delete", "retype", "rename", "redimension", "drop", "duplicate", "swap"]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_predict_and_eval_with_a_mutated_checkpoint_header_give_a_result_or_one_error_line(data, model_path,
                                                                                          data_dir, tmp_path):
    # One to three edits of the toy model's header: a field of it deleted or
    # retyped, or a tensor entry renamed, re-dimensioned, dropped, duplicated
    # or swapped with another (its payload moves with it).
    header, tensors = read_checkpoint(model_path)
    listing = header["tensors"]
    for edit in data.draw(st.lists(st.sampled_from(_HEADER_EDITS), min_size=1, max_size=3)):
        i, j = (data.draw(st.integers(0, len(listing) - 1)) for _ in range(2))
        if edit in ("delete", "retype"):
            key = data.draw(st.sampled_from(sorted(header.keys() - {"tensors"})))
            if edit == "delete":
                del header[key]
            else:
                header[key] = data.draw(_JSON_VALUE)
        elif edit == "rename":
            name = data.draw(st.sampled_from([*tensors, "attention.wq", ""]))
            tensors.setdefault(name, tensors[listing[i][0]])
            listing[i] = [name, listing[i][1]]
        elif edit == "redimension":
            listing[i] = [listing[i][0], data.draw(_DIMENSIONS)]
        elif edit == "drop":
            del listing[i]
        elif edit == "duplicate":
            listing.insert(i, listing[i])
        elif edit == "swap":
            listing[i], listing[j] = listing[j], listing[i]
    bad, out = tmp_path / "bad.ckpt", tmp_path / "out.conll"
    write_checkpoint(bad, header, tensors, listing)
    corpus = str(data_dir / "toy_corpus.conll")
    for argv in (["predict", "--input", corpus, "--out", str(out)], ["eval", "--corpus", corpus]):
        stdout, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
            rc = main([*argv, "--model", str(bad)])
        err = err.getvalue()
        if rc == 0:
            assert err == ""
        else:
            assert rc == 1
            assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# Each example is a valid config that sets every size small, so that no
# example builds a large network or trains for long, perhaps with one bad
# entry: a value out of range or of the wrong type, an unknown key or a key
# the config may not set.
_CONFIG_SIZES = {"epochs": 2, "lstm_hidden": 8, "char_embed_dim": 8, "char_filter_count": 8}
_CONFIG_INTS = {**_CONFIG_SIZES, "batch_size": 9}
_CONFIG_OPTIONAL = ["batch_size", "char_filter_width", "learning_rate", "dropout_rate"]
_CONFIG_KNOWN = [*_CONFIG_SIZES, *_CONFIG_OPTIONAL]
_WRONG_TYPE = st.none() | st.booleans() | st.text(max_size=3) | st.lists(st.integers(0, 3), max_size=2)


def _good_value(key):
    if key in _CONFIG_INTS:
        return st.integers(1, _CONFIG_INTS[key])
    if key == "char_filter_width":
        return st.sampled_from([1, 3, 5])
    return st.floats(1e-4, 0.5) if key == "learning_rate" else st.floats(0, 0.9)


def _bad_value(key):
    if key in _CONFIG_INTS or key == "char_filter_width":
        return st.integers(-1, 0) | st.sampled_from([2, 4]) | st.floats(0, 4) | _WRONG_TYPE
    if key in _CONFIG_KNOWN:
        return st.sampled_from([-0.5, 0, 1, 1.5, math.nan, math.inf]) | _WRONG_TYPE
    return st.integers(0, 4) | _WRONG_TYPE


def _entries(keys, value):
    return st.sampled_from(keys).flatmap(lambda key: st.tuples(st.just(key), value(key)))


_CONFIG = st.builds(
    lambda sizes, good, bad: {**sizes, **dict(good), **dict(bad)},
    st.fixed_dictionaries({key: _good_value(key) for key in _CONFIG_SIZES}),
    st.lists(_entries(_CONFIG_OPTIONAL, _good_value), max_size=3),
    st.lists(_entries([*_CONFIG_KNOWN, "num_tags", "word_dim", "seed", "adam_beta1", "hidden"], _bad_value),
             max_size=1),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config=_CONFIG)
@example(config={"epochs": 1, "lstm_hidden": 2, "dropout_rate": 0})
@example(config={"epochs": 1, "lstm_hidden": 2, "learning_rate": 0.5, "batch_size": 1})
@example(config={"epochs": 1, "lstm_hidden": 4, "lstm": 4})
@example(config={"epochs": 2.0})
@example(config={"epochs": 1, "char_filter_width": 2})
@example(config={"epochs": 1, "dropout_rate": math.nan})
@example(config=[1])  # JSON, but not an object
def test_any_train_config_gives_a_result_or_one_error_line(config, data_dir, tmp_path):
    cfg, model = tmp_path / "config.json", tmp_path / "m.ckpt"
    history = Path(str(model) + ".history.txt")
    cfg.write_text(json.dumps(config))
    model.unlink(missing_ok=True)  # tmp_path is shared by every example
    history.unlink(missing_ok=True)
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        rc = main(["train", "--corpus", str(data_dir / "toy_corpus.conll"),
                   "--embeddings", str(data_dir / "test_embeddings.txt"),
                   "--config", str(cfg), "--out", str(model)])
    err = err.getvalue()
    if rc == 0:
        assert err == "" and model.exists() and history.exists()
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


# Embedding files that are mostly well formed, so that most examples train:
# lines of one width, with words of the corpus in any case, numbers good and
# bad, a count header, a BOM and blank or CR lines among them.
_EMB_WORDS = [b"fever", b"Fever", b"SLE", b"pain", b"\xc3\xa9", b"\xff", b"\x00", b"-DOCSTART-", b""]
_EMB_VALUES = [b"0.1", b"-2", b"1e-3", b"0", b"0.5", b"-0.25", b"3"] * 3 + [b"nan", b"-inf", b"1e39", b"x", b""]
_EMB_OTHER_LINES = [b"", b"2 2", b"\r", b"\xef\xbb\xbf", b"fever\t0.1"]


def _embedding_lines(dim):
    line = st.builds(lambda word, values: b" ".join([word, *values]), st.sampled_from(_EMB_WORDS),
                     st.lists(st.sampled_from(_EMB_VALUES), min_size=dim, max_size=dim))
    return st.lists(line | st.sampled_from(_EMB_OTHER_LINES), max_size=6).map(b"\n".join)


_EMBEDDING_BYTES = st.binary(max_size=200) | st.integers(1, 3).flatmap(_embedding_lines)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_EMBEDDING_BYTES)
@example(data=b"fever 0.1 0.2\nrash 0.3 0.4\n")
@example(data=b"\xef\xbb\xbf2 2\r\nFever 1 2\r\n")
@example(data=b"fever nan\n")
@example(data=b"fever 1e39 -inf\n")
@example(data=b"fever 0.1\nrash 0.1 0.2\n")
@example(data=b"")
def test_any_embedding_bytes_give_a_result_or_one_error_line(data, data_dir, tmp_path):
    emb, cfg, model = tmp_path / "emb.txt", tmp_path / "config.json", tmp_path / "m.ckpt"
    emb.write_bytes(data)
    cfg.write_text(json.dumps({"epochs": 1, "batch_size": 32, "lstm_hidden": 2, "char_embed_dim": 2,
                               "char_filter_count": 2}))
    model.unlink(missing_ok=True)  # tmp_path is shared by every example
    stdout, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
        rc = main(["train", "--corpus", str(data_dir / "toy_corpus.conll"), "--embeddings", str(emb),
                   "--config", str(cfg), "--out", str(model)])
    err = err.getvalue()
    if rc == 0:
        assert err == "" and model.exists()
    else:
        assert rc == 1
        assert len(err.splitlines()) == 1 and err.startswith("error:"), err


def test_import_loads_no_scipy():
    src = Path(imdner.__file__).resolve().parent.parent
    code = "import imdner, imdner.cli, sys; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
