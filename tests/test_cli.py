"""Command-line surface: subcommands, formats, exit codes, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mrtl.cli as cli
from conftest import blas_threads_env, refuse_to_allocate
from mrtl.data import SynthSpec, compact_corpus, serialize_corpus
from mrtl.engine import Hyperparams, NumericalDivergenceError
from mrtl.linalg import SparseCorpus


SMALL = [
    "--features", "30", "--classes", "2", "--num-targets", "2",
    "--n-source", "20", "--n-target", "12", "--k1", "2", "--k2", "4",
    "--noise", "0.5", "--domain-shift", "0.3",
]


def synth(out, seed=0, extra=()):
    rc = cli.main(["synth", *SMALL, "--seed", str(seed), "--out", str(out), *extra])
    assert rc == 0
    return out


def train_args(src_dir, out, extra=()):
    return [
        "train",
        "--source", str(src_dir / "source.txt"),
        "--target", str(src_dir / "target_1.txt"),
        "--target", str(src_dir / "target_2.txt"),
        "--truth", str(src_dir / "truth_1.txt"),
        "--truth", str(src_dir / "truth_2.txt"),
        "--k1", "2", "--k2", "4", "--maxiter", "8",
        "--out", str(out),
        *extra,
    ]


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def test_synth_writes_expected_files(tmp_path):
    out = synth(tmp_path / "d")
    names = sorted(os.listdir(out))
    assert names == [
        "manifest.txt", "source.txt", "target_1.txt", "target_2.txt",
        "truth_1.txt", "truth_2.txt",
    ]
    for p in (1, 2):
        records = read(out / f"target_{p}.txt").strip().splitlines()
        assert records[0] == "30 12 2"
        assert len(records) == 13
        assert all(r.split()[0] == "0" for r in records[1:])
        labels = [int(v) for v in read(out / f"truth_{p}.txt").split()]
        assert len(labels) == 12
        assert all(1 <= v <= 2 for v in labels)
    src = read(out / "source.txt").strip().splitlines()
    assert src[0] == "30 20 2"
    assert all(r.split()[0] in ("1", "2") for r in src[1:])


def test_synth_regeneration_byte_identical(tmp_path):
    a = synth(tmp_path / "a", seed=3)
    b = synth(tmp_path / "b", seed=3)
    for name in os.listdir(a):
        if name == "manifest.txt":
            continue  # embeds the out path
        assert read(a / name) == read(b / name), name


def test_synth_invalid_spec_exits_2(tmp_path, capsys):
    rc = cli.main([
        "synth", "--features", "30", "--k1", "8", "--k2", "4",
        "--out", str(tmp_path / "x"),
    ])
    assert rc == 2
    assert "k1" in capsys.readouterr().err


def test_train_outputs_and_trace(tmp_path):
    src = synth(tmp_path / "data")
    out = tmp_path / "run"
    assert cli.main(train_args(src, out)) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "manifest.txt", "metrics.txt", "predictions_1.txt",
        "predictions_2.txt", "trace.csv",
    ]
    assert not any(n.endswith(".tmp") for n in names)

    lines = read(out / "trace.csv").strip().splitlines()
    assert lines[0] == "iter,objective,log10_objective,acc_1,acc_2"
    assert len(lines) == 9  # header + maxiter rows
    obj = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(obj, obj[1:]))
    iters = [int(line.split(",")[0]) for line in lines[1:]]
    assert iters == list(range(1, 9))

    for p in (1, 2):
        preds = read(out / f"predictions_{p}.txt").split()
        assert len(preds) == 12
        assert all(v in ("1", "2") for v in preds)

    metrics = read(out / "metrics.txt")
    assert "baseline=mrtl" in metrics
    assert "average_accuracy=" in metrics
    manifest = read(out / "manifest.txt")
    assert "command=train" in manifest and "seed=0" in manifest


def test_train_rerun_byte_identical(tmp_path):
    src = synth(tmp_path / "data")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(train_args(src, out1)) == 0
    assert cli.main(train_args(src, out2)) == 0
    assert read(out1 / "trace.csv") == read(out2 / "trace.csv")
    for p in (1, 2):
        assert read(out1 / f"predictions_{p}.txt") == read(
            out2 / f"predictions_{p}.txt"
        )


def test_train_labeled_targets_give_accuracy(tmp_path):
    # labels inside the target corpora replace --truth files
    src = synth(tmp_path / "data")
    from mrtl.data import load_corpus, serialize_corpus

    X, _ = load_corpus(src / "target_1.txt")
    labels = [int(v) for v in read(src / "truth_1.txt").split()]
    with open(src / "target_labeled.txt", "w", encoding="utf-8") as fh:
        fh.write(serialize_corpus(X, 2, labels=labels))
    out = tmp_path / "run"
    rc = cli.main([
        "train",
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_labeled.txt"),
        "--k1", "2", "--k2", "4", "--maxiter", "3",
        "--out", str(out),
    ])
    assert rc == 0
    assert "accuracy_1=" in read(out / "metrics.txt")
    assert read(out / "trace.csv").splitlines()[0].endswith(",acc_1")


def test_train_labeled_target_class_count_mismatch_exits_3(tmp_path, capsys):
    # labels 1..3 cannot be scored against a 2-class source
    src = synth(tmp_path / "data")
    target = tmp_path / "target_c3.txt"
    target.write_text("30 2 3\n1 1:1.0\n3 2:1.0\n")
    rc = cli.main([
        "train",
        "--source", str(src / "source.txt"),
        "--target", str(target),
        "--k1", "2", "--k2", "4", "--maxiter", "3",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert (f"line 1: labeled target {target} has 3 classes but the source has 2"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_truth_shorter_than_its_target_exits_3(tmp_path, capsys, command):
    src = synth(tmp_path / "data")
    truth = tmp_path / "truth_short.txt"
    truth.write_text("1\n2\n1\n2\n1\n")
    args = (train_args(src, tmp_path / "run") if command == "train"
            else sweep_args(src, tmp_path / "run", "--sweep-lambda", "1"))
    args[args.index(str(src / "truth_1.txt"))] = str(truth)
    assert cli.main(args) == 3
    assert (f"error: 5 truth labels in {truth} vs 12 instances in "
            f"{src / 'target_1.txt'}" in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_target_feature_count_mismatch_exits_3(tmp_path, capsys):
    src = synth(tmp_path / "data")
    target = tmp_path / "target_m40.txt"
    target.write_text("40 2 2\n0 1:1.0\n0 40:1.0\n")
    args = train_args(src, tmp_path / "run")
    args[args.index(str(src / "target_2.txt"))] = str(target)
    assert cli.main(args) == 3
    assert (f"line 1: target {target} has 40 features but the source has 30"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_source_with_one_class_exits_3(tmp_path, capsys):
    src = synth(tmp_path / "data")
    source = tmp_path / "source_c1.txt"
    source.write_text("30 2 1\n1 1:1.0\n1 2:1.0\n")
    args = train_args(src, tmp_path / "run")
    args[args.index(str(src / "source.txt"))] = str(source)
    assert cli.main(args) == 3
    assert (f"line 1: source {source} has 1 class, need at least 2"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep"])
def test_unlabeled_source_exits_3(tmp_path, capsys, command):
    src = synth(tmp_path / "data")
    source = tmp_path / "source_unlabeled.txt"
    source.write_text("30 2 2\n0 1:1.0\n0 2:1.0\n")
    args = (train_args(src, tmp_path / "run") if command == "train"
            else sweep_args(src, tmp_path / "run", "--sweep-lambda", "1"))
    args[args.index(str(src / "source.txt"))] = str(source)
    assert cli.main(args) == 3
    assert (f"error: line 2: source {source} is unlabeled (label 0), but the "
            f"source must be labeled" in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_train_without_truth_has_no_accuracy(tmp_path):
    src = synth(tmp_path / "data")
    out = tmp_path / "run"
    rc = cli.main([
        "train",
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_1.txt"),
        "--k1", "2", "--k2", "4", "--maxiter", "3",
        "--out", str(out),
    ])
    assert rc == 0
    assert read(out / "trace.csv").splitlines()[0] == "iter,objective,log10_objective"
    assert "accuracy_1=" not in read(out / "metrics.txt")


def test_train_k1_may_equal_but_not_exceed_k2(tmp_path, capsys):
    # Hyperparams holds the one k1 rule: k1 == k2, no domain-specific
    # cluster, runs; later flag occurrences win, so these run with k2 = 4
    src = synth(tmp_path / "data")
    assert cli.main(train_args(src, tmp_path / "equal", extra=["--k1", "4"])) == 0
    assert (tmp_path / "equal" / "predictions_2.txt").exists()
    capsys.readouterr()
    rc = cli.main(train_args(src, tmp_path / "above", extra=["--k1", "5"]))
    assert rc == 2
    assert "k1 must not exceed k2, got k1=5, k2=4" in capsys.readouterr().err
    assert not (tmp_path / "above").exists()


def test_train_unreadable_input_exits_2(tmp_path, capsys):
    rc = cli.main([
        "train", "--source", str(tmp_path / "missing.txt"),
        "--target", str(tmp_path / "missing2.txt"),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert not (tmp_path / "run").exists()


def test_train_malformed_corpus_exits_3(tmp_path, capsys):
    src = synth(tmp_path / "data")
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1 2\n1 7:1.0\n")
    rc = cli.main([
        "train", "--source", str(bad),
        "--target", str(src / "target_1.txt"),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_corpus_error_names_the_faulty_target(tmp_path, capsys):
    src = synth(tmp_path / "data")
    bad = tmp_path / "bad_target.txt"
    lines = read(src / "target_2.txt").splitlines()
    lines[2] = "0 x:1"
    bad.write_text("\n".join(lines) + "\n")
    args = train_args(src, tmp_path / "run")
    args[args.index(str(src / "target_2.txt"))] = str(bad)
    assert cli.main(args) == 3
    assert (f"error: line 3: malformed entry 'x:1', expected idx:val in {bad}"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_train_non_finite_corpus_value_exits_3(tmp_path, capsys, value):
    src = synth(tmp_path / "data")
    bad = tmp_path / "bad.txt"
    bad.write_text(f"3 2 2\n1 1:1.0\n2 2:{value}\n")
    rc = cli.main([
        "train", "--source", str(bad),
        "--target", str(src / "target_1.txt"),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert f"line 3: non-finite value {value} at feature 2" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("header, shown", [
    ("3 1000000000000000000 2", "n=1000000000000000000 label vector"),
    ("3 2 2", "M=3 x n=2 matrix"),
], ids=["label-vector", "dense-matrix"])
def test_train_header_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch,
                                                    header, shown):
    # the dense matrix is allocated only for entries that need it, here
    # three of six nonzero, and its refusal is simulated
    src = synth(tmp_path / "data")
    bad = tmp_path / "bad.txt"
    bad.write_text(f"{header}\n1 1:1 3:1\n2 2:1\n")
    refuse_to_allocate(monkeypatch, (3, 2))
    rc = cli.main([
        "train", "--source", str(bad),
        "--target", str(src / "target_1.txt"),
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 3
    assert capsys.readouterr().err == (
        f"error: line 1: cannot allocate the {shown} the header announces in {bad}\n")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("M, message", [
    (10**15, "Unable to allocate 14.2 PiB for an array with shape "
             "(1000000000000000, 2) and data type float64"),
    (10**18, "array is too big; `arr.size * arr.dtype.itemsize` is larger than "
             "the maximum possible size."),
    (10**20, "Maximum allowed dimension exceeded"),
], ids=["PiB", "past-intp", "past-int64"])
@pytest.mark.parametrize("baseline", ["mrtl", "nmf", "logreg"])
def test_train_problem_too_large_to_allocate_exits_2(tmp_path, capsys, M, message,
                                                     baseline):
    # a few entries under a huge M parse, held sparse; the M x c and M x k
    # arrays of the fit and of each baseline cannot be, and numpy says so
    # with a MemoryError, or a ValueError past its index type
    (tmp_path / "source.txt").write_text(f"{M} 4 2\n1 1:1\n2 2:1\n1 3:1 7:2\n2 5:2\n")
    (tmp_path / "target.txt").write_text(f"{M} 3 2\n0 1:1\n0 2:1\n0 3:1\n")
    rc = cli.main(["train", "--source", str(tmp_path / "source.txt"),
                   "--target", str(tmp_path / "target.txt"), "--baseline", baseline,
                   "--out", str(tmp_path / "run")])
    assert rc == 2
    assert capsys.readouterr().err == f"error: cannot allocate: {message}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("label", ["7", "0", "-1"])
def test_train_truth_label_outside_classes_exits_3(tmp_path, capsys, label):
    src = synth(tmp_path / "data")
    truth = tmp_path / "truth.txt"
    lines = read(src / "truth_1.txt").splitlines()
    lines[4] = label
    truth.write_text("\n".join(lines) + "\n")
    args = train_args(src, tmp_path / "run")
    args[args.index(str(src / "truth_1.txt"))] = str(truth)
    rc = cli.main(args)
    assert rc == 3
    assert f"line 5: label {label} outside [1, 2]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("raw, message", [
    (b"30 1\xff 2\n0 1:1\n",
     "line 1: malformed header, expected three integers, got '30 1\\udcff 2'"),
    (b"30 1 2\n0\xff 1:1\n", "line 2: malformed label '0\\udcff'"),
    (b"30 2 2\n0 1:1\n0 2:1\xff\n",
     "line 3: malformed entry '2:1\\udcff', expected idx:val"),
], ids=["header", "label", "entry"])
def test_corpus_byte_not_utf8_exits_3(tmp_path, capsys, raw, message):
    src = synth(tmp_path / "data")
    bad = tmp_path / "bad.txt"
    bad.write_bytes(raw)
    rc = cli.main(["train", "--source", str(src / "source.txt"),
                   "--target", str(bad), "--out", str(tmp_path / "run")])
    assert rc == 3
    err = capsys.readouterr().err
    assert message in err and err.isascii()
    assert not (tmp_path / "run").exists()


def test_truth_byte_not_utf8_exits_3(tmp_path, capsys):
    src = synth(tmp_path / "data")
    truth = tmp_path / "truth.txt"
    truth.write_bytes(b"1\n2\n1\xff\n")
    args = train_args(src, tmp_path / "run")
    args[args.index(str(src / "truth_1.txt"))] = str(truth)
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert "line 3: malformed label '1\\udcff', expected an integer" in err
    assert err.isascii() and not (tmp_path / "run").exists()


def test_eval_byte_not_utf8_exits_3(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_bytes(b"1\n\xfe\n")
    truth.write_text("1\n2\n")
    rc = cli.main(["eval", "--predictions", str(pred), "--truth", str(truth)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "line 2: malformed label '\\udcfe', expected an integer" in err
    assert err.isascii()


@pytest.mark.parametrize("bad", ["predictions", "truth"])
def test_eval_malformed_label_names_its_file(tmp_path, capsys, bad):
    # both files are read by one rule; the message says which one is bad
    files = {name: tmp_path / f"{name}.txt" for name in ("predictions", "truth")}
    for name, path in files.items():
        path.write_bytes(b"\xfe\n1\n" if name == bad else b"1\n2\n")
    rc = cli.main(["eval", "--predictions", str(files["predictions"]),
                   "--truth", str(files["truth"])])
    assert rc == 3
    err = capsys.readouterr().err
    assert (f"line 1: malformed label '\\udcfe', expected an integer "
            f"in {files[bad]}") in err


def test_train_numeric_failure_exits_4(tmp_path, monkeypatch, capsys):
    src = synth(tmp_path / "data")

    def explode(*a, **kw):
        raise NumericalDivergenceError(3)

    monkeypatch.setattr(cli, "fit", explode)
    rc = cli.main(train_args(src, tmp_path / "run"))
    assert rc == 4
    assert "iteration 3" in capsys.readouterr().err


def test_train_overflowing_lambda_exits_4_with_one_line(tmp_path, capsys):
    # the overflow used to print four numpy RuntimeWarnings first; any
    # warning now fails this test (filterwarnings = error)
    src = synth(tmp_path / "data", extra=["--features", "20"])
    capsys.readouterr()
    out = tmp_path / "run"
    assert cli.main(train_args(src, out, ["--lambda", "1e308"])) == 4
    assert capsys.readouterr().err == (
        "error: non-finite factor entries at iteration 1\n")
    assert not out.exists()


def test_train_nmf_and_logreg_baselines(tmp_path):
    src = synth(tmp_path / "data")
    for baseline in ("nmf", "logreg"):
        out = tmp_path / baseline
        rc = cli.main(train_args(src, out, extra=["--baseline", baseline]))
        assert rc == 0
        assert f"baseline={baseline}" in read(out / "metrics.txt")
        assert len(read(out / "predictions_1.txt").split()) == 12
        # baseline traces carry no per-target accuracy columns
        assert read(out / "trace.csv").splitlines()[0] == (
            "iter,objective,log10_objective"
        )


def test_nmf_baseline_names_a_target_too_small_to_factor(tmp_path, capsys):
    src = synth(tmp_path / "data")
    target = tmp_path / "target_n1.txt"
    target.write_text("30 1 2\n0 1:1.0\n")
    rc = cli.main([
        "train", "--baseline", "nmf",
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_1.txt"),
        "--target", str(target),
        "--k1", "2", "--k2", "4", "--maxiter", "3",
        "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert (f"--baseline nmf needs at least c = 2 instances and features per "
            f"target, but target {target} has 1 instances and 30 features" in err)
    assert "k must be" not in err
    assert not (tmp_path / "run").exists()


def test_eval_formats(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    cases = [
        ("1\n2\n1\n2\n", "1\n2\n1\n2\n", "100.00"),
        ("1\n1\n2\n2\n", "1\n2\n1\n2\n", "50.00"),
        ("1\n2\n2\n1\n", "1\n2\n1\n1\n", "75.00"),
    ]
    for ptext, ttext, want in cases:
        pred.write_text(ptext)
        truth.write_text(ttext)
        rc = cli.main(["eval", "--predictions", str(pred), "--truth", str(truth)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == want


def test_eval_length_mismatch_exits_3(tmp_path, capsys):
    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    pred.write_text("1\n2\n")
    truth.write_text("1\n")
    rc = cli.main(["eval", "--predictions", str(pred), "--truth", str(truth)])
    assert rc == 3
    assert (f"error: 2 predictions in {pred} vs 1 truth labels in {truth}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("pred_text, truth_text, bad, line, label", [
    ("1\n2\n", "0\n2\n", "truth", 1, 0),
    ("1\n-3\n", "1\n2\n", "predictions", 2, -3),
])
def test_eval_label_below_1_exits_3(tmp_path, capsys, pred_text, truth_text,
                                    bad, line, label):
    paths = {"predictions": tmp_path / "pred.txt", "truth": tmp_path / "truth.txt"}
    paths["predictions"].write_text(pred_text)
    paths["truth"].write_text(truth_text)
    rc = cli.main(["eval", "--predictions", str(paths["predictions"]),
                   "--truth", str(paths["truth"])])
    assert rc == 3
    assert (f"line {line}: label {label} outside [1, c] in {paths[bad]}"
            in capsys.readouterr().err)


def sweep_args(src, out, axis, values, extra=()):
    return [
        "sweep",
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_1.txt"),
        "--target", str(src / "target_2.txt"),
        "--truth", str(src / "truth_1.txt"),
        "--truth", str(src / "truth_2.txt"),
        "--k1", "2", "--k2", "4", "--maxiter", "8",
        axis, values,
        "--out", str(out),
        *extra,
    ]


def test_sweep_lambda_csv(tmp_path):
    src = synth(tmp_path / "data")
    out = tmp_path / "sweep"
    rc = cli.main(sweep_args(src, out, "--sweep-lambda", "0.1,1,5,10,50,100"))
    assert rc == 0
    lines = read(out / "sweep.csv").strip().splitlines()
    assert lines[0] == "value,acc_1,acc_2,avg_acc"
    assert len(lines) == 7
    values = [float(line.split(",")[0]) for line in lines[1:]]
    assert values == [0.1, 1.0, 5.0, 10.0, 50.0, 100.0]
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")[1:]]
        assert all(0.0 <= v <= 1.0 for v in cells)


def test_sweep_k1_allows_k1_equal_k2(tmp_path):
    src = synth(tmp_path / "data")
    out = tmp_path / "sweep"
    rc = cli.main(sweep_args(src, out, "--sweep-k1", "1,2,4"))
    assert rc == 0
    lines = read(out / "sweep.csv").strip().splitlines()
    assert len(lines) == 4
    assert [float(l.split(",")[0]) for l in lines[1:]] == [1.0, 2.0, 4.0]


@pytest.mark.parametrize("axis, values, flags", [
    ("--sweep-k1", "1,2", ["--k1", "0"]),
    ("--sweep-lambda", "1,5", ["--lambda", "-1"]),
])
def test_sweep_never_checks_the_flag_it_replaces(tmp_path, axis, values, flags):
    src = synth(tmp_path / "data")
    out = tmp_path / "sweep"
    assert cli.main(sweep_args(src, out, axis, values, flags)) == 0
    lines = read(out / "sweep.csv").strip().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == [
        repr(float(v)) for v in values.split(",")]


def test_sweep_single_value_matches_train(tmp_path):
    src = synth(tmp_path / "data")
    train_out = tmp_path / "train"
    sweep_out = tmp_path / "sweep"
    assert cli.main(train_args(src, train_out)) == 0
    assert cli.main(sweep_args(src, sweep_out, "--sweep-lambda", "10")) == 0
    metrics = dict(
        line.split("=", 1) for line in read(train_out / "metrics.txt").splitlines()
    )
    row = read(sweep_out / "sweep.csv").strip().splitlines()[1].split(",")
    assert float(row[1]) == float(metrics["accuracy_1"])
    assert float(row[2]) == float(metrics["accuracy_2"])
    assert float(row[3]) == float(metrics["average_accuracy"])


def test_sweep_empty_list_exits_2(tmp_path, capsys):
    # every item must parse: "1,,2" used to run two values and drop the third
    src = synth(tmp_path / "data")
    for axis, values in [("--sweep-lambda", " , "), ("--sweep-k1", "2,oops"),
                         ("--sweep-lambda", "1,,2"), ("--sweep-k1", "5,,10"),
                         ("--sweep-lambda", "1,2,"), ("--sweep-lambda", "")]:
        capsys.readouterr()
        rc = cli.main(sweep_args(src, tmp_path / "s", axis, values))
        assert rc == 2
        assert "malformed" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


def test_required_flags_alone_give_the_dataclass_defaults():
    parser = cli.build_parser()
    args = parser.parse_args(["train", "--source", "s", "--target", "t", "--out", "o"])
    assert cli._settings(Hyperparams, args) == Hyperparams()
    spec = cli._settings(SynthSpec, parser.parse_args(["synth", "--out", "o"]))
    for name in ("k1", "k2", "noise", "domain_shift", "seed"):
        assert getattr(spec, name) == getattr(SynthSpec, name)


def test_sweep_without_truth_exits_2(tmp_path, capsys):
    src = synth(tmp_path / "data")
    rc = cli.main([
        "sweep",
        "--source", str(src / "source.txt"),
        "--target", str(src / "target_1.txt"),
        "--k1", "2", "--k2", "4", "--maxiter", "2",
        "--sweep-lambda", "1,10",
        "--out", str(tmp_path / "s"),
    ])
    assert rc == 2
    assert "labels" in capsys.readouterr().err


def test_sweep_out_of_range_k1_exits_2(tmp_path):
    src = synth(tmp_path / "data")
    rc = cli.main(sweep_args(src, tmp_path / "s", "--sweep-k1", "2,9"))
    assert rc == 2


BAD_SETTINGS = [
    ("train", ["--lambda", "nan"], "lambda must be finite and nonnegative, got nan"),
    ("train", ["--lambda", "inf"], "lambda must be finite and nonnegative, got inf"),
    ("train", ["--tol", "nan"],
     "convergence_tol must be finite and nonnegative, got nan"),
    ("train", ["--seed", "-1"], "seed must be an integer of at least 0, got -1"),
    ("train", ["--baseline", "nmf", "--seed", "-1"],
     "seed must be an integer of at least 0, got -1"),
    ("sweep", ["--sweep-lambda", "1,nan"],
     "--sweep-lambda value nan: lambda must be finite and nonnegative"),
    ("synth", ["--noise", "nan"], "noise must be finite and nonnegative, got nan"),
    ("synth", ["--noise", "inf"], "noise must be finite and nonnegative, got inf"),
    ("synth", ["--seed", "-1"], "seed must be an integer of at least 0, got -1"),
    # a flag spelled otherwise than its field is named as typed
    ("train", ["--tol", "-1"],
     "error: --tol: convergence_tol must be finite and nonnegative, got -1.0\n"),
    ("synth", ["--domain-shift", "2"],
     "error: --domain-shift: domain_shift must lie in [0, 1], got 2.0\n"),
    ("synth", ["--n-target", "0"],
     "error: --n-target: n_t must be an integer of at least 1, got 0\n"),
    ("synth", ["--num-targets", "0"],
     "error: --num-targets: P must be an integer of at least 1, got 0\n"),
    ("synth", ["--classes", "1"],
     "error: --classes: c must be an integer of at least 2, got 1\n"),
    # a count is refused before the rule that compares it with another
    ("train", ["--k2", "0"], "error: k2 must be an integer of at least 1, got 0\n"),
]


@pytest.mark.parametrize("command, flags, shown", BAD_SETTINGS,
                         ids=[" ".join([c, *f]) for c, f, _ in BAD_SETTINGS])
def test_non_finite_or_negative_setting_exits_2(tmp_path, capsys, command,
                                                flags, shown):
    out = tmp_path / "out"
    if command == "synth":
        argv = ["synth", *SMALL, *flags, "--out", str(out)]
    else:
        src = synth(tmp_path / "data")
        capsys.readouterr()
        argv = (train_args(src, out, flags) if command == "train"
                else sweep_args(src, out, *flags))
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert shown in err and "Traceback" not in err
    assert not out.exists()


def test_sweep_names_the_flag_of_a_setting_it_does_not_sweep(tmp_path, capsys):
    # only a refused swept value is named by its sweep flag
    src = synth(tmp_path / "data")
    capsys.readouterr()
    argv = sweep_args(src, tmp_path / "s", "--sweep-lambda", "1", ["--tol", "nan"])
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == (
        "error: --tol: convergence_tol must be finite and nonnegative, got nan\n")
    assert not (tmp_path / "s").exists()


# argparse's refusals, each with what its one line says; OUT stands for --out
RUN = ["--source", "s.txt", "--target", "t.txt"]
ARGPARSE_FAULTS = [
    pytest.param(["train", *RUN, "--out", "OUT", "--k1", "nan"],
                 "argument --k1: invalid int value: 'nan'", id="k1 nan"),
    pytest.param(["train", *RUN, "--out", "OUT", "--seed", "1e308"],
                 "argument --seed: invalid int value: '1e308'", id="seed 1e308"),
    pytest.param(["train", *RUN, "--out", "OUT", "--lambda", ""],
                 "argument --lambda: invalid float value: ''", id="empty lambda"),
    pytest.param(["train", *RUN, "--out", "OUT", "--bogus"],
                 "unrecognized arguments: --bogus", id="unknown flag"),
    pytest.param(["train", *RUN],
                 "the following arguments are required: --out", id="no out"),
    pytest.param(["sweep", *RUN, "--out", "OUT", "--sweep-k1", "1",
                  "--sweep-lambda", "1"],
                 "argument --sweep-lambda: not allowed with argument --sweep-k1",
                 id="both sweep axes"),
    pytest.param([], "the following arguments are required: command",
                 id="no subcommand"),
]


@pytest.mark.parametrize("argv, said", ARGPARSE_FAULTS)
def test_argparse_refusal_is_one_error_line(tmp_path, capsys, argv, said):
    out = tmp_path / "out"
    assert cli.main([str(out) if a == "OUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {said}\n"
    assert not out.exists()


def test_help_still_prints_to_stdout_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["train", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: mrtl train ") and captured.err == ""


def test_module_entry_point(tmp_path):
    pred = tmp_path / "p.txt"
    pred.write_text("1\n2\n")
    # run from the directory holding the mrtl this suite imports, which -m
    # then finds whether or not the package is installed
    proc = subprocess.run(
        [sys.executable, "-m", "mrtl", "eval",
         "--predictions", str(pred), "--truth", str(pred)],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "100.00"


def test_import_leaves_scipy_special_unloaded():
    # scipy.special costs about 0.1 s of start-up and only expit was used
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, mrtl.cli; print('scipy.special' in sys.modules)"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_import_and_a_sparse_train_load_no_scipy(tmp_path):
    # mrtl holds a sparse corpus in its own SparseCorpus, so neither its
    # start-up nor a sparse run pays for scipy's import, about 0.2 s
    rng = np.random.default_rng(8)
    M, c = 60, 2
    for name, n in (("source", 12), ("target_1", 8), ("target_2", 8)):
        labels = np.arange(n) % c + 1
        X = np.zeros((M, n))
        for i, y in enumerate(labels):  # 3 of 60 entries: held sparse
            rows = rng.choice(M // c, size=3, replace=False) + (y - 1) * (M // c)
            X[rows, i] = 2.0
        assert isinstance(compact_corpus(X), SparseCorpus)
        if name == "source":
            (tmp_path / "source.txt").write_text(serialize_corpus(X, c, labels=labels))
        else:
            (tmp_path / f"{name}.txt").write_text(serialize_corpus(X, c))
            (tmp_path / f"truth_{name[-1]}.txt").write_text(
                "\n".join(map(str, labels)) + "\n")
    code = ("import sys, mrtl.cli; rc = mrtl.cli.main(sys.argv[1:]); "
            "print(rc, [m for m in sys.modules if m.split('.')[0] == 'scipy'])")
    proc = subprocess.run(
        [sys.executable, "-c", code, *train_args(tmp_path, tmp_path / "run")],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(cli.__file__)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def write_word_counts(out, seed=0, M=2000, sizes=(200, 150, 150), c=2, words=40):
    """A labeled source and two targets of word counts over a vocabulary of
    M, each document words draws from its class's word distribution, so at
    most 2% of the entries are nonzero and the parser holds them sparse."""
    rng = np.random.default_rng(seed)
    topics = rng.dirichlet(np.full(M, 0.05), size=c)
    out.mkdir()
    for name, n in zip(("source", "target_1", "target_2"), sizes):
        labels = np.arange(n) % c + 1
        X = np.stack([rng.multinomial(words, topics[y - 1]) for y in labels], axis=1)
        given = labels if name == "source" else None
        (out / f"{name}.txt").write_text(serialize_corpus(X.astype(np.float64), c, given))
        if name != "source":
            (out / f"truth_{name[-1]}.txt").write_text("\n".join(map(str, labels)) + "\n")


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # The README quick-start, and a train on word counts held sparse, run
    # once with the BLAS libraries at one thread and once at two, set before
    # numpy loads. At M = n_s = 200 the logistic regression's Gram product is
    # large enough for OpenBLAS to use two. Every path is relative, so the
    # manifests must match too. The identity holds at the sizes the tests
    # and the bench run, not at every size: at M = 2000, n = 1000 dense, two
    # threads split the inner sums of X_t V and X_t^T R, and the objective's
    # last digits change.
    data, words = Path("data"), Path("words")
    commands = [
        ["synth", "--features", "200", "--classes", "2", "--num-targets", "2",
         "--n-source", "200", "--n-target", "150", "--k1", "2", "--k2", "4",
         "--noise", "0.5", "--domain-shift", "0.3", "--out", "data"],
        train_args(data, "run"),
        sweep_args(data, "sweep", "--sweep-lambda", "0.1,10"),
        train_args(data, "logreg", ["--baseline", "logreg"]),
        train_args(data, "nmf", ["--baseline", "nmf"]),
        ["eval", "--predictions", "run/predictions_1.txt",
         "--truth", "data/truth_1.txt"],
        train_args(words, "words_run"),
        train_args(words, "words_logreg", ["--baseline", "logreg"]),
    ]
    code = ("import json, sys, mrtl.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert mrtl.cli.main(argv) == 0, argv\n")
    runs = []
    for threads in ("1", "2"):
        cwd = tmp_path / f"threads_{threads}"
        cwd.mkdir()
        write_word_counts(cwd / words)
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-c", code, json.dumps(commands)],
            cwd=cwd, env=blas_threads_env(threads), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files = {str(path.relative_to(cwd)): path.read_bytes()
                 for path in cwd.rglob("*") if path.is_file()}
        runs.append((proc.stdout, files))
    (stdout_1, files_1), (stdout_2, files_2) = runs
    assert sorted(files_1) == sorted(files_2)
    # synth 6, train 5, sweep 2, each baseline 5; word counts 5, train 5, logreg 5
    assert len(files_1) == 38
    for name, text in files_1.items():
        assert text == files_2[name], name
    assert stdout_1 == stdout_2 != ""


@pytest.mark.parametrize("axis, value, flag", [
    ("--sweep-k1", "0", "--sweep-k1 value 0"),
    ("--sweep-k1", "5", "--sweep-k1 value 5"),  # above --k2 4
    ("--sweep-lambda", "-1", "--sweep-lambda value -1.0"),
])
def test_sweep_bad_swept_value_exits_2_before_parsing(tmp_path, capsys, axis,
                                                      value, flag):
    for name in ("source", "target_1", "target_2", "truth_1", "truth_2"):
        (tmp_path / f"{name}.txt").write_text("3 1 2\n1 7:1.0\n")
    # a valid value reaches the corpus and fails on line 2 of the source
    ok = "1" if axis == "--sweep-k1" else "1.0"
    assert cli.main(sweep_args(tmp_path, tmp_path / "s", axis, ok)) == 3
    capsys.readouterr()
    rc = cli.main(sweep_args(tmp_path, tmp_path / "s", axis, f"1,{value}"))
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and "line" not in err
    assert not (tmp_path / "s").exists()


def test_failed_rerun_changes_nothing(tmp_path, monkeypatch, capsys):
    # every output is computed before any is written, so a run that fails
    # into a used --out leaves each of its files as the last good run wrote it
    src = synth(tmp_path / "data")
    out = tmp_path / "run"
    assert cli.main(train_args(src, out)) == 0
    first = {name: read(out / name) for name in os.listdir(out)}

    def unchanged():
        assert sorted(os.listdir(out)) == sorted(first)
        for name, text in first.items():
            assert read(out / name) == text, name

    # k2=40 exceeds M=30 once the corpora are read
    assert cli.main(train_args(src, out, ["--k2", "40", "--lambda", "3"])) == 2
    assert "k2=40 exceeds the number of features M=30" in capsys.readouterr().err
    unchanged()
    assert cli.main(sweep_args(src, out, "--sweep-lambda", "1,3",
                               ["--k2", "40"])) == 2
    unchanged()

    def explode(*a, **kw):
        raise NumericalDivergenceError(3)

    monkeypatch.setattr(cli, "fit", explode)
    assert cli.main(train_args(src, out, ["--lambda", "3"])) == 4
    unchanged()
    assert cli.main(train_args(src, tmp_path / "unused")) == 4
    assert not (tmp_path / "unused").exists()


def test_smaller_rerun_leaves_no_stale_numbered_output(tmp_path):
    # a run removes the numbered files of the kinds it writes that it did not
    # write, and nothing else
    src = synth(tmp_path / "data")
    out = tmp_path / "run"
    assert cli.main(train_args(src, out)) == 0
    assert cli.main(["train", "--source", str(src / "source.txt"),
                     "--target", str(src / "target_1.txt"),
                     "--k1", "2", "--k2", "4", "--maxiter", "8",
                     "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == [
        "manifest.txt", "metrics.txt", "predictions_1.txt", "trace.csv"]
    assert cli.main(sweep_args(src, out, "--sweep-lambda", "1")) == 0
    assert sorted(os.listdir(out)) == [
        "manifest.txt", "metrics.txt", "predictions_1.txt", "sweep.csv",
        "trace.csv"]
    # train into the synth directory, then synth there over one target
    assert cli.main(train_args(src, src)) == 0
    synth(src, extra=["--num-targets", "1"])
    assert sorted(os.listdir(src)) == [
        "manifest.txt", "metrics.txt", "predictions_1.txt",
        "predictions_2.txt", "source.txt", "target_1.txt", "trace.csv",
        "truth_1.txt"]


def test_manifests_in_full(tmp_path):
    src = synth(tmp_path / "data")
    assert read(src / "manifest.txt") == (
        "command=synth\n"
        "classes=2\n"
        "domain_shift=0.3\n"
        "features=30\n"
        "k1=2\n"
        "k2=4\n"
        "n_source=20\n"
        "n_target=12\n"
        "noise=0.5\n"
        "num_targets=2\n"
        f"out={src}\n"
        "seed=0\n"
    )
    targets = f"{src / 'target_1.txt'},{src / 'target_2.txt'}"
    truths = f"{src / 'truth_1.txt'},{src / 'truth_2.txt'}"

    def run_manifest(out, command, head, truth, tail=()):
        return "".join(line + "\n" for line in [
            f"command={command}",
            *head,
            "k1=2",
            "k2=4",
            "lambda=10.0",
            "maxiter=8",
            f"out={out}",
            "seed=0",
            f"source={src / 'source.txt'}",
            *tail,
            f"targets={targets}",
            "tol=0.0",
            f"truth={truth}",
        ])

    out = tmp_path / "mrtl"
    assert cli.main(train_args(src, out)) == 0
    assert read(out / "manifest.txt") == run_manifest(
        out, "train", ["baseline=mrtl"], truths)

    out = tmp_path / "nmf"
    assert cli.main(train_args(src, out, ["--baseline", "nmf"])) == 0
    assert read(out / "manifest.txt") == run_manifest(
        out, "train", ["baseline=nmf"], truths)

    out = tmp_path / "no_truth"
    argv = train_args(src, out)
    at = argv.index("--truth")
    del argv[at:at + 4]  # both --truth flags
    assert cli.main(argv) == 0
    assert read(out / "manifest.txt") == run_manifest(
        out, "train", ["baseline=mrtl"], "")

    out = tmp_path / "sweep_k1"
    assert cli.main(sweep_args(src, out, "--sweep-k1", "1,2,4")) == 0
    assert read(out / "manifest.txt") == run_manifest(
        out, "sweep", [], truths,
        tail=["sweep_axis=k1", "sweep_values=1.0,2.0,4.0"])

    out = tmp_path / "sweep_lambda"
    assert cli.main(sweep_args(src, out, "--sweep-lambda", "0.5,10")) == 0
    assert read(out / "manifest.txt") == run_manifest(
        out, "sweep", [], truths,
        tail=["sweep_axis=lambda", "sweep_values=0.5,10.0"])


def test_write_outputs_renames_manifest_last_and_cleans_up_on_failure(
        tmp_path, monkeypatch):
    renamed = []
    replace = os.replace
    monkeypatch.setattr(cli.os, "replace",
                        lambda a, b: (renamed.append(os.path.basename(b)),
                                      replace(a, b)))
    cli._write_outputs(str(tmp_path), [("manifest.txt", "m"), ("b.txt", "b")])
    assert renamed == ["b.txt", "manifest.txt"]

    def files():
        yield "b.txt", "new"
        raise OSError("disk full")

    with pytest.raises(OSError):
        cli._write_outputs(str(tmp_path), files())
    assert sorted(os.listdir(tmp_path)) == ["b.txt", "manifest.txt"]
    assert read(tmp_path / "b.txt") == "b"


@st.composite
def cli_problems(draw):
    """M features, and a source and a target corpus, each a list of records,
    each a list of (index, value text) entries with at least two increasing
    indices."""
    M = draw(st.integers(2, 5))

    def corpus(n_min, n_max):
        return [[(i, str(draw(st.integers(1, 9))))
                 for i in sorted(draw(st.sets(st.integers(1, M), min_size=2)))]
                for _ in range(draw(st.integers(n_min, n_max)))]

    return M, corpus(2, 5), corpus(1, 4)


CORPORA = ("source.txt", "target_1.txt")
# a value the format takes, and any other
LEGAL_VALUES = ("1e308", "5e-324", "0", "-0")
VALUES = ("nan", "inf", "-inf", "-1", "1e309", *LEGAL_VALUES)
INDEX_FAULTS = ("empty", "repeated", "out-of-order", "zero", "past-M")
LINE_FAULTS = ("drop", "repeat", "blank", "two-fields", "four-fields", "zero-M",
               "float-n", "n+1", "M+1", "c=1", "huge", "not-utf8")
FLAG_VALUES = ("0", "-1", "nan", "inf", "1e308", str(10**30), "")
SWEEP_LISTS = ("", ",", "1,,2", "1,", "nan", "0", "-1", "1e308", str(10**30))
cli_faults = st.one_of(
    # every value of one record
    st.tuples(st.just("value"), st.sampled_from(CORPORA), st.integers(0, 9),
              st.sampled_from(VALUES)),
    st.tuples(st.just("index"), st.sampled_from(CORPORA), st.integers(0, 9),
              st.sampled_from(INDEX_FAULTS)),
    # a record or the header (a byte that is not UTF-8 lands at position r)
    st.tuples(st.just("line"), st.sampled_from(CORPORA), st.integers(0, 30),
              st.sampled_from(LINE_FAULTS)),
    st.tuples(st.just("flag"),
              st.sampled_from(("--lambda", "--k1", "--k2", "--maxiter", "--seed",
                               "--tol")),
              st.sampled_from(FLAG_VALUES)),
    st.tuples(st.just("flag"), st.sampled_from(("--sweep-lambda", "--sweep-k1")),
              st.sampled_from(SWEEP_LISTS)),
)
# a problem on which --lambda 1e308 overflows in the first iteration
BASE_PROBLEM = (4, [[(1, "1"), (2, "1")]] * 3, [[(1, "1"), (2, "1")]])


def faulty_files(problem, fault) -> dict:
    """The bytes of source.txt, target_1.txt and truth_1.txt after a fault
    of a file, or with none."""
    M, *corpora = problem
    kind, at, r, what = fault or (None,) * 4
    files = {}
    for name, records in zip(CORPORA, corpora):
        records = [list(entries) for entries in records]
        header = [M, len(records), 2]
        labels = [0 if name != "source.txt" else j % 2 + 1 for j in range(len(records))]
        entries = records[r % len(records)] if kind in ("value", "index") else None
        if at == name and kind == "value":
            entries[:] = [(i, what) for i, _ in entries]
        elif at == name and kind == "index":
            if what == "repeated":
                entries.append(entries[-1])
            elif what == "out-of-order":
                entries.reverse()
            else:
                entries[0] = ({"empty": "", "zero": 0, "past-M": M + 1}[what],
                              entries[0][1])
        lines = [f"{label} " + " ".join(f"{i}:{v}" for i, v in record)
                 for label, record in zip(labels, records)]
        if at == name and kind == "line":
            if what == "drop":
                lines.pop()
            elif what in ("repeat", "blank"):
                lines.insert(1, lines[0] if what == "repeat" else "")
            elif what == "two-fields":
                header = header[:2]
            elif what == "four-fields":
                header.append(1)
            elif what == "huge":  # too large to allocate: 8e24 bytes
                header[:2] = [10**12, 10**12]
            elif what != "not-utf8":
                index, value = {"zero-M": (0, 0), "float-n": (1, "1.5"),
                                "n+1": (1, header[1] + 1), "M+1": (0, M + 1),
                                "c=1": (2, 1)}[what]
                header[index] = value
        text = "\n".join([" ".join(map(str, header)), *lines, ""]).encode()
        if at == name and what == "not-utf8":
            text = text[:r % len(text)] + b"\xff" + text[r % len(text):]
        files[name] = text
    n_t = len(corpora[1])
    files["truth_1.txt"] = "".join(f"{j % 2 + 1}\n" for j in range(n_t)).encode()
    return files


@settings(max_examples=60, deadline=None)
@given(cli_problems(), cli_faults)
@example(BASE_PROBLEM, ("flag", "--lambda", "1e308"))
@example(BASE_PROBLEM, ("value", "source.txt", 0, "1e308"))  # 1 1:1e308 2:1e308
@example(BASE_PROBLEM, ("flag", "--sweep-lambda", "1,,2"))
def test_every_fault_ends_in_a_documented_exit(problem, fault):
    # One fault in a small valid run of train, or of sweep for a sweep list,
    # ends in a documented exit code. A failure prints one error: line, and
    # nothing else, that names the flag (argparse's refusals included), the
    # file and line, or the iteration of a numeric failure, raises no
    # warning and leaves no --out directory. --tol 1e308 stops every fit at
    # its second iteration, so that a huge --maxiter ends too.
    kind, at, *_ = fault
    with tempfile.TemporaryDirectory() as tmp:
        files = faulty_files(problem, None if kind == "flag" else fault)
        for name, text in files.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(text)
        paths = {name: os.path.join(tmp, name) for name in
                 ("source.txt", "target_1.txt", "truth_1.txt", "out")}
        flags = {"--k1": "1", "--k2": "2", "--maxiter": "2", "--tol": "1e308"}
        command = "train"
        if kind == "flag":
            flags[at] = fault[2]
            command = "sweep" if at.startswith("--sweep") else "train"
        argv = [command, "--source", paths["source.txt"],
                "--target", paths["target_1.txt"], "--truth", paths["truth_1.txt"],
                "--out", paths["out"], *(x for pair in flags.items() for x in pair)]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            rc = cli.main(argv)
        assert rc in (0, 2, 3, 4)
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == [] and os.path.isdir(paths["out"])
            assert kind != "value" or fault[3] in LEGAL_VALUES
            if command == "sweep":  # one row per listed value, none dropped
                with open(os.path.join(paths["out"], "sweep.csv")) as fh:
                    assert len(fh.readlines()) == 1 + len(fault[2].split(","))
            return
        assert not os.path.exists(paths["out"])
        assert len(lines) == 1 and lines[0].startswith("error: ")
        line = lines[0]
        if rc == 4:
            assert re.fullmatch(r"error: non-finite factor entries at iteration \d+",
                                line)
        elif kind == "flag":
            assert rc == 2 and at.split("-")[-1] in line
        else:
            assert rc == 3 and re.search(r"line \d+", line)
            assert any(paths[name] in line for name in CORPORA)
