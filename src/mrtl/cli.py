"""Command line: train on corpora, synthesize problems, score, sweep.

Exit codes: 0 success, 2 configuration error (bad flags, unreadable paths,
invalid hyperparameters, a problem too large for memory), 3 parse error in
an input file, 4 numeric failure while fitting. Every refusal, argparse's
included, is one error: line that names the flag typed, the file and line,
the iteration, or the array that could not be allocated. Each command
computes everything it writes before it writes anything; then every file
goes to a temporary name and all are renamed into place, manifest.txt last.
So a run writes all of its files or replaces none.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import re
import sys
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .baselines import (
    logreg_predict_proba,
    logreg_train,
    nmf_fit,
    nmf_predict_labels,
)
from .data import (
    CorpusFormatError,
    SynthSpec,
    accuracy,
    generate_synthetic,
    load_corpus,
    normalize_input,
    serialize_corpus,
)
from .engine import (
    Hyperparams,
    InvalidConfigError,
    NumericalDivergenceError,
    ProblemData,
    TraceRecord,
    fit,
    predict,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4

# how numpy refuses an array too large for its index type; one that memory
# cannot hold it refuses with a MemoryError, which names the shape
_TOO_LARGE = ("array is too big", "Maximum allowed dimension exceeded")


class InputMismatchError(ValueError):
    """Two input files that parse but do not fit together; exits 3, like a
    parse error, and names both files."""


# the numbered outputs, one per target: train's predictions_<k>.txt, synth's
# target_<k>.txt and truth_<k>.txt
_NUMBERED = re.compile(r"(\w+)_[1-9][0-9]*\.txt")


def _write_outputs(out: str, files) -> None:
    """Write each (name, text) of files into directory out, all or none:
    every file goes to name + ".tmp", and only after the last one are they
    renamed into place, manifest.txt last. A failed write removes them, as
    does a directory at a path a rename or removal would take, found before
    any rename. Just before manifest.txt, a numbered file of a kind this run
    writes but which it did not write, left by a run over more targets, is
    removed."""
    os.makedirs(out, exist_ok=True)
    names = []
    try:
        for name, text in files:
            names.append(name)
            with open(os.path.join(out, name + ".tmp"), "w", encoding="utf-8") as fh:
                fh.write(text)
            del text  # freed before files builds the next one
        kinds = {m[1] for m in map(_NUMBERED.fullmatch, names) if m}
        stale = [old for old in os.listdir(out) if old not in names
                 and (m := _NUMBERED.fullmatch(old)) and m[1] in kinds]
        for name in (*names, *stale):
            path = os.path.join(out, name)
            if os.path.isdir(path) and not os.path.islink(path):
                raise InvalidConfigError(f"cannot write {path}: it is a directory")
    except BaseException:
        for name in names:
            with contextlib.suppress(OSError):
                os.remove(os.path.join(out, name + ".tmp"))
        raise
    for name in sorted(names, key=lambda name: name == "manifest.txt"):
        if name == "manifest.txt":
            for old in stale:
                os.remove(os.path.join(out, old))
        os.replace(os.path.join(out, name + ".tmp"), os.path.join(out, name))


def _check_readable(paths) -> None:
    for path in paths:
        if not (os.path.isfile(path) and os.access(path, os.R_OK)):
            raise InvalidConfigError(f"cannot read input file {path}")


def _read_labels(path: str, c: int | None = None) -> np.ndarray:
    """One integer label per non-blank line, each at least 1 (a class) and,
    with c given, at most c."""
    labels = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            s = raw.strip()
            if not s:
                continue
            try:
                label = int(s)
            except ValueError:
                raise CorpusFormatError(
                    lineno, f"malformed label {s!r}, expected an integer in {path}"
                ) from None
            if label < 1 or (c is not None and label > c):
                upper = "c" if c is None else c
                raise CorpusFormatError(
                    lineno, f"label {label} outside [1, {upper}] in {path}")
            labels.append(label)
    if not labels:
        raise CorpusFormatError(1, f"no labels in {path}")
    return np.asarray(labels, dtype=np.int64)


# parsed flags the manifest leaves out: the subcommand comes first on its own
# line, and sweep writes its parsed sweep_axis and sweep_values instead
_NOT_IN_MANIFEST = {"command", "func", "sweep_k1", "sweep_lambda"}
# the dests whose flag is spelled otherwise (a setting's dest is its field's
# name); the flag is the key with "-" for "_"
_MANIFEST_KEYS = {"lam": "lambda", "truths": "truth", "convergence_tol": "tol",
                  "M": "features", "c": "classes", "P": "num_targets",
                  "n_s": "n_source", "n_t": "n_target"}


def _flag(dest: str) -> str:
    return "--" + _MANIFEST_KEYS.get(dest, dest).replace("_", "-")


def _manifest(args, **extra) -> str:
    """command= and then every parsed flag and each extra, sorted by key; a
    repeated flag is joined with commas and an absent one is empty."""
    pairs = {_MANIFEST_KEYS.get(key, key): value for key, value in vars(args).items()
             if key not in _NOT_IN_MANIFEST}
    pairs.update(extra)
    lines = [f"command={args.command}"]
    for key, value in sorted(pairs.items()):
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        lines.append(f"{key}={'' if value is None else value}")
    return "\n".join(lines) + "\n"


def _load_problem(args) -> tuple:
    """Read, validate and normalize all corpora; resolve truth labels.

    Each file is checked against the source as soon as it is read, and a
    mismatch names it. Each corpus comes from the parser as it is held
    (sparse when it is mostly zeros), so a sparse one is never dense and at
    most one dense copy exists at a time. Returns (ProblemData, truth) where
    truth is one label array per target (from --truth files, or from labeled
    target corpora) or None when any target lacks labels.
    """
    paths = [args.source] + list(args.targets) + list(args.truths or [])
    _check_readable(paths)
    if args.truths and len(args.truths) != len(args.targets):
        raise InvalidConfigError(
            f"{len(args.truths)} --truth files for {len(args.targets)} targets")

    X_s, Y_s = load_corpus(args.source)
    if Y_s is None:
        # the first record is line 2: parse_corpus allows no blank line before it
        raise CorpusFormatError(
            2, f"source {args.source} is unlabeled (label 0), but the source "
               f"must be labeled")
    M, c = X_s.shape[0], Y_s.shape[1]
    if c < 2:
        raise CorpusFormatError(
            1, f"source {args.source} has {c} class, need at least 2")
    X_s = normalize_input(X_s)
    targets = []
    truth = []
    for p, path in enumerate(args.targets):
        X_t, Y_t = load_corpus(path)
        if X_t.shape[0] != M:
            raise CorpusFormatError(
                1, f"target {path} has {X_t.shape[0]} features but the source "
                   f"has {M}")
        if Y_t is not None and Y_t.shape[1] != c:
            raise CorpusFormatError(
                1, f"labeled target {path} has {Y_t.shape[1]} classes but the "
                   f"source has {c}")
        targets.append(normalize_input(X_t))
        n = X_t.shape[1]
        del X_t  # freed before the next file is parsed
        if args.truths:
            truth.append(_read_labels(args.truths[p], c=c))
            if truth[p].shape[0] != n:
                raise InputMismatchError(
                    f"{truth[p].shape[0]} truth labels in {args.truths[p]} vs "
                    f"{n} instances in {path}")
        elif Y_t is not None:
            truth.append(np.argmax(Y_t, axis=1) + 1)
        else:
            truth.append(None)
    if any(t is None for t in truth):
        truth = None
    return ProblemData(X_s=X_s, Y_s=Y_s, targets=tuple(targets)), truth


def _settings(cls, args, **given):
    """A Hyperparams or SynthSpec from the flag of each field's name, or
    given. The refusal of a field read from a flag spelled otherwise than
    the field starts with that flag."""
    try:
        return cls(**{f.name: getattr(args, f.name) for f in fields(cls)} | given)
    except InvalidConfigError as exc:
        if exc.field in (None, *given) or _flag(exc.field) == "--" + exc.field:
            raise
        raise InvalidConfigError(f"{_flag(exc.field)}: {exc}", exc.field) from None


def _accuracies(preds, truth) -> list:
    """Each target's predicted labels scored against its true ones."""
    return [accuracy(pred, t) for pred, t in zip(preds, truth)]


def _trace_csv(rows, accs) -> str:
    """accs holds each row's per-target accuracies, or nothing."""
    header = "iter,objective,log10_objective"
    if accs:
        header += "," + ",".join(f"acc_{i + 1}" for i in range(len(accs[0])))
    lines = [header]
    for r, row_accs in zip(rows, accs or [()] * len(rows)):
        log10 = math.log10(r.objective) if r.objective > 0 else float("-inf")
        cells = [str(r.iteration), repr(float(r.objective)), repr(float(log10))]
        cells.extend(repr(a) for a in row_accs)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _predictions_text(labels) -> str:
    return "\n".join(str(int(v)) for v in labels) + "\n"


def _metrics_text(baseline: str, rows, preds, truth) -> str:
    lines = [f"baseline={baseline}", f"iterations={len(rows)}"]
    if rows:
        lines.append(f"final_objective={float(rows[-1].objective)!r}")
    if truth is not None:
        accs = _accuracies(preds, truth)
        for i, a in enumerate(accs):
            lines.append(f"accuracy_{i + 1}={a!r}")
        lines.append(f"average_accuracy={float(np.mean(accs))!r}")
    return "\n".join(lines) + "\n"


def _logreg_init(data, collect_loss=None):
    model = logreg_train(data.X_s, data.Y_s, on_step=collect_loss)
    return model, [logreg_predict_proba(model, X_t) for X_t in data.targets]


def cmd_train(args) -> int:
    hp = _settings(Hyperparams, args)
    data, truth = _load_problem(args)
    accs = []  # per MRTL iteration when truth is known: trace.csv's acc_p
    if args.baseline == "mrtl":
        _, v_init = _logreg_init(data)

        def score(record, factors):
            accs.append(_accuracies(map(predict, factors), truth))

        factors, _, rows = fit(data, hp, v_init, None if truth is None else score)
        preds = [predict(f) for f in factors]
    elif args.baseline == "nmf":
        for path, X_t in zip(args.targets, data.targets):
            if min(X_t.shape) < data.c:
                raise InvalidConfigError(
                    f"--baseline nmf needs at least c = {data.c} instances and "
                    f"features per target, but target {path} has "
                    f"{X_t.shape[1]} instances and {X_t.shape[0]} features")
        preds = []
        per_target_err = []
        for X_t in data.targets:
            errs = []
            _, H = nmf_fit(
                X_t,
                k=data.c,
                iters=hp.maxiter,
                seed=hp.seed,
                on_iteration=lambda i, e, errs=errs: errs.append(e),
            )
            preds.append(nmf_predict_labels(H))
            per_target_err.append(errs)
        rows = [
            TraceRecord(iteration=i, objective=float(sum(errs)))
            for i, errs in enumerate(zip(*per_target_err), start=1)
        ]
    else:  # logreg
        rows = []
        _, v_init = _logreg_init(data, collect_loss=lambda i, v: rows.append(
            TraceRecord(iteration=i, objective=float(v))))
        preds = [np.argmax(v, axis=1) + 1 for v in v_init]

    files = [("trace.csv", _trace_csv(rows, accs))]
    files += [(f"predictions_{p + 1}.txt", _predictions_text(labels))
              for p, labels in enumerate(preds)]
    files += [("metrics.txt", _metrics_text(args.baseline, rows, preds, truth)),
              ("manifest.txt", _manifest(args))]
    _write_outputs(args.out, files)
    return EXIT_OK


def cmd_synth(args) -> int:
    spec = _settings(SynthSpec, args)
    data, truth = generate_synthetic(spec)

    def files():  # one serialized corpus at a time
        source_labels = np.argmax(data.Y_s, axis=1) + 1
        yield "source.txt", serialize_corpus(data.X_s, spec.c, labels=source_labels)
        for p in range(spec.P):
            yield f"target_{p + 1}.txt", serialize_corpus(data.targets[p], spec.c)
            yield f"truth_{p + 1}.txt", _predictions_text(truth[p])
        yield "manifest.txt", _manifest(args)

    _write_outputs(args.out, files())
    return EXIT_OK


def cmd_eval(args) -> int:
    _check_readable([args.predictions, args.truth])
    pred = _read_labels(args.predictions)
    true = _read_labels(args.truth)
    if pred.shape[0] != true.shape[0]:
        raise InputMismatchError(
            f"{pred.shape[0]} predictions in {args.predictions} vs "
            f"{true.shape[0]} truth labels in {args.truth}")
    print(f"{100.0 * accuracy(pred, true):.2f}")
    return EXIT_OK


def _parse_sweep_values(text: str, kind: str):
    """Each comma-separated item by int() (k1) or float(); none may be empty."""
    convert = int if kind == "k1" else float
    try:
        return [convert(t) for t in text.split(",")]
    except ValueError:
        raise InvalidConfigError(f"malformed {kind} sweep list {text!r}") from None


def cmd_sweep(args) -> int:
    field = "k1" if args.sweep_k1 is not None else "lam"
    axis = _MANIFEST_KEYS.get(field, field)
    values = _parse_sweep_values(getattr(args, "sweep_" + axis), axis)
    # every swept setting is built from its own value, and so checked, before
    # any corpus is read; the flag it replaces is never checked
    settings = []
    for v in values:
        try:
            settings.append(_settings(Hyperparams, args, **{field: v}))
        except InvalidConfigError as exc:
            if exc.field != field:
                raise
            raise InvalidConfigError(
                f"--sweep-{axis} value {v}: {exc}", field) from None
    data, truth = _load_problem(args)
    if truth is None:
        raise InvalidConfigError(
            "sweep needs true target labels (labeled targets or --truth)")
    _, v_init = _logreg_init(data)
    lines = ["value," + ",".join(f"acc_{p + 1}" for p in range(data.P)) + ",avg_acc"]
    for v, hp in zip(values, settings):
        factors, _, _ = fit(data, hp, v_init)
        accs = _accuracies(map(predict, factors), truth)
        cells = [repr(float(v))]
        cells.extend(repr(float(a)) for a in accs)
        cells.append(repr(float(np.mean(accs))))
        lines.append(",".join(cells))
    manifest = _manifest(args, sweep_axis=axis,
                         sweep_values=[float(v) for v in values])
    _write_outputs(args.out, [("sweep.csv", "\n".join(lines) + "\n"),
                              ("manifest.txt", manifest)])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises InvalidConfigError where argparse would print usage and exit."""

    def error(self, message):
        raise InvalidConfigError(message)


def _add_settings(p: argparse.ArgumentParser, cls, helps: dict, **options) -> None:
    """Declare a flag for each field of cls that helps names, in helps'
    order: dest the field, spelled by _flag, parsed by the field's type,
    helped by its text. options maps an add_argument keyword (default,
    metavar) to values by field; the default is otherwise the field's."""
    types, defaults = get_type_hints(cls), {f.name: f.default for f in fields(cls)}
    for name, text in helps.items():
        kwargs = {key: given[name] for key, given in options.items() if name in given}
        kwargs.setdefault("default", defaults[name])
        p.add_argument(_flag(name), dest=name, type=types[name],
                       help=text + " (default %(default)s)", **kwargs)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--source", required=True, metavar="PATH",
                   help="labeled source corpus")
    p.add_argument("--target", dest="targets", action="append", required=True,
                   metavar="PATH", help="target corpus (repeat per target)")
    p.add_argument("--truth", dest="truths", action="append", metavar="PATH",
                   help="true target labels, one integer per line "
                        "(repeat per target, evaluation only)")
    _add_settings(p, Hyperparams, {
        "lam": "weight of the shared-association term",
        "k1": "common feature clusters",
        "k2": "total feature clusters per pair",
        "maxiter": "fitting iterations",
        "seed": "random seed",
        "convergence_tol": "early stop on relative objective change, 0 disables",
    }, metavar={"convergence_tol": "TOL"})
    p.add_argument("--out", required=True, metavar="DIR",
                   help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mrtl",
        description="Transfer labels from one labeled source corpus to "
                    "multiple unlabeled target corpora by joint nonnegative "
                    "matrix tri-factorization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit and write predictions")
    _add_run_flags(p_train)
    p_train.add_argument("--baseline", choices=("mrtl", "nmf", "logreg"),
                         default="mrtl",
                         help="model to run (default mrtl)")
    p_train.set_defaults(func=cmd_train)

    p_synth = sub.add_parser("synth", help="write a synthetic problem")
    _add_settings(p_synth, SynthSpec, {
        "M": "vocabulary size",
        "c": "number of classes",
        "P": "number of target corpora",
        "n_s": "source instances",
        "n_t": "instances per target",
        "k1": "true common clusters",
        "k2": "true total clusters",
        "noise": "relative noise level",
        "domain_shift": "how far the specific clusters' class meaning rotates in "
                        "the targets, in [0, 1]",
        "seed": "random seed",
    }, default={"M": 200, "c": 2, "P": 3, "n_s": 200, "n_t": 150})  # the CLI's own
    p_synth.add_argument("--out", required=True, metavar="DIR")
    p_synth.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score a predictions file")
    p_eval.add_argument("--predictions", required=True, metavar="PATH")
    p_eval.add_argument("--truth", required=True, metavar="PATH")
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser("sweep", help="accuracy across one hyperparameter")
    _add_run_flags(p_sweep)
    axis = p_sweep.add_mutually_exclusive_group(required=True)
    axis.add_argument("--sweep-lambda", metavar="V1,V2,...",
                      help="comma-separated lambda values")
    axis.add_argument("--sweep-k1", metavar="V1,V2,...",
                      help="comma-separated k1 values, each at most --k2")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CorpusFormatError, InputMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NumericalDivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (InvalidConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (MemoryError, ValueError) as exc:
        if not isinstance(exc, MemoryError) and not str(exc).startswith(_TOO_LARGE):
            raise
        print(f"error: cannot allocate: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
