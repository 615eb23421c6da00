"""Output checks for one repetition of a workload.

Each check returns a list of problems; an empty list means the command's
outputs are what the README documents. A command with a problem counts as
failed in the benchmark's result.
"""

from __future__ import annotations

import math
import os

MONOTONE_RTOL = 1e-9  # largest relative objective increase trace.csv may show


def read_labels(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [int(line) for line in fh if line.strip()]


def read_keyvals(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def read_objectives(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return [float(line.split(",")[1]) for line in fh if line.strip()]


def corpus_classes(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        return int(fh.readline().split()[2])


def score(predicted: list, truth: list) -> float:
    return sum(p == t for p, t in zip(predicted, truth)) / len(truth)


def _missing(directory: str, names) -> list:
    return [
        f"missing output {os.path.join(directory, n)}"
        for n in names
        if not os.path.isfile(os.path.join(directory, n))
    ]


def check_synth(out: str, P: int) -> list:
    names = ["manifest.txt", "source.txt"]
    names += [f"{kind}_{p}.txt" for p in range(1, P + 1) for kind in ("target", "truth")]
    return _missing(out, names)


def check_train(out: str, data: str, P: int, maxiter: int) -> list:
    names = ["manifest.txt", "trace.csv", "metrics.txt"]
    names += [f"predictions_{p}.txt" for p in range(1, P + 1)]
    problems = _missing(out, names)
    if problems:
        return problems
    c = corpus_classes(os.path.join(data, "source.txt"))
    metrics = read_keyvals(os.path.join(out, "metrics.txt"))
    accs = []
    for p in range(1, P + 1):
        pred = read_labels(os.path.join(out, f"predictions_{p}.txt"))
        truth = read_labels(os.path.join(data, f"truth_{p}.txt"))
        if len(pred) != len(truth):
            problems.append(f"predictions_{p}.txt has {len(pred)} lines for {len(truth)} instances")
            continue
        if any(not 1 <= v <= c for v in pred):
            problems.append(f"predictions_{p}.txt has a label outside [1, {c}]")
        accs.append(score(pred, truth))
        if float(metrics.get(f"accuracy_{p}", "nan")) != accs[-1]:
            problems.append(f"accuracy_{p} in metrics.txt is not {accs[-1]!r}")
    if len(accs) == P and not math.isclose(
        float(metrics.get("average_accuracy", "nan")), sum(accs) / P, rel_tol=1e-12
    ):
        problems.append("average_accuracy in metrics.txt is not the mean accuracy")
    objectives = read_objectives(os.path.join(out, "trace.csv"))
    if len(objectives) != maxiter or metrics.get("iterations") != str(maxiter):
        problems.append(f"expected {maxiter} iterations, trace.csv has {len(objectives)}")
    for i in range(1, len(objectives)):
        if objectives[i] > objectives[i - 1] * (1.0 + MONOTONE_RTOL):
            problems.append(f"objective increases at iteration {i + 1}")
            break
    return problems


def check_eval(stdout: str, predictions: str, truth: str) -> list:
    want = f"{100.0 * score(read_labels(predictions), read_labels(truth)):.2f}"
    if stdout.strip() != want:
        return [f"eval printed {stdout.strip()!r}, expected {want}"]
    return []


def check_sweep(out: str, P: int, values: list) -> list:
    problems = _missing(out, ["manifest.txt", "sweep.csv"])
    if problems:
        return problems
    with open(os.path.join(out, "sweep.csv"), encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    header = ["value"] + [f"acc_{p}" for p in range(1, P + 1)] + ["avg_acc"]
    if rows[0] != header:
        return [f"sweep.csv header is {rows[0]}"]
    if [float(r[0]) for r in rows[1:]] != [float(v) for v in values]:
        return [f"sweep.csv has rows for {[r[0] for r in rows[1:]]}, swept {values}"]
    for row in rows[1:]:
        accs = [float(v) for v in row[1:-1]]
        if any(not 0.0 <= a <= 1.0 for a in accs) or not math.isclose(
            float(row[-1]), sum(accs) / P, rel_tol=1e-12
        ):
            problems.append(f"sweep.csv row {row[0]} has inconsistent accuracies")
    return problems
