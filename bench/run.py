"""End-to-end and per-layer benchmark of the mrtl command line.

    python3 bench/run.py --workload {small,medium,sparse} --seed N \
        --seconds T --trace {0,1}
    python3 bench/run.py --smoke

Run from the root of a source tree holding ``src/mrtl``; nothing is
installed. Each repetition runs the workload's ``mrtl`` commands through
``mrtl.cli.main`` in a fresh interpreter (bench/worker.py), one process at a
time, and checks every output. Repetitions continue until T seconds have
passed; timings are medians over repetitions. The last line of standard
output is one JSON object: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer metrics of traced repetitions, which alternate with
untraced ones to give the tracing overhead. --smoke runs every workload at
toy size, traced and untraced, through the same checks, with no timing
assertion. Scratch files go to .bench_work/ and are removed afterwards,
except one JSON record per run under .bench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import checks
import gen

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Why each workload exists is in bench/NOTES.md.
WORKLOADS = {
    # the README quick-start at its defaults; the instance is pinned (synth
    # seed 0) for every workload seed
    "small": {"kind": "synth", "P": 3, "maxiter": 100, "sweep": [5, 10, 20, 30, 40, 50],
              "sweep_maxiter": 25,
              "synth": ["--features", "200", "--classes", "2", "--num-targets", "3",
                        "--n-source", "200", "--n-target", "150", "--noise", "1.0",
                        "--domain-shift", "0.5", "--seed", "0"]},
    "medium": {"kind": "dense", "P": 3, "maxiter": 7, "M": 1000, "n_s": 500, "n_t": 500},
    "sparse": {"kind": "text", "P": 3, "maxiter": 3, "M": 8000, "n_s": 200, "n_t": 150},
}

SMOKE = {
    "small": {"kind": "synth", "P": 2, "maxiter": 3, "sweep": [2, 5], "sweep_maxiter": 2,
              "flags": ["--k1", "2", "--k2", "5"],
              "synth": ["--features", "30", "--classes", "2", "--num-targets", "2",
                        "--n-source", "20", "--n-target", "12", "--k1", "2", "--k2", "5",
                        "--noise", "1.0", "--domain-shift", "0.5", "--seed", "0"]},
    "medium": {"kind": "dense", "P": 2, "maxiter": 2, "M": 60, "n_s": 20, "n_t": 12,
               "flags": ["--k1", "2", "--k2", "5"]},
    "sparse": {"kind": "text", "P": 2, "maxiter": 2, "M": 300, "n_s": 20, "n_t": 12,
               "flags": ["--k1", "2", "--k2", "5"]},
}

MIN_REPS = 3  # repetitions a run makes at least, whatever --seconds says
MIN_TRACED_REPS = 2  # of each kind, when traced and untraced ones alternate
# keep a run within 180 s: no repetition starts after MEASURE_LIMIT_S and
# none may take longer than REP_TIMEOUT_S (a normal one takes under 10 s)
MEASURE_LIMIT_S = 100.0
REP_TIMEOUT_S = 60.0
PLATEAU_RTOL = 1e-6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
# outputs that must be byte-identical across repetitions, traced or not
OWNER = {"data": "synth", "run": "train", "sweep": "sweep"}


# ---------------------------------------------------------------- set-up

def child_env() -> dict:
    """Environment of every child: this tree's sources, BLAS threads capped
    at the processors this process may use."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, nproc)), nproc)))
        except ValueError:
            env[var] = str(nproc)
    return env


def environment(env: dict) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: env[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def make_inputs(spec: dict, seed: int, out: str) -> None:
    if spec["kind"] == "dense":
        gen.dense_problem(out, seed, spec["M"], spec["n_s"], spec["n_t"], spec["P"])
    elif spec["kind"] == "text":
        gen.text_problem(out, seed, spec["M"], spec["n_s"], spec["n_t"], spec["P"])


def inputs_dir(spec: dict) -> str:
    """Where a repetition finds its inputs, relative to its own directory:
    written there by synth, or shared by every repetition of the run."""
    return "data" if spec["kind"] == "synth" else "../inputs"


def plan(spec: dict) -> list:
    """The workload's commands, with paths relative to a repetition's
    directory so that every file it writes, manifests included, is the same
    in every repetition."""
    P = spec["P"]
    data = inputs_dir(spec)
    flags = spec.get("flags", [])
    run_flags = ["--source", f"{data}/source.txt"]
    run_flags += [x for p in range(1, P + 1) for x in ("--target", f"{data}/target_{p}.txt")]
    run_flags += [x for p in range(1, P + 1) for x in ("--truth", f"{data}/truth_{p}.txt")]
    steps = []
    if spec["kind"] == "synth":
        steps.append({"name": "synth", "argv": ["synth", *spec["synth"], "--out", data]})
    steps.append({"name": "train", "argv": [
        "train", *run_flags, *flags, "--maxiter", str(spec["maxiter"]), "--out", "run"]})
    if "sweep" in spec:
        steps.append({"name": "sweep", "argv": [
            "sweep", *run_flags, *flags, "--maxiter", str(spec["sweep_maxiter"]),
            "--sweep-k1", ",".join(str(v) for v in spec["sweep"]), "--out", "sweep"]})
    for p in range(1, P + 1):
        steps.append({"name": "eval", "target": p, "argv": [
            "eval", "--predictions", f"run/predictions_{p}.txt",
            "--truth", f"{data}/truth_{p}.txt"]})
    return steps


def start_seconds(env: dict) -> float:
    """Wall time for a fresh interpreter to start and import mrtl.cli."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import mrtl.cli"], env=env, check=True,
                   timeout=60)
    return time.perf_counter() - start


def file_hashes(directory: str) -> dict:
    out = {}
    for dirpath, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return out


def digest(directory: str) -> str:
    """One short hash of every file under directory, names included."""
    blob = json.dumps(sorted(file_hashes(directory).items())).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


# ---------------------------------------------------------- repetitions

def check_commands(spec: dict, steps: list, commands: list, cwd: str) -> list:
    """One list of problems per command."""
    data_dir = os.path.normpath(os.path.join(cwd, inputs_dir(spec)))
    out = []
    for step, cmd in zip(steps, commands):
        if cmd["rc"] != 0:
            out.append([f"exit code {cmd['rc']}"])
            continue
        name = step["name"]
        try:
            if name == "synth":
                problems = checks.check_synth(data_dir, spec["P"])
            elif name == "train":
                problems = checks.check_train(os.path.join(cwd, "run"), data_dir, spec["P"],
                                              spec["maxiter"])
            elif name == "sweep":
                problems = checks.check_sweep(os.path.join(cwd, "sweep"), spec["P"],
                                              spec["sweep"])
            else:
                p = step["target"]
                problems = checks.check_eval(
                    cmd["stdout"], os.path.join(cwd, "run", f"predictions_{p}.txt"),
                    os.path.join(data_dir, f"truth_{p}.txt"))
        except (OSError, ValueError, IndexError, StopIteration) as exc:
            problems = [f"unreadable output: {exc!r}"]
        out.append(problems)
    return out


def run_rep(spec: dict, steps: list, work: str, index: int, traced: bool, env: dict) -> dict:
    cwd = os.path.join(work, f"rep{index}")
    os.makedirs(cwd)
    result_path = os.path.join(work, f"rep{index}.json")
    spans_path = os.path.join(work, f"rep{index}.spans.csv")
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            os.path.join(work, "plan.json"), result_path]
    if traced:
        argv.append(spans_path)
    rep = {"traced": traced, "problems": []}
    try:
        proc = subprocess.run(argv, cwd=cwd, env=env, timeout=REP_TIMEOUT_S,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        ok = proc.returncode == 0 and os.path.isfile(result_path)
        why = f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    except subprocess.TimeoutExpired:
        ok, why = False, f"worker timed out after {REP_TIMEOUT_S} s"
    if not ok:
        rep["problems"] = [[why] for _ in steps]
        return rep
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    rep["problems"] = check_commands(spec, steps, result["commands"], cwd)
    rep["wall_s"] = sum(c["seconds"] for c in result["commands"])
    rep["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    rep["hashes"] = file_hashes(cwd)
    train = [s["name"] for s in steps].index("train")
    if not rep["problems"][train]:
        # read only once the checks have passed on these very files
        run = os.path.join(cwd, "run")
        rep["accuracy"] = float(checks.read_keyvals(os.path.join(run, "metrics.txt"))
                                ["average_accuracy"])
        rep["plateau"] = plateau(os.path.join(run, "trace.csv"))
        if traced:
            rep["layers"] = layer_metrics(spans_path, result)
    if spec["kind"] == "synth" and os.path.isdir(os.path.join(cwd, "data")):
        rep["input_digest"] = digest(os.path.join(cwd, "data"))
    shutil.rmtree(cwd)
    return rep


def plateau(trace_csv: str) -> dict:
    """First iteration whose relative objective change is below 1e-6, or the
    iteration count (marked as not reached) when none is."""
    obj = checks.read_objectives(trace_csv)
    for i in range(1, len(obj)):
        if abs(obj[i] - obj[i - 1]) / abs(obj[i - 1]) < PLATEAU_RTOL:
            return {"value": i + 1, "reached": True}
    return {"value": len(obj), "reached": False}


def compare_outputs(steps: list, reps: list) -> None:
    """Every repetition, traced or not, must write the same bytes as the
    first; a difference fails the command that owns the file."""
    ref = next((r["hashes"] for r in reps if "hashes" in r), None)
    index = {s["name"]: i for i, s in enumerate(steps) if s["name"] in OWNER.values()}
    for rep in reps:
        if "hashes" not in rep:
            continue
        for path in sorted(set(ref) | set(rep["hashes"])):
            if ref.get(path) != rep["hashes"].get(path):
                owner = OWNER.get(path.split(os.sep)[0], "train")
                rep["problems"][index[owner]].append(f"{path} differs from the first repetition")


# ------------------------------------------------------- per-layer metrics

LAYER_TIMES = {
    "data.load_corpus_s": "data.load_corpus",
    "data.serialize_corpus_s": "data.serialize_corpus",
    "data.normalize_input_s": "data.normalize_input",
    "baselines.logreg_train_s": "baselines.logreg_train",
    "baselines.logreg_predict_proba_s": "baselines.logreg_predict_proba",
    "engine.fit_s": "engine.fit",
    "engine.init_factors_s": "engine.init_factors",
    "engine.objective_s": "engine.objective",
    "engine.update_u_target_s": "engine.update_u_target",
    "engine.update_u_source_s": "engine.update_u_source",
    "engine.update_u_common_s": "engine.update_u_common",
    "engine.update_pair_associations_s": "engine.update_pair_associations",
    "engine.update_v_s": "engine.update_v",
    "engine.normalize_all_s": "engine.normalize_all",
    "engine.update_shared_associations_s": "engine.update_shared_associations",
    "linalg.safe_ratio_sqrt_s": "linalg.safe_ratio_sqrt",
    "linalg.frobenius_sq_s": "linalg.frobenius_sq",
    "linalg.normalize_s": "linalg.normalize",
}

COUNTS = {"data.input_nnz", "data.input_density", "data.dense_input_mb",
          "baselines.logreg_forward_passes", "engine.iterations",
          "linalg.safe_ratio_sqrt_calls"}


def layer_metrics(spans_path: str, result: dict) -> dict:
    spans = []
    with open(spans_path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            name, start, end, parent = line.rstrip("\n").split(",")
            spans.append((name, (int(end) - int(start)) / 1e9, int(parent)))
    children = [0.0] * len(spans)
    for name, dur, parent in spans:
        if parent >= 0:
            children[parent] += dur
    total, own, count, iteration_ms = {}, {}, {}, []
    for i, (name, dur, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur
        own[name] = own.get(name, 0.0) + dur - children[i]
        count[name] = count.get(name, 0) + 1
        if name == "engine.run_iteration":
            iteration_ms.append(dur * 1e3)

    # a layer the workload never enters (serialize_corpus outside small) is
    # left out rather than reported as 0
    m = {f"{name}_s": total[name] for name in ("cli.synth", "cli.train", "cli.sweep", "cli.eval")
         if name in total}
    m.update({key: total[name] for key, name in LAYER_TIMES.items() if name in total})
    parsed = sum(nnz for _, nnz, _, _ in result["loads"])
    m["data.load_corpus_entries_per_s"] = parsed / m["data.load_corpus_s"]
    distinct = {path: (nnz, M * n) for path, nnz, M, n in result["loads"]}
    nnz = sum(v[0] for v in distinct.values())
    entries = sum(v[1] for v in distinct.values())
    m["data.input_nnz"] = nnz
    m["data.input_density"] = nnz / entries
    m["data.dense_input_mb"] = 8.0 * entries / 2**20
    m["baselines.logreg_forward_passes"] = result["forward_passes"]
    m["engine.fit_self_s"] = own.get("engine.fit", 0.0)
    m["engine.iterations"] = count.get("engine.run_iteration", 0)
    m["engine.run_iteration_ms_p50"] = statistics.median(iteration_ms)
    if len(iteration_ms) >= 100:
        m["engine.run_iteration_ms_p90"] = statistics.quantiles(iteration_ms, n=10)[-1]
    m["linalg.safe_ratio_sqrt_calls"] = count.get("linalg.safe_ratio_sqrt", 0)
    return m


# ----------------------------------------------------------------- a run

def measure(workload: str, spec: dict, seed: int, seconds: float, trace: bool,
            min_reps: int) -> dict:
    env = child_env()
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        steps = plan(spec)
        with open(os.path.join(work, "plan.json"), "w", encoding="utf-8") as fh:
            json.dump(steps, fh)
        input_digest = None
        if spec["kind"] != "synth":
            make_inputs(spec, seed, os.path.join(work, "inputs"))
            input_digest = digest(os.path.join(work, "inputs"))
        start_seconds(env)  # warms the file cache, untimed
        # start-up is timed once before and once after every repetition, so
        # its samples span the run like the repetitions do
        starts = [start_seconds(env)]

        reps = []
        start = time.perf_counter()
        while True:
            traced = trace and len(reps) % 2 == 1
            reps.append(run_rep(spec, steps, work, len(reps), traced, env))
            starts.append(start_seconds(env))
            untraced = sum(not r["traced"] for r in reps)
            done = (untraced >= min_reps if not trace
                    else min(untraced, len(reps) - untraced) >= min_reps)
            elapsed = time.perf_counter() - start
            if (done and elapsed >= seconds) or elapsed >= MEASURE_LIMIT_S:
                break
        compare_outputs(steps, reps)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(steps) * len(reps)
    failed = sum(bool(p) for rep in reps for p in rep["problems"])
    problems = sorted({f"{s['name']}: {msg}" for rep in reps
                       for s, p in zip(steps, rep["problems"]) for msg in p})
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    scored = [r for r in reps if "accuracy" in r]
    traced_reps = [r for r in reps if r["traced"] and "layers" in r]
    if input_digest is None:
        input_digest = reps[0].get("input_digest")
    record = {
        "workload": workload, "seed": seed, "trace": int(trace), "spec": spec,
        "environment": environment(env), "input_digest": input_digest,
        "reps": len(reps), "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "rep_wall_s": [r.get("wall_s") for r in reps],
    }
    e2e = {}
    if plain:
        e2e = {
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "setup_s": statistics.median(starts),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "ok_frac": 1.0 - failed / attempted,
        }
        if scored:
            e2e["accuracy"] = scored[0]["accuracy"]
    record["end_to_end"] = e2e
    record["failed_frac"] = failed / attempted
    layers = {}
    if traced_reps and plain and scored:
        # times are medians over traced repetitions; counts repeat exactly
        first = traced_reps[0]["layers"]
        layers = {k: first[k] if k in COUNTS else
                  statistics.median(r["layers"][k] for r in traced_reps)
                  for k in sorted(first)}
        layers["engine.iters_to_plateau"] = scored[0]["plateau"]["value"]
        record["plateau_reached"] = scored[0]["plateau"]["reached"]
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced_reps) - e2e["wall_s"])
    record["per_layer"] = layers
    record["rep_layers"] = [r["layers"] for r in traced_reps]
    return record


def bench_metrics(kind: str) -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)[kind]


def report(record: dict, trace: bool) -> dict:
    """Print the human-readable lines and return the result object."""
    print(f"# workload={record['workload']} seed={record['seed']} trace={record['trace']} "
          f"reps={record['reps']} input_digest={record['input_digest']}")
    print("# environment " + json.dumps(record["environment"], sort_keys=True))
    for problem in record["problems"]:
        print(f"# problem {problem}")
    declared = bench_metrics("per_layer" if trace else "end_to_end")
    values = record["per_layer"] if trace else record["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if not trace:
        print(f"failed_frac {record['failed_frac']!r} fraction")
    for name, value in values.items():
        # metrics of one workload only (serialize, sweep, p90) are not declared
        unit = units.get(name) or ("ms" if "_ms_" in name else "s")
        note = " (not reached, censored)" if (
            name == "engine.iters_to_plateau" and not record["plateau_reached"]) else ""
        print(f"{name} {value!r} {unit}{note}")
    correct = record["failed"] == 0 and all(m["name"] in values for m in declared)
    return {
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared if m["name"] in values},
    }


def save(record: dict) -> None:
    results = os.path.join(WORK, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def smoke() -> int:
    ok = True
    for workload, spec in SMOKE.items():
        record = measure(workload, spec, 0, 0.0, True, 1)
        missing = [m["name"] for kind in ("end_to_end", "per_layer")
                   for m in bench_metrics(kind) if m["name"] not in record[kind]]
        ok = ok and record["failed"] == 0 and not missing
        print(f"smoke {workload}: attempted={record['attempted']} failed={record['failed']} "
              f"missing={missing}")
        for problem in record["problems"]:
            print(f"  {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mrtl", "cli.py")):
        print(f"error: no mrtl sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    record = measure(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), MIN_TRACED_REPS if args.trace else MIN_REPS)
    save(record)
    print(json.dumps(report(record, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
