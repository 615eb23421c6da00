"""One repetition of a workload, in a fresh interpreter.

    python3 worker.py PLAN RESULT [SPANS]

PLAN is a JSON list of {"name", "argv"} commands passed to mrtl.cli.main in
order, from the current directory. RESULT receives each command's exit code,
wall time and standard output, and the process's peak resident memory. With
SPANS the run is traced and its spans are written there at the end. The
clock starts after ``import mrtl.cli``; start-up is measured separately.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import mrtl.cli


def main(argv) -> int:
    plan_path, result_path = argv[0], argv[1]
    spans_path = argv[2] if len(argv) > 2 else None
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    commands = []
    for step in plan:
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                if tracer is None:
                    rc = mrtl.cli.main(step["argv"])
                else:
                    rc = tracer.call("cli." + step["name"], mrtl.cli.main, step["argv"])
        except SystemExit as exc:  # argparse rejects its flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the benchmark reports a crash as a failed command
            traceback.print_exc()
            rc = 1
        seconds = time.perf_counter() - start
        commands.append(
            {"name": step["name"], "rc": rc, "seconds": seconds, "stdout": out.getvalue()}
        )

    result = {
        "commands": commands,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(spans_path)
        result["forward_passes"] = tracer.forward_passes
        result["loads"] = tracer.loads
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
