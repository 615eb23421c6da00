"""Keeps the benchmark from rotting: every workload at toy size, traced and
untraced, through the same output checks. No timing is asserted."""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_every_workload_passes_its_checks():
    proc = subprocess.run([sys.executable, RUN, "--smoke"], capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("failed=0 missing=[]") == 3, proc.stdout
