"""Spans and counts recorded around mrtl's public functions, from outside.

The tracer replaces a function by a timing wrapper in the namespace of the
module that calls it (``mrtl.cli.load_corpus``, ``mrtl.engine.update_v``), so
the program's own files stay untouched. Spans are kept in memory as
(name, start_ns, end_ns, parent index) and written out once the run ends.
"""

from __future__ import annotations

import time

import numpy as np

import mrtl.baselines
import mrtl.cli
import mrtl.data
import mrtl.engine

# (module whose namespace is patched, attribute, span name)
SPANS = [
    (mrtl.cli, "load_corpus", "data.load_corpus"),
    (mrtl.cli, "normalize_input", "data.normalize_input"),
    (mrtl.cli, "serialize_corpus", "data.serialize_corpus"),
    (mrtl.cli, "generate_synthetic", "data.generate_synthetic"),
    (mrtl.cli, "logreg_train", "baselines.logreg_train"),
    (mrtl.cli, "logreg_predict_proba", "baselines.logreg_predict_proba"),
    (mrtl.cli, "fit", "engine.fit"),
    (mrtl.engine, "init_factors", "engine.init_factors"),
    (mrtl.engine, "run_iteration", "engine.run_iteration"),
    (mrtl.engine, "objective", "engine.objective"),
    (mrtl.engine, "update_u_target", "engine.update_u_target"),
    (mrtl.engine, "update_u_source", "engine.update_u_source"),
    (mrtl.engine, "update_u_common", "engine.update_u_common"),
    (mrtl.engine, "update_pair_associations", "engine.update_pair_associations"),
    (mrtl.engine, "update_v", "engine.update_v"),
    (mrtl.engine, "normalize_all", "engine.normalize_all"),
    (mrtl.engine, "update_shared_associations", "engine.update_shared_associations"),
    (mrtl.engine, "safe_ratio_sqrt", "linalg.safe_ratio_sqrt"),
    (mrtl.engine, "frobenius_sq", "linalg.frobenius_sq"),
    (mrtl.engine, "normalize_columns_l1", "linalg.normalize"),
    (mrtl.engine, "normalize_rows_l1", "linalg.normalize"),
    (mrtl.data, "normalize_columns_l1", "linalg.normalize"),
]


class Tracer:
    """Span and count recorder for one process; install() patches mrtl."""

    def __init__(self):
        self.spans = []  # (name, start_ns, end_ns, parent index or -1)
        self._stack = []  # (index, name) of the spans still open
        self.forward_passes = 0  # expit calls made inside logreg_train
        self.loads = []  # (corpus path, nonzero entries, M, n) per load

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        index = len(self.spans)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(None)
        self._stack.append((index, name))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module, attr, name in SPANS:
            setattr(module, attr, self._wrap(getattr(module, attr), name))

        load = mrtl.cli.load_corpus

        def load_and_count(path):
            X, Y = load(path)
            # counted outside the load span
            self.loads.append((path, int(np.count_nonzero(X)), X.shape[0], X.shape[1]))
            return X, Y

        mrtl.cli.load_corpus = load_and_count

        expit = mrtl.baselines.expit

        def counted_expit(*args, **kwargs):
            if self._stack and self._stack[-1][1] == "baselines.logreg_train":
                self.forward_passes += 1
            return expit(*args, **kwargs)

        mrtl.baselines.expit = counted_expit

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent\n")
            for name, start, end, parent in self.spans:
                fh.write(f"{name},{start},{end},{parent}\n")
