"""In-memory span tracer around dirac1d's layer functions.

The tracer replaces the public layer functions as they are bound in each
``dirac1d.*`` module namespace (the names the callers look up), and only for
the duration of a traced operation: untraced operations run the package
unmodified.  Each span records its name, start, end, CPU start/end, parent
and operation id; spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  The attribute is the binding the caller
# uses: cli.py calls parse_config/execute/write_outputs through its own
# namespace, report.py calls the layer functions through report's, and so on.
WRAPPED = (
    ("dirac1d.cli", "main", "cli.main"),
    ("dirac1d.cli", "parse_config", "config.parse"),
    ("dirac1d.cli", "execute", "report.execute"),
    ("dirac1d.cli", "write_outputs", "report.write"),
    ("dirac1d.config", "sample_mass", "lorentz.build"),
    ("dirac1d.config", "pt_vector_potential", "lorentz.build"),
    ("dirac1d.report", "sample_mass", "lorentz.build"),
    ("dirac1d.report", "check_pt_symmetry", "lorentz.build"),
    ("dirac1d.report", "gamma0_hermiticity_residual", "lorentz.build"),
    ("dirac1d.report", "assemble_hamiltonian", "hamiltonian.assemble"),
    ("dirac1d.report", "hermiticity_of_operator", "hamiltonian.hermiticity"),
    ("dirac1d.diagnostics", "reduced_residual_norm", "hamiltonian.oracle"),
    ("dirac1d.report", "solve_spectrum", "solver.eig"),
    ("dirac1d.solver", "shooting_solve", "solver.shoot"),
    ("dirac1d.report", "normalize_result", "diagnostics.normalize"),
    ("dirac1d.report", "continuity_residual", "diagnostics.continuity"),
    ("dirac1d.report", "gram_matrix", "diagnostics.gram"),
    ("dirac1d.report", "orthogonality_balance", "diagnostics.balance"),
)

ROOT_SPAN = "bench.op"

# per-layer metric -> (unit, better); the self-time metrics are the sum of
# the self times of the spans named in SELF_TIME
PER_LAYER = {
    "config.parse_s": ("s", "lower"),
    "lorentz.build_s": ("s", "lower"),
    "hamiltonian.assemble_s": ("s", "lower"),
    "hamiltonian.hermiticity_s": ("s", "lower"),
    "hamiltonian.matrix_bytes": ("bytes", "lower"),
    "hamiltonian.nnz": ("count", "lower"),
    "hamiltonian.oracle_calls": ("count", "lower"),
    "hamiltonian.oracle_s": ("s", "lower"),
    "solver.eig_s": ("s", "lower"),
    "solver.eig_cpu_s": ("s", "lower"),
    "solver.matrix_dim": ("count", "lower"),
    "solver.pairs_kept": ("count", "higher"),
    "solver.kept_frac": ("frac", "higher"),
    "solver.shoot_s": ("s", "lower"),
    "solver.shoot_iterations": ("count", "lower"),
    "diagnostics.normalize_s": ("s", "lower"),
    "diagnostics.continuity_s": ("s", "lower"),
    "diagnostics.gram_s": ("s", "lower"),
    "diagnostics.balance_s": ("s", "lower"),
    "diagnostics.balance_pairs": ("count", "higher"),
    "diagnostics.balance_s_per_pair": ("s", "lower"),
    "report.execute_self_s": ("s", "lower"),
    "report.write_s": ("s", "lower"),
    "report.bytes_written": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_frac": ("frac", "lower"),
}

SELF_TIME = {
    "config.parse_s": "config.parse",
    "lorentz.build_s": "lorentz.build",
    "hamiltonian.assemble_s": "hamiltonian.assemble",
    "hamiltonian.hermiticity_s": "hamiltonian.hermiticity",
    "hamiltonian.oracle_s": "hamiltonian.oracle",
    "solver.eig_s": "solver.eig",
    "solver.shoot_s": "solver.shoot",
    "diagnostics.normalize_s": "diagnostics.normalize",
    "diagnostics.continuity_s": "diagnostics.continuity",
    "diagnostics.gram_s": "diagnostics.gram",
    "diagnostics.balance_s": "diagnostics.balance",
    "report.execute_self_s": "report.execute",
    "report.write_s": "report.write",
    "cli.self_s": "cli.main",
}


class Span:
    __slots__ = ("id", "op", "name", "parent", "start", "end",
                 "cpu_start", "cpu_end", "attrs")

    def __init__(self, id_, op, name, parent):
        self.id, self.op, self.name, self.parent = id_, op, name, parent
        self.attrs = {}
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        self.end = self.cpu_end = None

    def as_dict(self) -> dict:
        return {"id": self.id, "op": self.op, "name": self.name,
                "parent": self.parent, "start": self.start, "end": self.end,
                "cpu_start": self.cpu_start, "cpu_end": self.cpu_end,
                "attrs": self.attrs}


def _capture_operator(span, args, op):
    # the matrix is measured after the operation, outside every span
    span.attrs["_matrix"] = op.matrix


def _capture_solve(span, args, result):
    span.attrs["matrix_dim"] = int(args[0].size)
    span.attrs["pairs_kept"] = len(result.eigenpairs)


def _capture_shoot(span, args, result):
    span.attrs["iterations"] = int(result.iterations)


def _capture_written(span, args, paths):
    span.attrs["_paths"] = list(paths)


CAPTURES = {
    "hamiltonian.assemble": _capture_operator,
    "solver.eig": _capture_solve,
    "solver.shoot": _capture_shoot,
    "report.write": _capture_written,
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = None

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), self._op, name, parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()

    def _wrap(self, fn, name):
        capture = CAPTURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if capture is not None:
                capture(span, args, result)
            return result
        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Trace one operation: wrap every layer binding, open a root span,
        and restore the original bindings afterwards."""
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            self._op = op_id
            root = self.open(ROOT_SPAN)
            try:
                yield
            finally:
                self.close(root)
        finally:
            self._op = None
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
        self._measure_captures(op_id)

    def _measure_captures(self, op_id: int) -> None:
        """Turn captured objects into counts once the operation has ended."""
        for span in self.spans:
            if span.op != op_id:
                continue
            matrix = span.attrs.pop("_matrix", None)
            if matrix is not None:
                span.attrs["matrix_bytes"] = int(matrix.nbytes)
                span.attrs["nnz"] = int(np.count_nonzero(matrix))
            paths = span.attrs.pop("_paths", None)
            if paths is not None:
                span.attrs["bytes_written"] = sum(os.path.getsize(p) for p in paths)

    def layer_metrics(self, op_id: int) -> dict:
        """Per-layer metrics of one traced operation (trace_overhead_frac
        excluded: it compares traced with untraced operations)."""
        spans = [s for s in self.spans if s.op == op_id]
        child_wall = {s.id: 0.0 for s in spans}
        child_cpu = {s.id: 0.0 for s in spans}
        for s in spans:
            if s.parent is not None:
                child_wall[s.parent] += s.end - s.start
                child_cpu[s.parent] += s.cpu_end - s.cpu_start
        self_wall: dict[str, float] = {}
        self_cpu: dict[str, float] = {}
        counts: dict[str, int] = {}
        attrs: dict[str, int] = {}
        for s in spans:
            self_wall[s.name] = self_wall.get(s.name, 0.0) + (s.end - s.start) - child_wall[s.id]
            self_cpu[s.name] = (self_cpu.get(s.name, 0.0)
                                + (s.cpu_end - s.cpu_start) - child_cpu[s.id])
            counts[s.name] = counts.get(s.name, 0) + 1
            for key, value in s.attrs.items():
                attrs[key] = attrs.get(key, 0) + value

        out = {metric: self_wall.get(span, 0.0) for metric, span in SELF_TIME.items()}
        pairs = counts.get("diagnostics.balance", 0)
        dim = attrs.get("matrix_dim", 0)
        out.update({
            "hamiltonian.matrix_bytes": attrs.get("matrix_bytes", 0),
            "hamiltonian.nnz": attrs.get("nnz", 0),
            "hamiltonian.oracle_calls": counts.get("hamiltonian.oracle", 0),
            "solver.eig_cpu_s": self_cpu.get("solver.eig", 0.0),
            "solver.matrix_dim": dim,
            "solver.pairs_kept": attrs.get("pairs_kept", 0),
            "solver.kept_frac": attrs.get("pairs_kept", 0) / dim if dim else 0.0,
            "solver.shoot_iterations": attrs.get("iterations", 0),
            "diagnostics.balance_pairs": pairs,
            "diagnostics.balance_s_per_pair":
                out["diagnostics.balance_s"] / pairs if pairs else 0.0,
            "report.bytes_written": attrs.get("bytes_written", 0),
        })
        return out

    def dump(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]
