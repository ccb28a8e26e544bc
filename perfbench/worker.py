"""Benchmark worker: runs one workload's operations in a fresh process.

run.py starts it with BLAS pinned to one thread and reads its results from
the JSON file named by --result.  Usage:

    python3 perfbench/worker.py --spec SPEC.json --result RESULT.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _cli_ops(cli, work: dict, run_dir: Path) -> list:
    def op(i: int) -> dict:
        out = run_dir / f"op{i:04d}"
        argv = ["diagnose", work["ini_path"], "--out", str(out), *work["cli_args"]]
        return {"rc": cli.main(argv), "out": str(out)}
    return [op]


def _shoot_ops(solver, problem: tuple, work: dict) -> list:
    def make(level: str, guess: float):
        def op(i: int) -> dict:
            res = solver.shooting_solve(*problem, guess)
            return {"rc": 0, "level": level, "iterations": res.iterations,
                    "energy": [res.energy.real, res.energy.imag]}
        return op
    return [make(level, guess) for level, guess in work["guesses"]]


def _run_op(fn, i: int, tracer=None) -> dict:
    """Time one operation; a failing one is recorded and the run goes on
    (the parent counts it as failed and leaves it out of the timings)."""
    sink = io.StringIO()
    traced = tracer.operation(i) if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), traced:
            c0, t0 = time.process_time(), time.perf_counter()
            rec = fn(i)
            t1, c1 = time.perf_counter(), time.process_time()
    except Exception:  # noqa: BLE001 - the operation loop must keep running
        return {"rc": -1, "error": traceback.format_exc(limit=4)}
    rec.update(wall=t1 - t0, cpu=c1 - c0)
    return rec


class Probe:
    """A fixed host-speed probe, independent of dirac1d.

    It runs between operations in the same process, so it sees the same CPU
    at nearly the same moment.  Its kind matches what the workload's
    operations spend their time on: "numpy" is a loop of numpy expressions
    on 200-point complex arrays, like the balance pairs; "python" is an
    interpreter-bound loop of scalar arithmetic and tiny numpy calls, like
    the shooter's RK4 steps.  One measurement is the median of REPEATS
    runs, so a single interruption does not count.
    """

    REPEATS = 5

    def __init__(self, kind: str):
        import numpy as np

        rng = np.random.default_rng(20240601)
        self._np = np
        self._a = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        self._b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        self._w = rng.random(200)
        self._kernel = {"numpy": self._numpy, "python": self._python}[kind]

    def _numpy(self) -> None:
        np, a, b, w = self._np, self._a, self._b, self._w
        acc = 0j
        for _ in range(1500):
            d = np.gradient(a) - 1j * b * w
            acc += np.sum(np.conj(a) * d * w) + np.linalg.norm(d)

    def _python(self) -> None:
        np, v = self._np, self._w[:64]
        acc = 0.0
        for i in range(15000):
            acc += math.sin(i * 1e-3) * float(np.dot(v, v)) + abs(complex(acc, i))

    def measure(self) -> dict:
        walls, cpus = [], []
        for _ in range(self.REPEATS):
            c0, t0 = time.process_time(), time.perf_counter()
            self._kernel()
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
        return {"wall": statistics.median(walls), "cpu": statistics.median(cpus)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()
    spec = json.loads(Path(args.spec).read_text())
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    from dirac1d import cli, config, lorentz, solver
    from tracing import Tracer

    run_dir = Path(spec["run_dir"])

    def problem_of(ini: str) -> tuple:
        cfg = config.parse_config(ini)
        grid = cfg.build_grid()
        profile = cfg.build_mass_profile()
        return (grid, cfg.build_potential(grid, profile),
                lorentz.sample_mass(profile, grid))

    work, warm = spec["work"], spec["warmup"]
    if work["guesses"]:
        round_ops = _shoot_ops(solver, problem_of(work["ini_path"]), work)
        warm_ops = _shoot_ops(solver, problem_of(warm["ini_path"]), warm)
    else:
        round_ops = _cli_ops(cli, work, run_dir)
        warm_ops = _cli_ops(cli, warm, run_dir / "warmup")
    for fn in warm_ops:
        _run_op(fn, 0)
    probe = Probe(work["probe"])
    probe.measure()

    tracer = Tracer() if spec["trace"] else None
    ops: list[dict] = []
    probes: list[dict] = []  # probes[i] ran just before operation i
    layers: dict[int, dict] = {}
    start = time.perf_counter()
    unit_s = 0.0
    # a unit is one untraced round of the workload's operations, followed
    # in trace mode by a traced round.  The first unit always runs; a later
    # one starts only if a unit as long as the last still ends within the
    # seconds, so the run does not overshoot them by most of a unit.  The
    # probe runs before every operation and once after the last.
    while not ops or time.perf_counter() - start + unit_s <= spec["seconds"]:
        unit_start = time.perf_counter()
        for traced in ((False, True) if tracer else (False,)):
            for fn in round_ops:
                i = len(ops)
                probes.append(probe.measure())
                rec = _run_op(fn, i, tracer if traced else None)
                rec["traced"] = traced
                ops.append(rec)
                if traced and "wall" in rec:
                    layers[i] = tracer.layer_metrics(i)
        unit_s = time.perf_counter() - unit_start

    probes.append(probe.measure())
    result = {"ops": ops, "probes": probes, "layers": layers,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer:
        Path(spec["spans_path"]).write_text(json.dumps(tracer.dump()))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
