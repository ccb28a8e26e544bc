"""dirac1d benchmark: end-to-end metrics per workload, per-layer metrics traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Run it from the root of a source checkout: the program is imported from
./src and nothing is installed.  Each run generates its workload from the
seed, times `setup_s` in fresh interpreters, runs the operations for S
seconds in a fresh worker process with BLAS pinned to one thread, times
each operation against a fixed host-speed probe run beside it, checks
every operation's outputs, and prints one line per metric followed by a
final JSON line {"correct", "attempted", "failed", "metrics"}.  With
--trace 1 the worker alternates untraced and traced rounds and the metrics
are the per-layer ones; the spans go to .bench_build/perfbench/.  See
perfbench/README.md for the workloads and what each metric should move.

Exit status: 0 when every operation passed its gate, 1 when some failed
(the result is still printed), 2 when nothing could be measured.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_ROOT = ROOT / ".bench_build" / "perfbench"

# the baseline is plain single-threaded BLAS; a multi-thread claim needs a
# workload of its own
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "setup_s": ("s", "lower"),
    "op_rel_p50": ("x_probe", "lower"),
    "op_cpu_rel_p50": ("x_probe", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_frac": ("frac", "higher"),
}
SETUP_REPEATS = 5
# fresh interpreter: import the CLI and parse the workload's config
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import dirac1d.cli; "
              "dirac1d.config.parse_config(sys.argv[2])")
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The run could not measure anything."""


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def measure_setup(ini_path: Path, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                                   str(ini_path)], stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            raise BenchError("set-up took over 60 s") from None
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-2000:]}")
        times.append(elapsed)
    return times


def _workload_spec(work, ini_path: Path) -> dict:
    spec = dataclasses.asdict(work)
    spec["ini_path"] = str(ini_path)
    return spec


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    """Measure one workload; returns the result plus detail for printing."""
    import verify
    import workloads
    from tracing import PER_LAYER

    reference = verify.load_reference()
    size = "tiny" if tiny else "full"
    work = workloads.make(name, seed, tiny, reference.get(f"shoot_levels/{size}"))
    warm = workloads.make(name, seed, True, reference.get("shoot_levels/tiny"))

    started = time.perf_counter()
    run_dir = WORK_ROOT / f"{name}-s{seed}-{os.getpid()}"
    spans_path = WORK_ROOT / f"spans-{name}-s{seed}.json"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        ini_path = run_dir / "work.ini"
        warm_ini = run_dir / "warmup.ini"
        ini_path.write_text(work.ini)
        warm_ini.write_text(warm.ini)

        setup = [] if trace else measure_setup(ini_path, 1 if tiny else SETUP_REPEATS)

        spec_path, result_path = run_dir / "spec.json", run_dir / "result.json"
        spec_path.write_text(json.dumps({
            "src": str(ROOT / "src"), "run_dir": str(run_dir),
            "seconds": seconds, "trace": trace, "spans_path": str(spans_path),
            "work": _workload_spec(work, ini_path),
            "warmup": _workload_spec(warm, warm_ini),
        }))
        budget = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "worker.py"), "--spec", str(spec_path),
                 "--result", str(result_path)],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker exceeded {budget:.0f} s") from None
        if proc.returncode != 0:
            raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
        result = json.loads(result_path.read_text())

        gate = verify.gate_for(work, str(ini_path), reference)
        failures = []
        for op in result["ops"]:
            try:
                reason = gate.check(op)
            except (OSError, ValueError, KeyError) as exc:
                reason = f"outputs unreadable: {exc!r}"
            op["ok"] = reason is None
            if reason:
                failures.append(reason)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops = result["ops"]
    probes = result["probes"]
    for i, op in enumerate(ops):
        if "wall" in op:
            # the host's speed during the operation, read by the probes that
            # ran just before and just after it
            op["probe_wall"] = (probes[i]["wall"] + probes[i + 1]["wall"]) / 2
            op["probe_cpu"] = (probes[i]["cpu"] + probes[i + 1]["cpu"]) / 2
    good = [op for op in ops if op["ok"]]
    plain = [op for op in good if not op["traced"]]
    traced = [op for op in good if op["traced"]]
    if not plain or (trace and not traced):
        raise BenchError("no operation passed its correctness gate: "
                         + "; ".join(failures[:3]))

    if trace:
        layers = [result["layers"][str(i)] for i, op in enumerate(ops)
                  if op["ok"] and op["traced"]]
        values = {m: statistics.median(l[m] for l in layers)
                  for m in PER_LAYER if m != "trace_overhead_frac"}
        values["trace_overhead_frac"] = (
            statistics.median(op["wall"] for op in traced)
            / statistics.median(op["wall"] for op in plain) - 1.0)
        units = {m: unit for m, (unit, _) in PER_LAYER.items()}
    else:
        values = {
            "setup_s": statistics.median(setup),
            "op_rel_p50": statistics.median(op["wall"] / op["probe_wall"]
                                            for op in plain),
            "op_cpu_rel_p50": statistics.median(op["cpu"] / op["probe_cpu"]
                                                for op in plain),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
            "pass_frac": len(good) / len(ops),
        }
        units = {m: unit for m, (unit, _) in END_TO_END.items()}

    return {
        "result": {
            "correct": not failures,
            "attempted": len(ops),
            "failed": len(ops) - len(good),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
        },
        "failures": failures,
        "samples": {"ops": len(plain), "traced_ops": len(traced),
                    "setup": len(setup)},
        "spans_path": str(spans_path) if trace else None,
        "seconds": {
            "op_s_p50": statistics.median(op["wall"] for op in plain),
            "op_cpu_s_p50": statistics.median(op["cpu"] for op in plain),
            "probe_s_p50": statistics.median(p["wall"] for p in probes),
        },
    }


def print_detail(name: str, seed: int, out: dict, facts: dict) -> None:
    res = out["result"]
    print(f"workload {name}  seed {seed}  attempted {res['attempted']}  "
          f"failed {res['failed']}  fail_frac {res['failed'] / res['attempted']:.4g}")
    samples = out["samples"]
    print(f"  samples: {samples['ops']} untraced op(s), {samples['traced_ops']} "
          f"traced op(s), {samples['setup']} set-up(s)")
    for metric, m in res["metrics"].items():
        print(f"  {metric:34s} {m['value']:<14.6g} {m['unit']}")
    for name_s, value in out["seconds"].items():
        print(f"  {name_s:34s} {value:<14.6g} s (raw, not normalised)")
    for reason in out["failures"]:
        print(f"  FAILED: {reason}", file=sys.stderr)
    if out["spans_path"]:
        print(f"  spans: {out['spans_path']}")
    print("  facts: " + json.dumps(dict(facts, seed=seed, samples=samples)))


def _terminate(signum, frame):
    # unwinding through subprocess.run kills and reaps the worker, and the
    # run directory is removed on the way out
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    import workloads

    signal.signal(signal.SIGTERM, _terminate)

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=(*workloads.NAMES, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload (self-test only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dirac1d" / "__init__.py").is_file():
        print(f"perfbench: no dirac1d source under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import dirac1d
    if Path(dirac1d.__file__).resolve().parent != ROOT / "src" / "dirac1d":
        print(f"perfbench: imported dirac1d from {dirac1d.__file__}, not from "
              "this checkout", file=sys.stderr)
        return 2

    facts = machine_facts()
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {}
    failed = False
    for name in names:
        try:
            out = run_workload(name, args.seed, args.seconds, bool(args.trace),
                               args.tiny)
        except BenchError as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 2
        print_detail(name, args.seed, out, facts)
        results[name] = out["result"]
        failed = failed or not out["result"]["correct"]
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
