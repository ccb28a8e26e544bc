"""Fast self-test of the benchmark code.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  It runs every workload at a tiny
size, untraced and traced, and checks the output schema and the metric names
and units against BENCHMARK.json; checks that the correctness gates trip on
a corrupted energy and a failed exit code; and checks that the benchmark
refuses to run without the program's source.  Exit status 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_build" / "perfbench" / "selftest"

failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(f"  {'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def run_bench(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def check_declaration(spec: dict) -> None:
    import run
    import tracing
    import workloads

    print("BENCHMARK.json matches the benchmark code")
    expect([w["name"] for w in spec["workloads"]] == list(workloads.NAMES),
           "workload names")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", tracing.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        expect(declared == table, f"{key} names, units and directions")


def check_schema(spec: dict) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[key]}
        for w in spec["workloads"]:
            name = w["name"]
            print(f"tiny {name}, --trace {trace}")
            proc = run_bench(["--workload", name, "--seed", "5", "--seconds", "1",
                              "--trace", str(trace), "--tiny"])
            expect(proc.returncode == 0, f"exit code 0 (got {proc.returncode}) "
                   + proc.stderr.strip()[-300:])
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                expect(False, "last line is a JSON object")
                continue
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   "result keys")
            expect(res["correct"] is True and res["failed"] == 0
                   and isinstance(res["attempted"], int) and res["attempted"] >= 1,
                   "every operation passed")
            metrics = res.get("metrics", {})
            expect(set(metrics) == set(units), "metric names")
            expect(all(isinstance(m["value"], (int, float)) and m["unit"] == units[n]
                       for n, m in metrics.items() if n in units),
                   "numeric values with the declared units")


def check_gates() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import contextlib
    import io

    from dirac1d import cli

    import verify
    import workloads

    print("correctness gates trip")
    reference = verify.load_reference()
    work = workloads.make("many_states_diagnose", 5, tiny=True)
    ini = SCRATCH / "many.ini"
    ini.write_text(work.ini)
    out = SCRATCH / "many_out"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["diagnose", str(ini), "--out", str(out), *work.cli_args])
    gate = verify.CliGate(work, str(ini), None)
    rec = {"rc": rc, "out": str(out)}
    expect(gate.check(rec) is None, "a genuine diagnose output passes")
    expect(gate.check({"rc": 2, "out": str(out)}) is not None, "exit code 2 fails")

    energies, _ = verify.read_spectrum(out)
    spectrum = out / "spectrum.csv"
    lines = spectrum.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[1].split(",")
    col = header.index("energy_re")
    cells[col] = repr(float(cells[col]) + 1e-6)
    lines[1] = ",".join(cells)
    spectrum.write_text("\n".join(lines) + "\n")
    reason = gate.check(rec)
    expect(reason is not None and "oracle" in reason,
           f"an energy moved by 1e-6 fails the oracle ({reason})")

    ref = list(energies)
    expect(verify.multiset_mismatch(energies[::-1], ref) is None,
           "a reordered spectrum matches its reference")
    ref[3] += 1e-8
    expect(verify.multiset_mismatch(energies, ref) is not None,
           "a reference off by 1e-8 does not match")

    levels = reference["shoot_levels/tiny"]
    shoot = verify.ShootGate(levels)
    e0 = levels["ground"]
    expect(shoot.check({"rc": 0, "level": "ground", "energy": e0}) is None,
           "the reference shooting level passes")
    expect(shoot.check({"rc": 0, "level": "ground",
                        "energy": [e0[0] + 1e-6, e0[1]]}) is not None,
           "a shooting energy moved by 1e-6 fails")


def check_refuses_without_source(spec_path: Path) -> None:
    print("no result without the program's source")
    bare = SCRATCH / "bare"
    shutil.copytree(BENCH, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(spec_path, bare / "BENCHMARK.json")
    proc = run_bench(["--workload", "shoot_levels", "--seed", "1", "--seconds", "1",
                      "--trace", "0"], cwd=bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"non-zero exit and no result (exit {proc.returncode})")


def main() -> int:
    os.chdir(ROOT)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        check_declaration(spec)
        check_gates()
        check_refuses_without_source(spec_path)
        check_schema(spec)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    print(f"{len(failures)} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
