"""Self-test of the benchmark; run from the repository root:

    python3 perfbench/selftest.py

Checks, on a tiny run of every workload with and without tracing, that each
metric ``BENCHMARK.json`` names is emitted with its unit, that no operation
fails on this code, and that the tracer leaves no wrapped attribute behind.
Also checks that the benchmark refuses to run without the source tree.
Exits 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, seconds: int = 1) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3",
                             "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


def check_run(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])["info"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                        f"attempted={result['attempted']}")
    if info["error_rate"] != 0:
        problems.append(f"{where}: error_rate {info['error_rate']}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append(f"{where}: missing {missing}, extra {extra}, wrong unit {wrong}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            problems.append(f"{where}: {k} is not a number")
        elif not trace and not v["value"] > 0:
            problems.append(f"{where}: end-to-end metric {k} is {v['value']}")
    if trace:
        if info["leftover_wrappers"]:
            problems.append(f"{where}: tracer left {info['leftover_wrappers']}")
        hashes = info["output_sha256"]
        if hashes["traced"] != hashes["untraced"]:
            problems.append(f"{where}: traced outputs differ from untraced outputs")
        if workload == "oracle-sweep" and result["metrics"]["rates.waterfill_cell.calls"]["value"] != 0:
            problems.append(f"{where}: rates called on oracle-sweep")
        if result["metrics"]["numpy.svd.matrices_per_call"]["value"] != 1.0:
            problems.append(f"{where}: numpy.svd.matrices_per_call is not 1.00")
    return problems


def check_tracer_in_process() -> list[str]:
    """Install and remove the tracer around one construction, raising inside it."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import numpy as np
    from cogia import alignment, dof, scenario
    from cogia.errors import InfeasibleAlloc
    from tracer import Tracer, leftover_wrappers

    svd, philox, build = np.linalg.svd, np.random.Philox, alignment.build_all
    dims = scenario.NetworkDims(5, 5, 5, 3)
    try:
        with Tracer() as tr:
            dof.constructive_check(dims, scenario.StreamAlloc(1, 1, 1, 1), trials=2, seed=1)
            ch = scenario.generate_channels(dims, 1)
            alignment.build_all(ch, scenario.StreamAlloc(6, 0, 0, 0), 1)
    except InfeasibleAlloc:
        pass
    problems = [f"in-process: tracer left {name}" for name in leftover_wrappers()]
    if (np.linalg.svd, np.random.Philox, alignment.build_all) != (svd, philox, build):
        problems.append("in-process: an attribute was not restored")
    if tr.raised[("alignment.build_all", "InfeasibleAlloc")] != 1:
        problems.append("in-process: the raised InfeasibleAlloc was not counted")
    if tr.call_count("alignment.build_all") != 3 or tr.counts["scenario.philox_inits"] != 6:
        problems.append("in-process: unexpected call counts "
                        f"{tr.call_count('alignment.build_all')}, {tr.counts['scenario.philox_inits']}")
    return problems


def check_refuses_without_source() -> list[str]:
    """In a directory holding only BENCHMARK.json and the benchmark, the run must fail."""
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    problems = check_tracer_in_process() + check_refuses_without_source()
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            problems += check_run(w["name"], trace)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
