"""cogia benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload oracle-sweep --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and README.md): oracle-sweep, rate-sweep,
verify-large.  With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds with no tracing; with ``--trace 1`` it runs a fixed,
seed-determined list of operations both untraced and under the outside-in
tracer and reports the per-layer metrics and the tracing overhead.

The package is imported from ``src/`` of the checkout this file sits in;
the run fails (exit 2, no result) when that source tree is missing.  The last
line of standard output is the result object; the line before it holds the
environment record, output hashes and sample counts.
"""

import os

# Pin BLAS threads before numpy is first imported, here and in the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

from hostref import REF_MS, sample_ms  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 15
HASH_ROUNDS = 4
# Rounds per second of --seconds in the traced run's fixed operation list;
# each round runs twice (untraced and traced), sized so that both passes
# take about 0.8 x --seconds on the code this benchmark was written against.
TRACE_ROUNDS_PER_S = {"oracle-sweep": 1.6, "rate-sweep": 1.4, "verify-large": 1.5}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_cogia():
    if not (SRC / "cogia" / "__init__.py").is_file():
        fail(f"no cogia source tree under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import cogia

    if Path(cogia.__file__).resolve().parent != SRC / "cogia":
        fail(f"cogia was imported from {cogia.__file__}, not from {SRC}")
    return cogia


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_rev() -> str | None:
    """HEAD commit read from ``.git`` inside the checkout (None outside a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(cogia) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "cogia": cogia.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

class SetupProbe:
    """Wall time of fresh interpreters running setup_probe.py.

    The probes are spread over the run, and each is scaled to the reference
    host speed with a reference-loop sample taken just before it.  One
    untimed probe runs first so that byte-code compilation of a fresh
    checkout is not counted.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.ref_ms: list[float] = []
        self.failed = 0
        self._probe()
        self.samples.clear()
        self.ref_ms.clear()

    def _probe(self) -> None:
        self.ref_ms.append(sample_ms())
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, str(BENCH / "setup_probe.py")], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60, check=False)
        self.samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            self.failed += 1
            sys.stderr.write(proc.stderr.decode(errors="replace"))

    def due(self, elapsed: float, seconds: float) -> None:
        """Run the next probe once its share of the run's time has passed."""
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * seconds / SETUP_REPEATS:
            self._probe()

    def finish(self) -> float:
        """Median scaled set-up time."""
        while len(self.samples) < SETUP_REPEATS:
            self._probe()
        return statistics.median([t * REF_MS / r for t, r in zip(self.samples, self.ref_ms)])


class Pass:
    """Timings and failures of the units run in one pass over some rounds."""

    def __init__(self) -> None:
        self.round_rates: list[float] = []  # operations per second of busy time, per round
        self.round_p50_ms: list[float] = []  # per-round percentiles of per-operation time
        self.round_p99_ms: list[float] = []
        self.ops = 0
        self.failed = 0
        self.busy_ns = 0
        self.units = 0
        self.ref_ms: list[float] = []  # host reference loop, once per round


def run_rounds(wl, rounds, seconds=None, tracer=None, on_round=None, hostref=False, p=None) -> Pass:
    """Run rounds until they are exhausted or ``seconds`` of wall time passed.

    Only ``execute`` is timed; drawing inputs and checking outputs are not.
    Results are added to ``p`` when given.
    """
    p = Pass() if p is None else p
    start = perf_counter()
    for k, units in enumerate(rounds):
        if hostref:
            p.ref_ms.append(sample_ms())
        round_ops = 0
        round_ns = 0
        op_ms = []
        for unit in units:
            if tracer is not None:
                tracer.op = p.units
            t0 = perf_counter_ns()
            result = wl.execute(unit)
            dt = perf_counter_ns() - t0
            n = wl.ops(unit)
            p.failed += wl.check(unit, result)
            op_ms.append(dt / 1e6 / n)
            p.units += 1
            round_ops += n
            round_ns += dt
        p.ops += round_ops
        p.busy_ns += round_ns
        p.round_rates.append(round_ops / (round_ns / 1e9))
        p50, p99 = percentiles(op_ms)
        p.round_p50_ms.append(p50)
        p.round_p99_ms.append(p99)
        if on_round is not None:
            on_round(k, perf_counter() - start)
        if seconds is not None and perf_counter() - start >= seconds:
            break
    return p


def percentiles(values: list[float]) -> tuple[float, float]:
    """50th and 99th percentile, never beyond the largest value."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=100, method="inclusive")
    return q[49], q[98]


def end_to_end(wl, seconds: int, info: dict) -> tuple[dict, int, int, bool]:
    setup = SetupProbe()
    digests = {}

    def on_round(k: int, elapsed: float) -> None:
        if k + 1 == HASH_ROUNDS:
            digests["first_rounds"] = wl.take_digest()
        setup.due(elapsed, seconds)

    p = run_rounds(wl, wl.rounds(), seconds=seconds, on_round=on_round, hostref=True)
    setup_s = setup.finish()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Each round's figures are brought to the reference host speed with the
    # reference loop timed just before it (see hostref.py); the run reports
    # the median over rounds.
    scale = [REF_MS / ref for ref in p.ref_ms]
    median = statistics.median
    info.update(
        operation=wl.op_name,
        rounds=len(p.round_rates),
        units=p.units,
        host_ref_ms=median(p.ref_ms),
        unscaled={"setup_s": median(setup.samples), "ops_per_s": median(p.round_rates),
                  "op_p50_ms": median(p.round_p50_ms), "op_p99_ms": median(p.round_p99_ms)},
        setup_samples_s=setup.samples,
        setup_failed=setup.failed,
        error_rate=p.failed / p.ops,
        csv_numpy_repr_cells=getattr(wl, "numpy_repr_cells", 0),
        output_sha256={"rounds": min(HASH_ROUNDS, len(p.round_rates)),
                       "sha256": digests.get("first_rounds") or wl.take_digest()},
    )
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (median([r / k for r, k in zip(p.round_rates, scale)]), "1/s"),
        "op_p50_ms": (median([t * k for t, k in zip(p.round_p50_ms, scale)]), "ms"),
        "op_p99_ms": (median([t * k for t, k in zip(p.round_p99_ms, scale)]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, p.ops, p.failed, setup.failed == 0


def per_layer(wl, seconds: int, seed: int, info: dict) -> tuple[dict, int, int, bool]:
    from tracer import LAYERS, Tracer, leftover_wrappers

    # Each round runs both untraced and traced, in alternating order, so both
    # passes see the same host states and the overhead ratio compares like
    # with like.
    n_rounds = max(1, round(TRACE_ROUNDS_PER_S[wl.name] * seconds))
    plain, traced, tr = Pass(), Pass(), Tracer()
    plain_hash, traced_hash = hashlib.sha256(), hashlib.sha256()

    def run_plain(units) -> None:
        run_rounds(wl, [units], p=plain)
        plain_hash.update(wl.take_digest().encode())

    def run_traced(units) -> None:
        with tr:
            run_rounds(wl, [units], tracer=tr, p=traced)
        traced_hash.update(wl.take_digest().encode())

    for k, units in enumerate(itertools.islice(wl.rounds(), n_rounds)):
        for run in ((run_plain, run_traced) if k % 2 == 0 else (run_traced, run_plain)):
            run(units)
    plain_digest, traced_digest = plain_hash.hexdigest(), traced_hash.hexdigest()
    leftover = leftover_wrappers()

    traced_s = traced.busy_ns / 1e9
    c, s = tr.call_count, tr.self_s
    builds = c("alignment.build_all")
    raised = {cls: n for (name, cls), n in tr.raised.items() if name == "alignment.build_all"}
    structural = ("InfeasibleAlloc", "NoComplement", "RankDeficient")
    svd_calls = tr.counts["numpy.svd.calls"]
    checks = c("dof.constructive_check")
    metrics = {
        "scenario.generate_channels.calls": (c("scenario.generate_channels"), "count"),
        "scenario.generate_channels.self_s": (s("scenario.generate_channels"), "s"),
        "scenario.philox_inits": (tr.counts["scenario.philox_inits"], "count"),
    }
    for fn in ("null_space_basis", "min_norm_right_solve", "svd_factor"):
        metrics[f"numerics.{fn}.calls"] = (c(f"numerics.{fn}"), "count")
        metrics[f"numerics.{fn}.self_s"] = (s(f"numerics.{fn}"), "s")
    metrics["numpy.svd.calls"] = (svd_calls, "count")
    metrics["numpy.svd.matrices_per_call"] = (
        tr.counts["numpy.svd.matrices"] / svd_calls if svd_calls else 0.0, "ratio")
    metrics["alignment.build_all.calls"] = (builds, "count")
    for fn in ("build_all", "build_primary_precoders", "build_corrections",
               "build_secondary_precoders", "build_primary_receivers",
               "interference_report", "effective_channels"):
        metrics[f"alignment.{fn}.self_s"] = (s(f"alignment.{fn}"), "s")
    metrics["alignment.build_all.degenerate"] = (raised.get("DegenerateChannel", 0), "count")
    for cls in structural:
        metrics[f"alignment.build_all.structural.{cls}"] = (raised.get(cls, 0), "count")
    metrics["alignment.build_all.structural.other"] = (
        sum(n for cls, n in raised.items() if cls not in structural + ("DegenerateChannel",)), "count")
    metrics["alignment.build_all.ok_ratio"] = (
        (builds - sum(raised.values())) / builds if builds else 0.0, "ratio")
    metrics["dof.constructive_check.calls"] = (checks, "count")
    metrics["dof.constructive_check.self_s"] = (s("dof.constructive_check"), "s")
    metrics["dof.closed_form_feasible.self_s"] = (s("dof.closed_form_feasible"), "s")
    metrics["dof.builds_per_tuple"] = (builds / checks if checks else 0.0, "ratio")
    metrics["rates.waterfill_cell.calls"] = (c("rates.waterfill_cell"), "count")
    for fn in ("waterfill_cell", "pcell_sum_rate", "scell_sum_rate"):
        metrics[f"rates.{fn}.self_s"] = (s(f"rates.{fn}"), "s")
    metrics["cli._trial_kkt.self_s"] = (s("cli._trial_kkt"), "s")
    metrics["cli.write_s"] = (s("cli._write_csv") + s("cli._write_manifest"), "s")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (tr.layer_self_s(layer) / traced_s, "ratio")
    metrics["trace.overhead_ratio"] = (traced.busy_ns / plain.busy_ns, "ratio")
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.operations"] = (traced.ops, "count")
    metrics["trace.spans"] = (len(tr.span_start), "count")

    trace_path = OUT / f"trace-{wl.name}-seed{seed}.npz"
    tr.dump(trace_path, {"workload": wl.name, "seed": seed, "seconds": seconds,
                         "operation": wl.op_name, "metrics": {k: v[0] for k, v in metrics.items()}})
    info.update(
        operation=wl.op_name,
        rounds=n_rounds,
        units=traced.units,
        error_rate=(plain.failed + traced.failed) / (plain.ops + traced.ops),
        leftover_wrappers=leftover,
        trace_file=str(trace_path.relative_to(ROOT)),
        output_sha256={"untraced": plain_digest, "traced": traced_digest},
    )
    ok = not leftover and plain_digest == traced_digest
    return metrics, plain.ops + traced.ops, plain.failed + traced.failed, ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-sweep", "rate-sweep", "verify-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        fail("--seconds must be >= 1 and --seed >= 0")

    cogia = import_cogia()
    from workloads import WORKLOADS

    info = environment(cogia)
    info.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, attempted, failed, ok = per_layer(wl, args.seconds, args.seed, info)
        else:
            metrics, attempted, failed, ok = end_to_end(wl, args.seconds, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": bool(ok and failed == 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
