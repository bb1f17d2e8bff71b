"""End-to-end benchmark of the wgraph command line.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...   (every workload in turn)

One operation is a fixed sequence of wgraph commands, each a subprocess
launched only after the previous one exited.  A run generates the seeded
inputs (several times, to time set-up), runs one untimed warm-up
operation, then repeats the operation until ``--seconds`` have passed, and
checks every operation's reports and written files against oracles
computed apart from wgraph.  Every process runs with one BLAS/OpenMP
thread.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median input
generation), ``verdict_s`` (median operation wall time) and
``peak_rss_mb`` (median over operations of the largest peak RSS of any of
their processes, from that process's own rusage).  The two times are
scaled to a reference machine speed: a fixed calibration loop runs twice
in this process before every operation and after the last, and the times are
multiplied by ``REFERENCE_S`` over its median, which takes out most of the
drift in the speed of a shared machine; the unscaled medians are printed
and recorded too.  ``--trace 1`` alternates untraced operations with
traced ones, where ``bench/tracer.py`` runs each command with its layers
timed, and reports the per-layer metrics (unscaled); the tracing overhead
is the difference of the two medians.  The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy is imported, for this process and every child
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(HERE, "tracer.py")
WGRAPH = "import sys; from wgraph.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
RUN_LIMIT_S = 170.0  # a command still running this long after a run started is killed
REFERENCE_S = 0.1  # what ``calibrate`` takes at the reference speed (see README)

END_TO_END = (("setup_s", "s"), ("verdict_s", "s"), ("peak_rss_mb", "MB"))
LAYERS = ("fileio", "core", "operator", "covering", "spectra", "orbital")
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.self_s", "s"),
    ("fileio.read_s", "s"), ("fileio.bytes_read", "bytes"),
    ("fileio.write_s", "s"), ("fileio.bytes_written", "bytes"), ("fileio.self_s", "s"),
    ("core.self_s", "s"), ("core.calls", "count"), ("core.arcs_built", "count"),
    ("operator.materialize_s", "s"), ("operator.materialize_calls", "count"),
    ("operator.norm_s", "s"), ("operator.self_s", "s"),
    ("covering.verify_s", "s"), ("covering.verify_calls", "count"), ("covering.self_s", "s"),
    ("spectra.spectrum_s", "s"), ("spectra.membership_s", "s"),
    ("spectra.membership_calls", "count"), ("spectra.self_s", "s"),
    ("linalg.s", "s"), ("linalg.calls", "count"), ("linalg.n3", "count"),
    ("orbital.mealy_s", "s"), ("orbital.graph_s", "s"), ("orbital.local_iso_s", "s"),
    ("orbital.local_iso_radii", "count"), ("orbital.transfer_s", "s"), ("orbital.self_s", "s"),
    ("trace.unwrapped_s", "s"), ("trace.op_s", "s"), ("trace.overhead_s", "s"),
)
UNITS = dict(END_TO_END + PER_LAYER)


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": 1}


def calibrate() -> float:
    """Seconds taken here by a fixed mix of dict updates and small Hermitian
    eigensolves, the two kinds of work the wgraph commands do."""
    t0 = perf_counter()
    counts = {}
    for k in range(300_000):
        counts[k & 1023] = counts.get(k & 1023, 0) + k
    rng = np.random.default_rng(0)
    m = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    for _ in range(6):
        np.linalg.eigvalsh(m @ m.conj().T)
    return perf_counter() - t0


@dataclass
class Op:
    """One operation's outcome: wall time, largest peak RSS, exit codes, reports, traces."""

    wall: float
    rss_mb: float
    codes: list
    reports: list
    traces: list


def run_op(workload, traced: bool, env: dict, tag: str, deadline: float) -> Op:
    """Run the operation's commands one after another and time them as one.

    A command still running at ``deadline`` (a ``perf_counter`` value) is
    killed, which fails the operation.
    """
    codes, reports, traces, rss = [], [], [], 0.0
    out_path = os.path.join(workload.work, f"{tag}.out")
    t0 = perf_counter()
    for k, args in enumerate(workload.commands()):
        trace_path = os.path.join(workload.work, f"{tag}.{k}.trace.json")
        argv = [sys.executable, *([TRACER, trace_path] if traced else ["-c", WGRAPH]), *args]
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
            timer = threading.Timer(max(deadline - perf_counter(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        codes.append(proc.returncode)
        rss = max(rss, usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            reports.append(fh.read())
        if traced and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                traces.append(json.load(fh))
    return Op(perf_counter() - t0, rss, codes, reports, traces)


class Checker:
    """Checks operations, once per distinct output (wgraph is deterministic)."""

    def __init__(self, workload):
        self.workload = workload
        self.seen = {}

    def problems(self, op: Op) -> list:
        digest = hashlib.sha256(repr((op.codes, op.reports)).encode())
        for name in self.workload.written():
            if os.path.exists(name):
                with open(name, "rb") as fh:
                    digest.update(hashlib.sha256(fh.read()).digest())
        key = digest.hexdigest()
        if key not in self.seen:
            bad = [f"command {k} exited {c}: {r.strip()[-300:]}" for k, (c, r) in
                   enumerate(zip(op.codes, op.reports)) if c != 0]
            self.seen[key] = bad or self.workload.problems(op.reports)
        return self.seen[key]


SPANS = {  # wrapped function -> (metric of its inclusive time, metric of its call count)
    "operator.materialize": ("operator.materialize_s", "operator.materialize_calls"),
    "operator.norm_bound": ("operator.norm_s", None),
    "operator.matrix_norm_bound": ("operator.norm_s", None),
    "covering.verify_covering": ("covering.verify_s", "covering.verify_calls"),
    "spectra.spectrum": ("spectra.spectrum_s", None),
    "spectra.membership_by_deficiency": ("spectra.membership_s", "spectra.membership_calls"),
    "orbital.from_mealy": ("orbital.mealy_s", None),
    "orbital.orbital_graph": ("orbital.graph_s", None),
    "orbital.local_iso_check": ("orbital.local_iso_s", None),
    "orbital.rayleigh_transfer": ("orbital.transfer_s", None),
}


def layer_metrics(op: Op) -> dict:
    """Per-layer figures of one traced operation, summed over its commands."""
    m = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    for t in op.traces:
        m["cli.import_s"] += t["import_s"]
        m["cli.self_s"] += t["main_s"] - t["cli_child_s"]
        for key, (calls, incl, self_s) in t["spans"].items():
            layer, name = key.split(".", 1)
            m["linalg.s" if layer == "linalg" else f"{layer}.self_s"] += self_s
            if f"{layer}.calls" in m:
                m[f"{layer}.calls"] += calls
            if layer == "fileio" and name.startswith(("read_", "write_")):
                m[f"fileio.{name.split('_')[0]}_s"] += incl
            incl_metric, calls_metric = SPANS.get(key, (None, None))
            if incl_metric:
                m[incl_metric] += incl
            if calls_metric:
                m[calls_metric] += calls
        for key, value in t["counts"].items():
            m[key] += value
    accounted = m["cli.import_s"] + m["cli.self_s"] + m["linalg.s"] + sum(m[f"{x}.self_s"] for x in LAYERS)
    m["trace.op_s"] = op.wall
    m["trace.unwrapped_s"] = op.wall - accounted
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, results: str) -> dict:
    work = os.path.join(HERE, "work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    deadline = perf_counter() + RUN_LIMIT_S
    try:
        workload = WORKLOADS[name](seed, work)
        setups = []
        while len(setups) < SETUP_REPEATS or sum(setups) < SETUP_MIN_S:
            t0 = perf_counter()
            workload.setup()
            setups.append(perf_counter() - t0)
        checker = Checker(workload)
        problems = list(checker.problems(run_op(workload, False, env, "warmup", deadline)))
        ops, traced, failed, calibrations = [], [], 0, []
        start = perf_counter()
        while True:
            calibrations += [calibrate(), calibrate()]
            is_traced = trace and len(ops) > len(traced)  # alternate untraced and traced
            op = run_op(workload, is_traced, env, f"op{len(ops) + len(traced)}", deadline)
            bad = checker.problems(op)
            failed += bool(bad)
            problems += bad
            (traced if is_traced else ops).append(op)
            if perf_counter() - start >= seconds and (not trace or len(traced) == len(ops)):
                break
        calibrations += [calibrate(), calibrate()]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if trace:
        per_op = [layer_metrics(op) for op in traced if not any(op.codes)] or [dict.fromkeys(UNITS, 0.0)]
        metrics = {k: statistics.median(m[k] for m in per_op) for k, _ in PER_LAYER}
        metrics["trace.overhead_s"] = metrics["trace.op_s"] - statistics.median(op.wall for op in ops)
        record_trace = {"workload": name, "seed": seed, "per_command": [op.traces for op in traced]}
        with open(os.path.join(results, f"trace-{name}-{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump(record_trace, fh, indent=1)
    else:
        speed = REFERENCE_S / statistics.median(calibrations)
        metrics = {"setup_s": statistics.median(setups) * speed,
                   "verdict_s": statistics.median(op.wall for op in ops) * speed,
                   "peak_rss_mb": statistics.median(op.rss_mb for op in ops)}
    result = {"correct": not problems, "attempted": len(ops) + len(traced), "failed": failed,
              "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}}
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace, environment=environment(),
                  calibration_s=calibrations, setup_samples=setups, op_walls=[op.wall for op in ops + traced],
                  op_rss_mb=[op.rss_mb for op in ops + traced], problems=problems[:20])
    with open(os.path.join(results, f"{name}-{seed}-trace{int(trace)}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_table(record: dict):
    print(f"workload {record['workload']}  seed {record['seed']}  operations attempted "
          f"{record['attempted']}  failed {record['failed']}  correct {record['correct']}")
    for key, m in record["metrics"].items():
        print(f"  {key:28s} {m['value']:>16.6g} {m['unit']}")
    if not record["trace"]:
        walls = [statistics.median(record[k]) for k in ("setup_samples", "op_walls", "calibration_s")]
        print("  unscaled medians: setup %.6g s, operation %.6g s, calibration %.6g s" % tuple(walls))
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(SRC, "wgraph", "cli.py")):
        print(f"error: no wgraph sources under {SRC}", file=sys.stderr)
        return 2
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    print("environment: " + json.dumps(environment()))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        records.append(run_workload(name, args.seed, args.seconds, bool(args.trace), results))
        print_table(records[-1])
    if len(records) == 1:
        summary = {k: records[0][k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        summary = {"correct": all(r["correct"] for r in records),
                   "attempted": sum(r["attempted"] for r in records),
                   "failed": sum(r["failed"] for r in records),
                   "metrics": {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
