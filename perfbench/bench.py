"""Measure one workload in one process: a closed loop with one caller.

The next op starts when the previous one ends, which is how the library
and the `eof` CLI are used.  Untraced runs (`--trace 0`) report the
end-to-end metrics; traced runs (`--trace 1`) run a fixed number of ops
twice, untraced then traced, check that both passes give identical
results, and report the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import scipy

from perfbench import tracing
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"
OUT_DIR = ROOT / "perfbench" / "out"

# (name, unit, better, bound): bound is the share of the parent's median by
# which a metric may worsen before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_s_p50", "s", "lower", 0.25),
    ("op_s_tail", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]
SETUP_SAMPLES = 3          # the parent's own set-up plus two fresh processes
TAIL_BEYOND = 10
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- statistics -------------------------------------------------------------------

def tail_rank(n: int, beyond: int = TAIL_BEYOND) -> int:
    """1-based ascending rank of the op_s_tail latency among n ops.

    The highest rank with at least `beyond` ops above it, but never below
    the p90 rank: a run of fewer than 100 ops reports its p90 (nearest
    rank), because the bare rule would fall below the median under 20 ops.
    """
    return max(n - beyond, -(-9 * n // 10), 1)


def latency_summary(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    rank = tail_rank(n)
    return {"n": n, "p50": statistics.median(ordered), "tail": ordered[rank - 1],
            "tail_pct": 100.0 * rank / n, "tail_beyond": n - rank}


# -- ops ----------------------------------------------------------------------------

@dataclass
class OpRecord:
    k: int
    latency_s: float
    failure: str | None
    finding: bool
    fingerprint: object


def run_op(workload, inputs: list, k: int, tracer=None) -> OpRecord:
    """One timed library call, then its check outside the timed region."""
    x = inputs[k % len(inputs)]
    if tracer is not None:
        tracer.op = k
    t0 = time.perf_counter()
    try:
        out = workload.op(x, k)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return OpRecord(k, time.perf_counter() - t0, f"raised {exc!r}", False, None)
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.op = None
    try:
        failure, finding = workload.check(x, out)
    except Exception as exc:  # output the check cannot read is a failed op
        failure, finding = f"check raised {exc!r}", False
    return OpRecord(k, t1 - t0, failure, finding, workload.fingerprint(out))


def timed_loop(workload, inputs: list, seconds: float) -> list[OpRecord]:
    """Ops 0, 1, 2, ... until `seconds` of op time are measured and a round ends.

    A wall-clock cap keeps a much slower commit inside the run's time limit,
    at the cost of a partial round.
    """
    ops: list[OpRecord] = []
    measured = 0.0
    wall_end = time.perf_counter() + 2 * seconds + 30
    while time.perf_counter() < wall_end:
        ops.append(run_op(workload, inputs, len(ops)))
        measured += ops[-1].latency_s
        if measured >= seconds and len(ops) % workload.round_ops == 0:
            break
    return ops


# -- environment ---------------------------------------------------------------------

def _blas(module) -> dict:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]
    except (TypeError, KeyError):
        return {}
    blas = deps.get("blas", {})
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(np),
        "scipy_blas": _blas(scipy),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "machine_settings": "unchanged: no CPU governor, cache-drop or cgroup change; "
                            "only this process's BLAS/OpenMP threads are pinned to 1",
    }


# -- set-up -----------------------------------------------------------------------------

def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT)
    return float(proc.stdout.split()[-1])


# -- reporting --------------------------------------------------------------------------

def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _write(name: str, payload) -> Path:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path


def _ops_payload(ops: list[OpRecord]) -> list[dict]:
    return [{k: v for k, v in asdict(op).items() if k != "fingerprint"} for op in ops]


def measure(workload, inputs: list, seconds: float, setup_s: list[float], env: dict):
    ops = timed_loop(workload, inputs, seconds)
    lat = latency_summary([op.latency_s for op in ops])
    failed = sum(op.failure is not None for op in ops)
    fail_frac = failed / len(ops)
    values = {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": len(ops) / sum(op.latency_s for op in ops),
        "op_s_p50": lat["p50"],
        "op_s_tail": lat["tail"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {name: unit for name, unit, _, _ in END_TO_END}
    print(f"workload {env['workload']}  seed {env['seed']}  ops {len(ops)}  "
          f"failed {failed}  findings {sum(op.finding for op in ops)}")
    for name, value in values.items():
        extra = ""
        if name == "op_s_tail":
            extra = (f"  (p{lat['tail_pct']:.1f}, {lat['tail_beyond']} ops beyond, "
                     f"n={lat['n']})")
        print(f"  {name:<12} {_fmt(value)} {units[name]}{extra}")
    print(f"  {'fail_frac':<12} {_fmt(fail_frac)} fraction")
    for op in ops:
        if op.failure is not None:
            print(f"  op {op.k} failed: {op.failure}")
    path = _write(f"{env['workload']}-seed{env['seed']}-trace0.json", {
        "env": env, "metrics": values, "units": units, "setup_samples_s": setup_s,
        "fail_frac": fail_frac, "latency": lat,
        "ops": _ops_payload(ops)})
    print(f"  result file {path.relative_to(ROOT)}")
    return (len(ops), failed, failed == 0,
            {n: {"value": values[n], "unit": units[n]} for n in values})


def measure_traced(workload, inputs: list, env: dict):
    ks = range(workload.trace_ops)
    plain = [run_op(workload, inputs, k) for k in ks]
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [run_op(workload, inputs, k, tracer) for k in ks]
    finally:
        tracer.restore()
    left_wrapped = tracing.unrestored(before)
    mismatched = [b.k for a, b in zip(plain, traced) if a.fingerprint != b.fingerprint]
    nfev_bad = tracing.nfev_mismatches(tracer.spans)
    overhead = (sum(op.latency_s for op in traced) / sum(op.latency_s for op in plain)
                - 1.0)
    values = tracing.layer_metrics(tracer.spans, overhead)
    failed = (sum(op.failure is not None for op in plain + traced) + len(mismatched))
    print(f"workload {env['workload']}  seed {env['seed']}  traced ops {len(traced)} "
          f"(each also run untraced)  failed {failed}")
    print(f"  parity: outputs (values, restart values, nit) identical on "
          f"{len(traced) - len(mismatched)}/{len(traced)} ops; restarts whose scipy "
          f"nfev differs from the objective calls traced: {nfev_bad}; "
          f"names left wrapped: {left_wrapped or 'none'}")
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    for name, _, _ in tracing.PER_LAYER:
        print(f"  {name:<44} {_fmt(values[name])} {units[name]}")
    for op in plain + traced:
        if op.failure is not None:
            print(f"  op {op.k} failed: {op.failure}")
    spans_path = _write(f"{env['workload']}-seed{env['seed']}-spans.json",
                        [asdict(s) for s in tracer.spans])
    path = _write(f"{env['workload']}-seed{env['seed']}-trace1.json", {
        "env": env, "metrics": values, "units": units,
        "parity_mismatched_ops": mismatched, "nfev_mismatches": nfev_bad,
        "left_wrapped": left_wrapped, "plain_ops": _ops_payload(plain),
        "traced_ops": _ops_payload(traced), "spans_file": spans_path.name})
    print(f"  result file {path.relative_to(ROOT)}, spans {spans_path.relative_to(ROOT)}")
    correct = failed == 0 and nfev_bad == 0 and not left_wrapped
    return (2 * len(traced), failed, correct,
            {n: {"value": values[n], "unit": units[n]} for n, _, _ in tracing.PER_LAYER})


def main(argv: list[str], t0: float) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    setup = time.perf_counter() - t0
    if args.setup_only:
        print(setup)
        return 0
    env = environment(args.workload, args.seed)
    print("env: " + json.dumps(env, sort_keys=True))
    if args.trace:
        attempted, failed, correct, metrics = measure_traced(workload, inputs, env)
    else:
        samples = [setup] + [setup_in_fresh_process(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
        attempted, failed, correct, metrics = measure(workload, inputs, args.seconds,
                                                      samples, env)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0
