"""Benchmark of kslab: four workloads, end-to-end figures from an untraced
run, per-layer figures from a traced run.

    python3 bench/run.py --workload ks-scan-small --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"report": ...}`` object with the machine block, the verdict digest,
the counters and per-op medians. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("ks-scan-small", "phik-contraction", "ks-large", "decompose-verify")
# one BLAS thread: the matrices are small, and a shared box gives steadier figures
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_SHARE = 0.025  # of an op's duration, probed on each side of it
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import kslab.cli; t1 = time.perf_counter(); "
                "from probe import probe; print(t1 - t0, probe())")
# modules that every workload enters inside its ops; the others are in the report only
TRACE_METRICS = ("maps", "certify", "linalg")


@dataclass
class Round:
    seconds: list = field(default_factory=list)  # per op; None when the op failed
    probes: list = field(default_factory=list)  # probe seconds before each op and after the last
    problems: list = field(default_factory=list)
    items: list = field(default_factory=list)  # (op index, verdict, value) for the digest
    ranges: list = field(default_factory=list)  # span index range of each op, when traced
    failed: int = 0

    @property
    def op_seconds(self) -> float:
        return sum(s for s in self.seconds if s is not None)

    def scaled(self, i: int) -> float | None:
        """Op i's seconds at the reference speed (mean of the probes around it)."""
        from probe import REFERENCE_S

        s = self.seconds[i]
        return None if s is None else s * REFERENCE_S * 2 / (self.probes[i] + self.probes[i + 1])

    def digest(self) -> str:
        return hashlib.sha256(json.dumps(self.items).encode()).hexdigest()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(ops, windows: list[float], tracer=None) -> Round:
    """One pass over the ops. A probe runs before each op and after the last,
    for a share of the neighbouring ops' last duration (`windows`, updated
    here), so that a long op is scaled by the speed over a longer stretch."""
    from probe import probe

    rnd = Round()
    for i, op in enumerate(ops):
        rnd.probes.append(probe(max(windows[i - 1] if i else 0.0, windows[i])))
        start = tracer.mark() if tracer else 0
        t0 = time.perf_counter()
        try:
            out = op.call()
        except Exception as exc:  # a failed op is counted, and the run goes on
            rnd.seconds.append(None)
            rnd.failed += 1
            sys.stderr.write(f"bench: op '{op.label}' failed: {type(exc).__name__}: {exc}\n")
            continue
        rnd.seconds.append(time.perf_counter() - t0)
        windows[i] = PROBE_SHARE * rnd.seconds[-1]
        if tracer:
            rnd.ranges.append((start, tracer.mark()))
        problems, items = op.check(out)
        rnd.problems += problems
        rnd.items += [[i, verdict, value] for verdict, value in items]
    rnd.probes.append(probe(windows[-1]))
    return rnd


def measure(ops, seconds: float | None = None, rounds: int | None = None, tracer=None) -> list[Round]:
    """Whole rounds: a fixed count, or as many as fit in `seconds` (at least one)."""
    out, t_start, windows = [], time.perf_counter(), [0.0] * len(ops)
    while True:
        t0 = time.perf_counter()
        out.append(run_round(ops, windows, tracer))
        if rounds is not None:
            if len(out) >= rounds:
                return out
        elif time.perf_counter() - t_start + (time.perf_counter() - t0) > seconds:
            return out


def import_seconds() -> list[tuple[float, float]]:
    """Import time of kslab in fresh interpreters, each with the probe time
    measured right after it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, probe_s = proc.stdout.split()
        out.append((float(seconds), float(probe_s)))
    return out


def machine(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "optimize_flag": sys.flags.optimize,
    }


def latency_figures(ops, rounds: list[Round]) -> dict:
    """Throughput over all ops, and p50/p90 over the per-op medians: each op
    of a round is one slot, and its median over rounds damps round-to-round
    noise. The metrics use probe-scaled times; `unscaled` keeps wall times."""
    out = {}
    for name, get in (("scaled", Round.scaled), ("unscaled", lambda r, i: r.seconds[i])):
        per_op = [[s for s in (get(r, i) for r in rounds) if s is not None] for i in range(len(ops))]
        medians = sorted(statistics.median(s) for s in per_op if s)
        out[name] = {
            "ops_per_s": sum(len(s) for s in per_op) / sum(sum(s) for s in per_op),
            "op_ms_p50": statistics.median(medians) * 1e3,
            "op_ms_p90": statistics.quantiles(medians, n=10, method="inclusive")[8] * 1e3,
        }
        if name == "scaled":
            out.update(samples=sum(len(s) for s in per_op), slots=len(medians),
                       per_op_ms={op.label: statistics.median(s) * 1e3 for op, s in zip(ops, per_op) if s})
    return out


def summarise(rounds: list[Round]) -> tuple[list[str], str]:
    problems = [p for r in rounds for p in r.problems]
    digests = [r.digest() for r in rounds if not r.failed]
    if len(set(digests)) > 1:
        problems.append(f"verdict digests differ between rounds of one seed: {sorted(set(digests))}")
    return problems, digests[0] if digests else ""


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kslab" / "__init__.py").is_file():
        sys.stderr.write(f"bench: kslab sources not found under {SRC}\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import kslab

    if Path(kslab.__file__).resolve().parent != (SRC / "kslab").resolve():
        sys.stderr.write(f"bench: imported kslab from {kslab.__file__}, not from {SRC}\n")
        return 2
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        result, report = run(args, kslab, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


def run(args, kslab, workload, workdir: str) -> tuple[dict, dict]:
    from probe import REFERENCE_S, probe

    report = {"workload": args.workload, "trace": args.trace, "machine": machine(args.seed)}
    gen = []  # (seconds, probe seconds around them)
    for _ in range(SETUP_REPEATS):
        before = probe()
        t0 = time.perf_counter()
        ops = workload(args.seed, workdir)
        gen.append((time.perf_counter() - t0, (before + probe()) / 2))
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        imports = import_seconds()
        rounds = measure(ops, seconds=args.seconds)
        lat = latency_figures(ops, rounds)
        metrics["ops_per_s"] = (lat["scaled"]["ops_per_s"], "op/s")
        metrics["op_ms_p50"] = (lat["scaled"]["op_ms_p50"], "ms")
        metrics["op_ms_p90"] = (lat["scaled"]["op_ms_p90"], "ms")
        setup = [statistics.median(s * REFERENCE_S / p for s, p in part) for part in (imports, gen)]
        metrics["setup_s"] = (sum(setup), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        report.update(latency=lat, import_s=imports, input_generation_s=gen,
                      unscaled_setup_s=sum(statistics.median(s for s, _ in part) for part in (imports, gen)))
    else:
        from micro import micro_metrics
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(kslab)
        try:
            traced = measure(ops, seconds=args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
        plain = measure(ops, rounds=len(traced))
        rounds = traced + plain
        n = len(traced)
        overhead = (sum(r.op_seconds for r in traced) - sum(r.op_seconds for r in plain)) / n
        self_s = {m: v / n for m, v in tracer.module_self_seconds([g for r in traced for g in r.ranges]).items()}
        counters = tracer.counters(traced[0].ranges)
        for name, value in micro_metrics(args.seed, workdir).items():
            metrics[name] = value
        for name, value in counters.items():
            metrics[f"certify.{name}"] = (float(value), "count")
        for module in TRACE_METRICS:
            metrics[f"trace.{module}.self_s"] = (self_s.get(module, 0.0), "s")
        metrics["trace.numpy.eigh_s"] = (self_s.get("numpy", 0.0), "s")
        metrics["trace.overhead_s"] = (overhead, "s")
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(spans)
        report.update(traced_rounds=n, self_s_per_round=self_s, counters_per_round=counters,
                      spans_file=str(spans.relative_to(ROOT)), span_count=len(tracer.spans))
    problems, digest = summarise(rounds)
    for p in problems[:20]:
        sys.stderr.write(f"bench: incorrect: {p}\n")
    report.update(rounds=len(rounds), ops_per_round=len(ops), digest=digest, problems=len(problems))
    result = {
        "correct": not problems,
        "attempted": len(ops) * len(rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, report


if __name__ == "__main__":
    sys.exit(main())
