#!/usr/bin/env python3
"""Benchmark of vvmf: one caller at a time, outputs checked against oracles.

Run from the root of the repository:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Workloads: ladder, large-t-order, odd-weight-one (in-process analyses)
and cli-cold (whole `python -m vvmf` processes).  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1.  Results and traces are also written under
perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
import calibrate  # noqa: E402

# Set-up is measured in this many fresh interpreters per run and the
# median is reported: the first one or two of a batch can take three
# times as long as the rest (the first BLAS call of a process once took
# 0.6-1.1 s on the 2-vCPU machine this was tuned on).
SETUP_PROBES = 9
IMPORT_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["ladder", "large-t-order", "odd-weight-one", "cli-cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set up, print 'ready' and exit (used to time set-up)")
    return p.parse_args(argv)


def import_program():
    if not os.path.isdir(os.path.join(SRC, "vvmf")):
        raise SystemExit(f"perfbench: no vvmf package under {os.path.relpath(SRC)}; "
                         "run from the root of a vvmf checkout")
    sys.path.insert(0, SRC)
    import workloads

    return workloads


def setup(W, workload: str, seed: int):
    """Everything before the first timed operation, including the first BLAS call."""
    if workload == "cli-cold":
        # Conjugating the rep file's matrices makes the first BLAS calls.
        return W.cli_ops(W.write_repfiles(os.path.join(OUT, "reps"), seed))
    specs = W.in_process_specs(workload, seed)
    largest = max(specs, key=lambda spec: spec.degree)
    largest.s @ largest.t
    return specs


def timed_probe(cmd: list, env=None) -> tuple[float, str]:
    """Seconds from spawning cmd to its first line of output, and that line."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                            cwd=ROOT, env=env)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=120) != 0:
            raise RuntimeError(f"{cmd[1:]} exited with {proc.returncode}")
    return elapsed, line.strip()


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Reference and wall seconds of each set-up probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    ref, wall = [], []
    for _ in range(SETUP_PROBES):
        before = calibrate.machine_seconds()
        elapsed, _ = timed_probe(cmd)
        after = calibrate.machine_seconds()
        ref.append(elapsed * calibrate.reference_scale(before, after))
        wall.append(elapsed)
    return ref, wall


def measure_cli_import(env) -> tuple[float, float]:
    """Median ms of `import numpy` and of `import vvmf.cli` in fresh interpreters."""
    code = ("import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
            "import vvmf.cli; t2 = time.perf_counter(); print((t1 - t0) * 1e3, (t2 - t0) * 1e3)")
    numpy_ms, total_ms = [], []
    for _ in range(IMPORT_PROBES):
        _, line = timed_probe([sys.executable, "-c", code], env)
        a, b = map(float, line.split())
        numpy_ms.append(a)
        total_ms.append(b)
    return statistics.median(numpy_ms), statistics.median(total_ms)


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


class Loop:
    """Whole rounds of every operation, in a seeded order, one at a time.

    In a traced run, untraced and traced rounds alternate and the run
    ends after a traced round, so every run has the same operations in
    the same proportion whatever its length.
    """

    def __init__(self, ops, seed, seconds, tracer=None):
        self.ops = ops
        self.labels = labels = [op.label for op in ops]
        self.order_rng = random.Random(seed)
        self.seconds = seconds
        self.tracer = tracer
        self.samples = {label: [] for label in labels}
        self.traced = {label: [] for label in labels}
        self.wall = {label: [] for label in labels}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.errors: dict[str, str] = {}
        self.rounds = 0
        self.first_round_rss_mib = 0.0

    def run(self, execute, check):
        start = time.perf_counter()
        while True:
            traced = self.tracer is not None and self.rounds % 2 == 1
            order = list(range(len(self.ops)))
            self.order_rng.shuffle(order)
            for i in order:
                op, label = self.ops[i], self.labels[i]
                if traced:
                    self.tracer.op_id = f"{self.rounds}:{label}"
                    self.tracer.install()
                steps, outcome = execute(op)
                ref, wall, error = calibrate.timed(steps)
                if traced:
                    self.tracer.uninstall()
                (self.traced if traced else self.samples)[label].append(ref)
                if not traced:
                    self.wall[label].append(wall)
                self.attempted += 1
                if error is not None:
                    self.failed += 1
                    self.errors[label] = f"{type(error).__name__}: {error}"
                    continue
                problems = check(op, outcome())
                if problems:
                    self.failed += 1
                    self.wrong.append(f"{label}: " + "; ".join(problems[:3]))
            if self.rounds == 0:
                self.first_round_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.rounds += 1
            if time.perf_counter() - start >= self.seconds and (
                    self.tracer is None or self.rounds % 2 == 0):
                return

    def medians(self, traced=False) -> dict[str, float]:
        source = self.traced if traced else self.samples
        return {label: statistics.median(v) for label, v in source.items() if v}


def throughput_metrics(medians: dict[str, float]) -> dict[str, float]:
    values = list(medians.values())
    return {
        "ops_per_s": len(values) / sum(values),
        "op_ms_geomean": 1e3 * math.exp(sum(math.log(v) for v in values) / len(values)),
    }


PER_ANALYSIS_SELF_MS = (
    "linalg.row_reduce", "modrep.parity_split", "invariants.even_invariants",
    "invariants.signature", "modrep.find_t_order", "invariants.t_eigenphases",
    "modrep.contragredient", "linalg.mat_pow", "dimensions.certify_irreducible",
    "modrep.enumerate_closure", "invariants.odd_invariants", "dimensions.dim_table",
    "series.generator_profile", "series.duality_report", "repfile.parse_rep", "cli.main",
)
PER_ANALYSIS_COUNTS = (
    "modrep.find_t_order.powers", "modrep.find_t_order.failures",
    "invariants.t_eigenphases.dft_terms", "modrep.enumerate_closure.elements",
)
PER_ANALYSIS_CALLS = {
    "linalg.row_reduce.calls": "linalg.row_reduce",
    "modrep.parity_split.per_analysis": "modrep.parity_split",
    "dimensions.certify_irreducible.calls": "dimensions.certify_irreducible",
}


def layer_metrics(tracer, traced_ops: int) -> dict[str, tuple[float, str]]:
    m = {}
    for name in PER_ANALYSIS_SELF_MS:
        m[f"{name}.self_ms"] = (tracer.self_ns[name] / 1e6 / traced_ops, "ms")
    m["linalg.rank.total_ms"] = (tracer.total_ns["linalg.rank"] / 1e6 / traced_ops, "ms")
    for name in PER_ANALYSIS_COUNTS:
        m[name] = (tracer.counts[name] / traced_ops, "count")
    for metric, name in PER_ANALYSIS_CALLS.items():
        m[metric] = (tracer.calls[name] / traced_ops, "count")
    asked = tracer.counts["dimensions.weight1.asked"]
    m["dimensions.weight1_exact_ratio"] = (
        tracer.counts["dimensions.weight1.exact"] / asked if asked else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    W = import_program()

    if args.setup_probe:
        setup(W, args.workload, args.seed)
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        import vvmf
        from tracer import Tracer

        tracer = Tracer()
        tracer.prepare(vvmf)
        tracer.install()
    inputs = setup(W, args.workload, args.seed)
    resolve_ms = 0.0
    if tracer is not None:
        tracer.uninstall()
        resolve_ms = tracer.self_ns["catalog.resolve"] / 1e6
        tracer.reset_stats()

    cli_cold = args.workload == "cli-cold"
    env = W.cli_env(SRC)
    if cli_cold:
        if tracer is None:
            execute = lambda op: W.cli_process_steps(op, env, ROOT)
        else:
            execute = W.cli_in_process_steps
        check = lambda op, out: op.check(*out)
    else:
        execute = W.analysis_steps
        check = W.check_outcome

    loop = Loop(inputs, args.seed, args.seconds, tracer)
    loop.run(execute, check)

    metrics: dict[str, tuple[float, str]] = {}
    raw: dict[str, float] = {}
    setup_probes = {}
    untraced = loop.medians()
    if tracer is None:
        if cli_cold:
            peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        else:
            peak_rss_mib = loop.first_round_rss_mib
        setup_ref, setup_wall = measure_setup(args.workload, args.seed)
        setup_probes = {"reference": setup_ref, "wall": setup_wall}
        th = throughput_metrics(untraced)
        metrics["setup_s"] = (statistics.median(setup_ref), "s")
        metrics["ops_per_s"] = (th["ops_per_s"], "1/s")
        metrics["op_ms_geomean"] = (th["op_ms_geomean"], "ms")
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        wall = throughput_metrics({k: statistics.median(v) for k, v in loop.wall.items()})
        raw = {"setup_s": statistics.median(setup_wall), **wall}
    else:
        traced_ops = sum(len(v) for v in loop.traced.values())
        metrics.update(layer_metrics(tracer, traced_ops))
        metrics["catalog.resolve.self_ms"] = (resolve_ms, "ms")
        numpy_ms = import_ms = 0.0
        if cli_cold:
            numpy_ms, import_ms = measure_cli_import(env)
        metrics["cli.import_ms"] = (import_ms, "ms")
        metrics["cli.import_numpy_ms"] = (numpy_ms, "ms")
        overhead = sum(loop.medians(traced=True).values()) / sum(untraced.values()) - 1
        metrics["trace.overhead_pct"] = (100 * overhead, "%")

    # Human-readable report, then the result line.
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {loop.rounds}  operations per round {len(inputs)}")
    print("  operation                          median: reference ms   wall ms")
    for label in loop.labels:
        line = (f"  {label:<34} {1e3 * untraced[label]:18.2f} "
                f"{1e3 * statistics.median(loop.wall[label]):9.2f}")
        if tracer is not None and loop.traced[label]:
            line += f"   traced {1e3 * statistics.median(loop.traced[label]):10.2f} ms"
        if label in loop.errors:
            line += f"   FAILED {loop.errors[label]}"
        print(line)
    if cli_cold and tracer is None:
        for kind, source in (("reference", loop.samples), ("wall", loop.wall)):
            every = [v for vs in source.values() for v in vs]
            t = tail(every)
            print(f"  process {kind} time over {len(every)} processes: p50 "
                  f"{1e3 * statistics.median(every):.1f} ms"
                  + (f", p{t[0]} {1e3 * t[1]:.1f} ms" if t else ", fewer than 40 samples, no tail"))
    for problem in loop.wrong:
        print(f"  WRONG {problem}")
    for name, (value, unit) in metrics.items():
        line = f"  {name:<40} {value:.6g} {unit}"
        if name in raw:
            line += f"   (wall: {raw[name]:.6g} {unit})"
        print(line)
    print(f"  attempted {loop.attempted}  failed {loop.failed}")

    result = {
        "correct": not loop.wrong,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".result.json", "w") as fh:
        json.dump({**result, "rounds": loop.rounds, "medians_ms": {k: 1e3 * v for k, v in untraced.items()},
                   "samples_ms": {k: [1e3 * x for x in v] for k, v in loop.samples.items()},
                   "wall_samples_ms": {k: [1e3 * x for x in v] for k, v in loop.wall.items()},
                   "wall_metrics": raw, "setup_probes_s": setup_probes,
                   "errors": loop.errors, "wrong": loop.wrong}, fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".trace.jsonl", {"workload": args.workload, "seed": args.seed,
                                             "fields": ["id", "name", "start_ns", "end_ns",
                                                        "parent", "op"]})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
