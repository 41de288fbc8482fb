#!/usr/bin/env python3
"""Benchmark of crowdprice: closed-loop workloads with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

One process drives one op at a time (a closed loop).  Ops come in rounds;
a run keeps starting rounds until its ops have taken ``--seconds`` of wall
time, and always finishes the round it started.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` --
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The traced run alternates each round untraced and traced,
on the same inputs, and reports the difference as ``trace.overhead_pct``.

``--self-check`` runs one round of every workload, untraced and traced,
with all checks on, and verifies the metric names against BENCHMARK.json.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, layer_metrics  # noqa: E402  (modules beside this script)
from workloads import WORKLOADS, Checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5  # set-up runs per measured run (this process + 4 children)
REF_NOMINAL_S = 0.013  # the kernel's time that defines "reference speed"
REF_EVERY_S = 0.4  # op time per reference timing


@dataclass
class Tally:
    walls: list[float] = field(default_factory=list)
    by_kind: dict[str, list[float]] = field(default_factory=dict)
    cpus: list[float] = field(default_factory=list)
    # per op: the mean of the reference samples taken just before it
    slowness_before: list[float] = field(default_factory=list)
    child_rss_kb: int = 0
    failed: int = 0
    faults: dict[str, int] = field(default_factory=dict)
    unexpected: list[str] = field(default_factory=list)

    @property
    def ops(self) -> int:
        return len(self.walls)


def reference_kernel() -> float:
    """Fixed work owned by the benchmark, in the program's mix: Python
    loops over small numpy arrays, Python-object bookkeeping, and a batch
    of 0/1 rows times a vector.  Its time tracks how fast the shared
    machine runs at the moment."""
    rng = np.random.default_rng(0)
    r, c = rng.uniform(0.0, 1.0, 30), rng.uniform(0.0, 1.0, 30)
    seen = {}
    for q in np.linspace(0.0, 3.0, 280):
        thresholds = np.unique(np.concatenate([[0.0], np.maximum(c - q * r, 0.0)]))
        accept = thresholds[:, None] + q * r[None, :] >= c[None, :]
        spend = thresholds * accept.sum(axis=1) + q * (accept @ r)
        for t in range(len(thresholds)):
            if spend[t] < 5.0:
                seen[np.packbits(accept[t]).tobytes()] = float(spend[t])
    pairs = list(zip(r.tolist(), c.tolist()))
    total = 0.0
    for p in np.linspace(0.0, 1.0, 280).tolist():
        accepted = sorted((i for i, (ri, ci) in enumerate(pairs) if p + ri >= ci),
                          key=lambda i: (-pairs[i][0], i))
        total += math.fsum(p + pairs[i][0] for i in accepted)
    rows = ((np.arange(1 << 13)[:, None] >> np.arange(13)[None, :]) & 1).astype(bool)
    return total + float((rows @ np.log1p(-r[:13])).min()) + len(seen)


def kernel_slowness(samples: int) -> list[float]:
    """Reference kernel timings over the nominal time.  A first, untimed
    pass lets the previous op's after-effects pass (BLAS helper threads
    still spinning, caches a CLI child left cold), so the timings follow
    the machine, not the program."""
    reference_kernel()
    out = []
    for _ in range(samples):
        t = time.perf_counter()
        reference_kernel()
        out.append((time.perf_counter() - t) / REF_NOMINAL_S)
    return out


def time_reference(tally: Tally) -> None:
    """Time the reference kernel before an op, once per 0.4 s the previous
    op took and at least once, so the samples spread over the run like its
    op time does."""
    last = tally.walls[-1] if tally.walls else 0.0
    samples = kernel_slowness(max(1, round(last / REF_EVERY_S)))
    tally.slowness_before.append(statistics.fmean(samples))


def at_reference_speed(tally: Tally) -> tuple[list[float], list[float], list[float]]:
    """Each op's slowness (the mean of the reference samples just before
    and just after it) and its wall and CPU times divided by it.  The
    machine's speed wanders in spells of tens to hundreds of milliseconds,
    so the samples nearest an op track it better than the run's mean."""
    before = tally.slowness_before
    local = [(before[i] + before[i + 1]) / 2 if i + 1 < len(before) else before[i]
             for i in range(len(before))]
    walls = [w / s for w, s in zip(tally.walls, local)]
    cpus = [c / s for c, s in zip(tally.cpus, local)]
    return local, walls, cpus


def slowness_now() -> float:
    """The machine's slowness just after a set-up: the median of three
    kernel timings."""
    return statistics.median(kernel_slowness(3))


def execute(op, tally: Tally, tracer=None) -> None:
    """Time one op, then check its outputs outside the timed interval."""
    ck = Checks()
    op.child_cpu_s, op.child_rss_kb = 0.0, 0
    span = tracer.open("op." + op.kind) if tracer is not None else None
    cpu0, wall0 = time.process_time(), time.perf_counter()
    try:
        out, error = op.call(), None
    except Exception as exc:  # the program failed this op; record and go on
        out, error = None, exc
    wall1, cpu1 = time.perf_counter(), time.process_time()
    if tracer is not None:
        tracer.close(span)
    if error is None:
        try:
            op.check(out, ck)
        except Exception:  # malformed output
            ck.that(False, "check_raised")
            traceback.print_exc()
    else:
        ck.that(False, f"raised_{type(error).__name__}")
        print(f"perfbench: {op.kind}: {error!r}", file=sys.stderr)
    tally.walls.append(wall1 - wall0)
    tally.by_kind.setdefault(op.kind, []).append(wall1 - wall0)
    tally.cpus.append(cpu1 - cpu0 + op.child_cpu_s)
    tally.child_rss_kb = max(tally.child_rss_kb, op.child_rss_kb)
    if ck.failed:
        tally.failed += 1
        if ck.fault is not None and len(ck.failed) == 1:
            tally.faults[ck.fault] = tally.faults.get(ck.fault, 0) + 1
        else:
            tally.unexpected.append(f"{op.kind}: {','.join(ck.failed)}")


def set_up(name: str, seed: int, workdir: Path):
    """Everything before the first timed op: imports, inputs, warm-up."""
    workload = WORKLOADS[name](seed, workdir)
    warm = Tally()
    for op in workload.warm_up():
        execute(op, warm)
    return workload, warm


def child_setup(name: str, seed: int) -> tuple[float, float]:
    """(set-up time as timed, slowness just after it) of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), float(out["slowness"])


def measure(name: str, seed: int, seconds: float, trace: bool, started: float,
            setup_repeats: int) -> dict:
    workdir = HERE / "out" / f"{name}-{os.getpid()}"
    try:
        workload, warm = set_up(name, seed, workdir)
        setups = [(time.perf_counter() - started, slowness_now())]
        setups += [child_setup(name, seed) for _ in range(setup_repeats - 1)]

        tracer = Tracer() if trace else None
        plain, traced = Tally(), Tally()
        in_process = name != "cli-cold"  # cli-cold traces inside its children
        reference_kernel()  # warm, outside the set-up
        k = 0
        while True:
            ops = workload.round(k)
            for op in ops:
                time_reference(plain)
                execute(op, plain)
            if tracer is not None:
                if in_process:
                    tracer.install()
                workload.tracer = tracer
                try:
                    for op in ops:
                        tracer.op_id = traced.ops
                        time_reference(traced)
                        execute(op, traced, tracer)
                finally:
                    workload.tracer = None
                    tracer.uninstall()
            k += 1
            if sum(plain.walls) + sum(traced.walls) >= seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = plain.ops
    rss_kb = plain.child_rss_kb if not in_process else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss
    local, walls, cpus = at_reference_speed(plain)
    as_timed = {
        "ops_per_s": ops / sum(plain.walls),
        "op_p50_ms": 1000.0 * statistics.median(plain.walls),
        "cpu_per_op_ms": 1000.0 * sum(plain.cpus) / ops,
        "setup_s": statistics.median(raw for raw, _ in setups),
    }
    end_to_end = {
        "ops_per_s": (ops / sum(walls), "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(walls), "ms"),
        "cpu_per_op_ms": (1000.0 * sum(cpus) / ops, "ms"),
        # each set-up at the slowness read just after it
        "setup_s": (statistics.median(raw / local for raw, local in setups), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    per_layer = {}
    if tracer is not None:
        per_layer = layer_metrics(tracer, traced.ops)
        overhead = sum(traced.walls) / sum(plain.walls) - 1.0
        per_layer["trace.overhead_pct"] = (100.0 * overhead, "%")
        trace_path = HERE / "out" / f"trace-{name}-seed{seed}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(tracer.spans_json(), encoding="utf-8")
    faults = dict(plain.faults)
    for fault, count in traced.faults.items():
        faults[fault] = faults.get(fault, 0) + count
    unexpected = warm.unexpected + plain.unexpected + traced.unexpected
    return {
        "correct": not unexpected,
        "attempted": plain.ops + traced.ops,
        "failed": plain.failed + traced.failed,
        "faults": faults,
        "unexpected": unexpected,
        "rounds": k,
        "slowness": statistics.fmean(local),
        "as_timed": as_timed,
        "by_kind_ms": {kind: round(1000.0 * statistics.median(walls), 1)
                       for kind, walls in plain.by_kind.items()},
        "setups": setups,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def result_line(result: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def report(name: str, result: dict) -> None:
    print(f"perfbench: {name}: {result['rounds']} rounds, {result['attempted']} ops, "
          f"{result['failed']} failed {result['faults']}, set-ups "
          f"{[round(raw, 3) for raw, _ in result['setups']]} s", file=sys.stderr)
    print(f"perfbench: machine slowness {result['slowness']:.4f}; as timed "
          f"{ {k: round(v, 4) for k, v in result['as_timed'].items()} }", file=sys.stderr)
    print(f"perfbench: median ms by op kind, as timed {result['by_kind_ms']}", file=sys.stderr)
    for line in result["unexpected"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)


def self_check() -> int:
    """One round per workload, untraced and traced, every check on."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name in WORKLOADS:
        result = measure(name, 0, 0.0, True, time.perf_counter(), 1)
        report(name, result)
        names_ok = (
            set(result["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
            and set(result["per_layer"]) == {m["name"] for m in spec["per_layer"]}
        )
        if not names_ok:
            print(f"perfbench: {name}: metric names differ from BENCHMARK.json", file=sys.stderr)
        ok = ok and names_ok and result["correct"]
        print(f"{name}: {'ok' if result['correct'] and names_ok else 'FAILED'} "
              f"({result['attempted']} ops, known faults {result['faults']})")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "crowdprice" / "__init__.py").is_file():
        print(f"perfbench: no crowdprice sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_check:
        return self_check()
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.setup_only:
        workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
        try:
            set_up(args.workload, args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setup_s = time.perf_counter() - STARTED
        print(json.dumps({"setup_s": setup_s, "slowness": slowness_now()}))
        return 0

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), STARTED,
                     SETUP_REPEATS)
    report(args.workload, result)
    # the figures before the reference-speed correction, for the record
    print(json.dumps({"slowness": result["slowness"], "as_timed": result["as_timed"]}))
    print(result_line(result, result["per_layer"] if args.trace else result["end_to_end"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
