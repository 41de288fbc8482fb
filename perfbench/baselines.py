#!/usr/bin/env python3
"""Re-measure the hand-timed reference figures of ROADMAP item 1.

Run from the repository root:  python3 perfbench/baselines.py

Each figure is the median of three timed calls (one call for those above
one second), on instances drawn from a fixed seed: qualities U(0, 1),
costs U(0.01, 1), budget half the total cost.  The criterion-8 sweep is
the figure-sweep op on population seed 9; the cold CLI calls run on a
4-worker file.  The machine's slowness (see README.md) is printed with
them.  These are reference points for the README, not a gate.
"""

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from crowdprice import (  # noqa: E402
    GkpInstance, WorkerProfile, cp_exact_oracle, cp_res, cp_subres, make_additive,
    make_typo, solve_gkp_exact,
)
from crowdprice.scenario import Scenario, run_scenario  # noqa: E402
from run import REF_NOMINAL_S, reference_kernel  # noqa: E402


def pool(n: int, seed: int = 0) -> list[WorkerProfile]:
    rng = np.random.default_rng([seed, n])
    r, c = rng.uniform(0.0, 1.0, n), rng.uniform(0.01, 1.0, n)
    return [WorkerProfile(float(r[i]), float(c[i]), i + 1) for i in range(n)]


def timed_ms(fn) -> float:
    first = time.perf_counter()
    fn()
    times = [time.perf_counter() - first]
    if times[0] < 1.0:
        for _ in range(2):
            t = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t)
    return 1000.0 * statistics.median(times)


def budget(workers) -> float:
    return 0.5 * sum(w.cost for w in workers)


def main() -> None:
    typo, additive = make_typo(25, 1), make_additive()
    reference_kernel()
    kernel_ms = timed_ms(reference_kernel)
    rows = []
    for n in (16, 20, 22):
        w = pool(n)
        rows.append((f"exact enumeration, typo m=1, n={n}",
                     timed_ms(lambda: solve_gkp_exact(GkpInstance(tuple(w), budget(w), typo)))))
    w = pool(200)
    rows.append(("additive DP, n=200",
                 timed_ms(lambda: solve_gkp_exact(GkpInstance(tuple(w), budget(w), additive)))))
    for n in (14, 20, 30, 60, 100):
        w = pool(n)
        rows.append((f"cp_exact_oracle, typo m=1, n={n}",
                     timed_ms(lambda: cp_exact_oracle(w, budget(w), typo, max_n=n))))
    for solver in (cp_subres, cp_res):
        for n in (14, 50, 100):
            w = pool(n)
            rows.append((f"{solver.__name__}, typo m=1, n={n}",
                         timed_ms(lambda: solver(w, budget(w), typo, diagnostics=False))))
    sweep = Scenario.from_config({
        "population": {"generator": {"n": 15, "seed": 9}},
        "utility": {"kind": "typo", "M": 25},
        "bonus_policies": [{"kind": "threshold", "m": m, "M": 25} for m in range(15, 26)]
        + [{"kind": "linear", "M": 25}],
        "budget": 4.0,
        "seed": 9,
    })
    rows.append(("criterion-8 sweep (run_scenario)", timed_ms(lambda: run_scenario(sweep))))

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        path = Path(tmp) / "w.csv"
        path.write_text("id,quality,cost\n1,0.9,0.30\n2,0.5,0.25\n3,0.8,0.50\n4,0.3,0.20\n")
        for verb in ("pp", "cp"):
            cmd = [sys.executable, "-m", "crowdprice.cli", verb, "--workers", str(path),
                   "--budget", "0.6"]
            rows.append((f"cold `crowdprice {verb}`, 4 workers",
                         timed_ms(lambda: subprocess.run(cmd, env=env, check=True,
                                                         capture_output=True))))
    print(f"machine slowness {kernel_ms / 1000.0 / REF_NOMINAL_S:.3f} "
          f"(reference kernel {kernel_ms:.1f} ms); figures as timed:")
    for name, ms in rows:
        print(f"{name:42s} {ms:10.1f} ms")


if __name__ == "__main__":
    main()
