"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload vortex_uniform --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one after another, and prints
each end-to-end metric's median and its interquartile distance as a
share of the median next to the bound in ``BENCHMARK.json``.  Exits 1
if a run fails or a spread (``setup_s`` excepted) exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from measure import spread

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in bench["end_to_end"]}
    ok = True
    for seed in seeds_from(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        line = []
        for name in values:
            values[name].append(result["metrics"][name]["value"])
            line.append(f"{name}={values[name][-1]:.4g}")
        print(f"seed {seed}: rc={proc.returncode} " + " ".join(line), flush=True)
    for m in bench["end_to_end"]:
        vals = values[m["name"]]
        s = spread(vals)
        within = m["name"] == "setup_s" or s <= m["bound"]
        ok &= within
        print(f"{m['name']:<22s} median {statistics.median(vals):.5g} "
              f"spread {s:.4f}  bound {m['bound']}  "
              f"{'ok' if s <= m['bound'] / 3 else 'WIDE' if within else 'OVER'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
