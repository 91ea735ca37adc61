"""Regenerate ``reference_seed0.npz``: each workload's level-0 sample
after a seed-0 deck run.  Run from the repository root::

    python3 perfbench/make_reference.py

Only regenerate when a change to the program is meant to change its
results; the benchmark compares every seed-0 run against this file.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from envpin import isolate  # noqa: E402


def main() -> int:
    isolate(os.environ)
    sys.path.insert(0, str(HERE.parent / "src"))
    from checks import write_reference
    from deck import run_deck
    from workloads import WORKLOADS

    workdir = HERE.parent / ".perfbench" / "reference"
    samples = {}
    for wl in WORKLOADS.values():
        run = run_deck(wl, 0, workdir)
        if run.problems:
            print(f"{wl.name}: {'; '.join(run.problems)}", file=sys.stderr)
            return 1
        samples[wl.name] = run.sample
        print(f"{wl.name}: sample {samples[wl.name].shape}")
    write_reference(samples)
    return 0


if __name__ == "__main__":
    sys.exit(main())
