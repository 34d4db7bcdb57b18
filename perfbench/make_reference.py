"""Record reference outputs of every workload at the default seed.

    python3 perfbench/make_reference.py

Run on the commit whose outputs later commits must reproduce; writes
perfbench/reference.json, which run.py compares against at the default seed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402


def main():
    reference = {}
    for name, build in wl.WORKLOADS.items():
        reference[name] = {op.name: wl.encode(op.call())
                           for op in build(wl.DEFAULT_SEED).ops if op.ref_tol is not None}
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
