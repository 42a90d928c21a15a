"""Write perfbench/goldens.json from the program as it stands.

    python3 perfbench/pin_goldens.py

The goldens are the reference every benchmark run is checked against, so
run this only at a commit whose outputs are trusted (they were pinned at
the commit that introduced the benchmark).  Outputs do not depend on the
seed; seed 0 is used.
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main() -> int:
    mods = workloads.load_colorhom()
    goldens = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, mods, 0)
        goldens[name] = {t.key: workloads.as_json(t.fn()) for t in wl.tasks}
    for key, report in goldens["qext-theorem"].items():
        if not (report["equal"] and report["intertwining_zero"]):
            print(f"theorem check {key} does not pass; not pinning", file=sys.stderr)
            return 1
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    codes = Counter(out["exit"] for out in goldens["fixture-sweep"].values())
    print(f"pinned {sum(len(g) for g in goldens.values())} outputs; "
          f"CLI exit codes {dict(sorted(codes.items()))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
