"""Cross-check single-call timings against the ROADMAP's re-anchor figures.

    python3 perfbench/crosscheck.py

Times four calls on impartial profiles with m=20 candidates and n=1000
voters, one line per voter, and exits 1 when a median is more than ten
times off the figure ROADMAP.md gives for it.
"""

from __future__ import annotations

import random
import statistics
import sys
from pathlib import Path
from time import thread_time

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 5
ROADMAP_MS = {"majority_matrix": 163, "rp_i:1": 350, "bp": 188, "clone_structure": 46}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import gen
    from clonelab.clones import clone_structure
    from clonelab.profiles import majority_matrix, parse_profile
    from clonelab.scf import beatpath, rp_i

    calls = {
        "majority_matrix": majority_matrix,
        "rp_i:1": lambda p: rp_i(p, 1),
        "bp": beatpath,
        "clone_structure": clone_structure.__wrapped__,  # uncached
    }
    rng = random.Random(0)
    profiles = [parse_profile(gen.profile_text(rng, "impartial", 20, 1000)) for _ in range(REPEATS)]
    worst = 1.0
    for name, fn in calls.items():
        times = []
        for p in profiles:
            start = thread_time()
            fn(p)
            times.append((thread_time() - start) * 1000)
        ms = statistics.median(times)
        factor = max(ms / ROADMAP_MS[name], ROADMAP_MS[name] / ms)
        worst = max(worst, factor)
        print(f"{name:16s} {ms:9.1f} ms   ROADMAP {ROADMAP_MS[name]:4d} ms   off by {factor:.2f}x")
    return 0 if worst <= 10 else 1


if __name__ == "__main__":
    sys.exit(main())
