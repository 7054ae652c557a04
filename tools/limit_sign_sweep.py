"""Check the backtracking-beats-retry predicate on the whole tenths grid.

Compares `theory.rtbs_asymptotically_beats_rmtp` with the 50-digit limit
sign in `tests/helpers.limit_rtbs_beats_rmtp` on every pair with mu and f
in 0.1..0.9, e- and e+ in 0..0.9 and m in {1, 2, 3, 4, 6}: 40,500 pairs.
Prints the pairs checked, how many beat, and each mismatch, and exits
nonzero on any mismatch.  The tier-1 test of the predicate checks only the
pairs near a tie or a width boundary; this covers the rest.

    python3 tools/limit_sign_sweep.py
"""

import os
import sys
import time
from fractions import Fraction
from itertools import product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from helpers import limit_rtbs_beats_rmtp  # noqa: E402
from reflect_lab.theory import SimplifiedParams, rtbs_asymptotically_beats_rmtp  # noqa: E402

WIDTHS = (1, 2, 3, 4, 6)


def main() -> int:
    start = time.perf_counter()
    tenths = [Fraction(i, 10) for i in range(10)]
    checked = beats = mismatches = 0
    for mu, f in product(tenths[1:], repeat=2):
        for em, ep in product(tenths, repeat=2):
            params = SimplifiedParams(float(mu), float(em), float(ep), float(f))
            for m in WIDTHS:
                want = limit_rtbs_beats_rmtp(mu, em, ep, f, m)
                if rtbs_asymptotically_beats_rmtp(params, m) != want:
                    mismatches += 1
                    print(f"mismatch: {params} m={m} limit sign says {want}")
                checked += 1
                beats += want
    seconds = time.perf_counter() - start
    print(f"checked {checked}, beats {beats}, mismatches {mismatches} ({seconds:.1f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
