"""Compare `krt.tensor._erf` with scipy.special.erf on every non-NaN float32.

    PYTHONPATH=src python3 tests/erf_exhaustive.py   # about 3 minutes on one core

Both signs of every bit pattern from +0 to +inf are compared as uint32
views, so +-0, subnormals and +-inf count and a result that differs only in
its sign or last bit is a mismatch. The values fall in three ranges, one per
branch of `_erf`: |y| <= 1, 1 < |y| < 8 and |y| >= 8 (inf included). The
script prints one JSON object: per range the values compared and the
mismatches, the first few mismatching inputs, NaN's result and the seconds
taken. It exits 1 on any mismatch. pytest does not collect it (its name
does not start with `test_`); the tier-1 test `TestErf` in `test_tensor.py`
sweeps a sample of the same ranges.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np
from scipy.special import erf

from krt.tensor import _erf

CHUNK = 2**22  # bit patterns per comparison
SIGN = np.uint32(0x80000000)
ONE, EIGHT, INF = (int(np.float32(v).view(np.uint32)) for v in (1.0, 8.0, np.inf))
RANGES = {  # bit patterns of |y|, end exclusive
    "abs_le_1": (0, ONE + 1),
    "abs_1_to_8": (ONE + 1, EIGHT),
    "abs_ge_8": (EIGHT, INF + 1),
}


def compare(lo: int, hi: int) -> tuple[int, int, list]:
    """(values compared, mismatches, first mismatching inputs) over |y| bit patterns [lo, hi)."""
    seen = bad = 0
    examples = []
    for start in range(lo, hi, CHUNK):
        bits = np.arange(start, min(start + CHUNK, hi), dtype=np.uint32)
        for signed in (bits, bits | SIGN):
            y = signed.view(np.float32)
            miss = np.flatnonzero(_erf(y).view(np.uint32) != erf(y).view(np.uint32))
            seen += y.size
            bad += miss.size
            examples += [float(v) for v in y[miss[: 5 - len(examples)]]]
    return seen, bad, examples


def main() -> int:
    t0 = time.perf_counter()
    report = {"ranges": {}}
    for name, (lo, hi) in RANGES.items():
        r0 = time.perf_counter()
        seen, bad, examples = compare(lo, hi)
        report["ranges"][name] = {
            "values": seen,
            "mismatches": bad,
            "first_mismatches": examples,
            "seconds": round(time.perf_counter() - r0, 1),
        }
    nan = np.array([np.nan, -np.nan], dtype=np.float32)
    report["nan_gives_nan"] = bool(np.isnan(_erf(nan)).all())
    report["values"] = sum(r["values"] for r in report["ranges"].values())
    report["mismatches"] = sum(r["mismatches"] for r in report["ranges"].values())
    report["seconds"] = round(time.perf_counter() - t0, 1)
    print(json.dumps(report, indent=1))
    return 0 if report["mismatches"] == 0 and report["nan_gives_nan"] else 1


if __name__ == "__main__":
    sys.exit(main())
