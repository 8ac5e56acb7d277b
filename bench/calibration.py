"""The benchmark's calibration workload and reference-speed scaling.

A measured wall time times REFERENCE_CALIBRATION_S over the time of this
fixed calibration work, run right next to it in the same process, is a
reference-speed time: it reads like a wall time on the machine the
benchmark was tuned on, whatever phase the shared host is in.
"""

import time

# Calibration: a fixed mix of the three kinds of work the package spends
# its time in: modular squaring of 64- to 128-bit integers (rho steps),
# trial division through a generator over a prime list (factorize), and
# fraction-free elimination on a small integer matrix (resultants).  It
# keeps nothing it allocates, so the program's heap barely affects it.
CALIBRATION_MODULUS = 0xFFFFFFFFFFFFFFC5  # the largest prime below 2**64
CALIBRATION_ODDS = range(3, 12_000, 2)
CALIBRATION_MATRIX = [[(7 * i + 13 * j) % 97 + 1 for j in range(6)] for i in range(6)]
# The calibration's median time over many runs on the 2-vCPU Xeon VM
# (CPython 3.11) the benchmark was tuned on, so reference-speed times read
# like that machine's typical wall times.
REFERENCE_CALIBRATION_S = 0.0023


def _odd_divisors(bound: int):
    """Trial divisors up to `bound`, handed out the way factorize walks its primes."""
    for d in CALIBRATION_ODDS:
        if d > bound:
            return
        yield d


def calibration_s() -> float:
    """Wall time of the fixed calibration work."""
    start = time.perf_counter()
    x = 0x9E3779B97F4A7C15
    for i in range(4000):
        x = (x * x + i) % CALIBRATION_MODULUS
    for d in _odd_divisors(10_000):
        if CALIBRATION_MODULUS % d == 0:
            break
    for _ in range(20):
        m = [list(row) for row in CALIBRATION_MATRIX]
        prev = 1
        for k in range(5):
            pivot, row_k = m[k][k], m[k]
            for row in m[k + 1 :]:
                head = row[k]
                for j in range(k + 1, 6):
                    row[j] = (row[j] * pivot - head * row_k[j]) // prev
            prev = pivot or 1
    return time.perf_counter() - start


def speed(before: float, after: float) -> float:
    """Factor turning wall time between two calibrations into reference-speed time."""
    return 2 * REFERENCE_CALIBRATION_S / (before + after)
