"""The yardstick: a fixed reference loop that gauges the speed of one core.

    python3 bench/reference.py OUT CPU NICE

On a shared host the speed of a core changes from second to second (the
same child took from 4.1 to 6.0 s within minutes), so the CPU time of a
workload child says as much about the host as about the program.  The
harness therefore runs this loop beside each workload child, pinned to the
same core at a lower priority.  The two share every fast and slow spell of
that core, so the loop's rate (units of fixed work per CPU second) tells
how fast the core ran while the child ran, and the child's CPU time times
that rate is its cost in reference units, in which the host's drift
cancels.

The loop uses none of the package.  One unit does, in small fixed amounts,
the three kinds of work the package spends its time on: a bitmask scan over
all subsets with face lookups (``complexes.minimal_non_faces``), relabelling
of facet tuples under permutations with sorting (``classify.canonical_form``)
and exact Gaussian elimination over ``Fraction`` (``building.solve_square``).
Its result is checked once.  A change to this file changes every reference
figure, so it must stay as it is for as long as figures are compared.

The loop prints ``ready`` once it runs.  On SIGTERM it writes
``units cpu_seconds`` to OUT, counting only completed units and the CPU
time at the end of the last one, and exits.
"""

from __future__ import annotations

import os
import signal
import sys
import time
from fractions import Fraction
from itertools import combinations, permutations

EXPECTED = (9, 15, 39325)


def _scan(m: int) -> int:
    """Minimal non-faces of a fixed complex on m vertices, by brute force."""
    full = (1 << m) - 1
    facets = [full ^ (0b1011 << i) for i in range(0, m - 3, 3)]

    def is_face(s: int) -> bool:
        return any(s & ~f == 0 for f in facets)

    found = 0
    for s in range(1, 1 << m):
        if is_face(s):
            continue
        rest = s
        while rest:
            low = rest & -rest
            if not is_face(s & ~low):
                break
            rest &= rest - 1
        else:
            found += 1
    return found


def _relabel(n: int) -> int:
    """The number of distinct relabellings of a fixed complex on n vertices."""
    facets = [c for c in combinations(range(n), 3) if sum(c) % 3]
    seen = set()
    for perm in permutations(range(n)):
        seen.add(tuple(sorted(tuple(sorted(perm[v] for v in f)) for f in facets)))
    return len(seen)


def _solve(n: int, systems: int) -> int:
    """Sum of the solutions of fixed square systems over the rationals,
    reduced to its numerator modulo a prime."""
    total = Fraction(0)
    for shift in range(systems):
        a = [
            [Fraction((i * 7 + j * 3 + shift) % 11 + (i == j) * 13, 1 + (i + j) % 4)
             for j in range(n)] + [Fraction(i + shift)]
            for i in range(n)
        ]
        for col in range(n):
            pivot = next(r for r in range(col, n) if a[r][col] != 0)
            a[col], a[pivot] = a[pivot], a[col]
            pv = a[col][col]
            a[col] = [x / pv for x in a[col]]
            for r in range(n):
                if r != col and a[r][col] != 0:
                    factor = a[r][col]
                    a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
        total += sum(a[i][n] for i in range(n))
    return total.numerator % 1_000_003


def unit() -> tuple[int, int, int]:
    """One unit of reference work, a few milliseconds of it."""
    return _scan(10), _relabel(5), _solve(5, 3)


def main(argv: list[str]) -> int:
    out, cpu, nice = argv
    os.sched_setaffinity(0, {int(cpu)})
    os.nice(int(nice))
    got = unit()
    if got != EXPECTED:
        raise SystemExit(f"reference unit computed {got}, expected {EXPECTED}")
    state = (0, time.thread_time())
    start_cpu = state[1]

    def stop(signum, frame):
        units, cpu_s = state
        with open(out, "w") as f:
            f.write(f"{units} {cpu_s - start_cpu!r}\n")
        os._exit(0)

    signal.signal(signal.SIGTERM, stop)
    os.write(1, b"ready\n")  # the harness starts the workload child on this
    while True:
        unit()
        # one rebinding, so that the handler never sees a count without its time
        state = (state[0] + 1, time.thread_time())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
