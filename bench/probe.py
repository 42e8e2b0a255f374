"""CPU speed probe: times a fixed interpreter kernel on one CPU every 50 ms.

    python3 bench/probe.py CPU

The probe pins itself to CPU, prints ``ready``, and until its standard input
reaches end of file it sleeps 50 ms and times one run of ``kernel``.  Then it
prints one JSON list of ``[time.monotonic() at the end, seconds]`` pairs.  On
a host whose cores slow down when other tenants load them, these samples tell
how fast the core ran while a benchmark command ran on it; the probe takes
about 2% of that core.
"""

from __future__ import annotations

import gc
import json
import os
import select
import sys
import time

INTERVAL_S = 0.05
ROUNDS = 2000
TABLE_BITS = 18
# a table larger than the core's private caches, so that lookups feel the
# memory-system contention that slows finstruct's dict- and set-heavy code
TABLE = {i: i for i in range(1 << TABLE_BITS)}


def kernel(x: int) -> int:
    """Tuple hashing, integer bit operations and scattered dict lookups.

    Returns the generator state, so that consecutive runs look up new keys.
    """
    acc = 0  # gives the lookups and hashes a use
    mask = (1 << TABLE_BITS) - 1
    for i in range(ROUNDS):
        x = (x * 1103515245 + 12345) & mask
        acc ^= TABLE[x] << (i & 7)
        acc ^= hash((i & 63, x))
    return x


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    gc.disable()
    samples = []
    state = 1
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        start = time.perf_counter()
        state = kernel(state)
        samples.append((time.monotonic(), time.perf_counter() - start))
    print(json.dumps(samples), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
