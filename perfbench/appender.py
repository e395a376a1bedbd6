"""Append worker: a process of its own that holds a segmented store
open and appends pre-generated batches on request, so that append
latency is measured in a clean process rather than in the benchmark's
client.

Usage: ``appender.py BATCHES.npy FIRST_ID [STORE_DIR]``.  Each stdin
line holds a batch index ``i``, optionally followed by a store
directory to switch to (opened, and the previous store closed, before
the timing starts).  The worker appends ``batches[i]`` with ids
continuing from ``FIRST_ID + i * rows_per_batch`` and answers one JSON
line ``{"append_s": seconds}`` timing the ``append`` call alone.
"""

import json
import sys
import time

import numpy as np


def main(argv) -> int:
    from repro.io import SegmentedSequenceStore

    batches_path, first_id = argv[0], int(argv[1])
    batches = np.load(batches_path)
    store = SegmentedSequenceStore.open(argv[2]) if len(argv) > 2 else None
    try:
        for line in sys.stdin:
            fields = line.split(maxsplit=1)
            index = int(fields[0])
            if len(fields) > 1:
                if store is not None:
                    store.close()
                store = SegmentedSequenceStore.open(fields[1].strip())
            rows = list(batches[index])
            start = first_id + index * len(rows)
            ids = list(range(start, start + len(rows)))
            started = time.perf_counter()
            store.append(rows, ids=ids)
            elapsed = time.perf_counter() - started
            print(json.dumps({"append_s": elapsed}), flush=True)
    finally:
        if store is not None:
            store.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
