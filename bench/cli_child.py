"""A traced cold CLI verify: the child process of one ``cli_cold`` op.

``python3 bench/cli_child.py SPANS T_SPAWN verify CONFIG [ARGS...]``
runs ``repro verify`` exactly as ``python -m repro`` would, with the
ledger's timing wrappers installed once ``repro.cli`` has loaded, and
writes its spans to SPANS.  ``cli.startup`` runs from T_SPAWN, the
parent's clock reading just before it spawned this process (both read
the same monotonic clock), to the end of ``import repro.cli``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main() -> int:
    spans_path, spawned = sys.argv[1], float(sys.argv[2])
    import repro.cli

    imported = time.perf_counter()
    from bench.ledger import Recorder, install

    recorder = Recorder()
    recorder.add("cli.startup", spawned, imported)
    restore = install(recorder)
    installed = time.perf_counter()
    recorder.enabled = True
    try:
        code = repro.cli.main(sys.argv[3:])
    finally:
        recorder.enabled = False
        ended = time.perf_counter()
        restore()
    sys.stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "end": ended,
                   "install": [imported, installed],
                   "spans": recorder.spans,
                   "counters": dict(recorder.counters)}, handle,
                  default=str)
    return code


if __name__ == "__main__":
    sys.exit(main())
