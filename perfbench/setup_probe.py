"""One ``cold_plan`` set-up in a fresh interpreter: imports + one op.

Usage: ``python3 perfbench/setup_probe.py PAYLOAD.json``.  Prints the
seconds from before the program's imports to the end of one untimed
op on the payload, which is read before the clock starts.
"""

import os
import sys
import time

if __name__ == "__main__":
    with open(sys.argv[1], "rb") as handle:
        payload = handle.read()
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )
    start = time.perf_counter()
    from layers import plan_op
    from spans import Tracer

    reply, _ = plan_op(payload, Tracer(), -1)
    elapsed = time.perf_counter() - start
    if reply is None:
        sys.exit("setup probe: the warm-up plan failed the program's oracle")
    print(repr(elapsed))
