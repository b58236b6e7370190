"""One cold set-up, timed: the child process behind ``setup_s``.

``run.py`` starts this script several times per run and reports the
median.  NumPy is imported and the inputs (with their oracle) are
generated *before* the clock starts; the timed span runs from
``import repro`` through engine/world construction and operator
compilation to the first result verified against the oracle — what a
user waits for between launching a program and its first answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy  # noqa: F401  (pre-imported: not part of set-up)

import workloads


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--src", required=True, help="directory holding the repro package")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(args.src, "repro")):
        print(f"setup_child: no repro package under {args.src}", file=sys.stderr)
        return 2
    sys.path.insert(0, args.src)
    inputs = workloads.make_inputs(args.workload, args.seed, args.quick)

    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import is the first part of set-up)

    runner = workloads.build(inputs)
    try:
        result = runner.submit().result()
        ok = runner.verify(result.returns)
        elapsed = time.perf_counter() - t0
    finally:
        runner.close()
    print(json.dumps({"setup_s": elapsed, "ok": ok}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
