"""Cold time to first result, measured in this (fresh) interpreter.

``python -m tiltbench.setup_probe <workload> [--seed N]`` times
``import repro`` + query build + compile + engine/session/service
construction + the first non-empty result on a 20 000-event input, and prints
one JSON object.  Generating the input is not timed.  The parent
(:func:`tiltbench.bench.setup_seconds`) starts several of these, each with an
empty ``REPRO_NATIVE_CACHE``, and reports the median.
"""

from __future__ import annotations

import argparse
import json
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import repro  # noqa: F401 - the import is what is being timed

    import_s = time.perf_counter() - t0

    from tiltbench.workloads import make_workload

    workload = make_workload(args.workload, args.seed, "setup")  # untimed: input generation
    t1 = time.perf_counter()
    snapshots = workload.first_result()
    first_result_s = time.perf_counter() - t1
    print(json.dumps({
        "workload": args.workload,
        "setup_s": import_s + first_result_s,
        "import_s": import_s,
        "first_result_s": first_result_s,
        "output_snapshots": snapshots,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
