#!/usr/bin/env python3
"""Set-up cost probe: fresh interpreter, import, input generation, one warm-up op.

run.py starts this several times per run and reports the median wall time
as setup_s, so work moved into import or input set-up shows there.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

import boot


def main() -> int:
    lib = boot.load_library()
    from runner import Runner
    from workloads import WORKLOADS

    runner = Runner(lib.ComputationError)
    WORKLOADS[sys.argv[1]](lib, int(sys.argv[2])).warmup(runner)
    return 0 if runner.records[0].error is None else 1


if __name__ == "__main__":
    sys.exit(main())
