"""Set-up probe: time importing antimark and generating one workload's inputs.

    python3 bench/probe.py SRC WORKLOAD SEED

Prints the seconds from before the import until the inputs exist.  The
benchmark starts it in fresh processes, because a process pays for an
import only once.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402


def main() -> None:
    src, workload, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    import workloads  # imports antimark
    workloads.build(workload, seed)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
