"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <derive|verify|cli> <seed>

Prints the seconds taken to import gausscalc, build the workload's towers
and finish its warm-up pass (for `cli`, to import gausscalc.cli), then the
best time of the host probe, taken afterwards so as not to warm the import.
"""

import sys
import time


def main() -> int:
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = time.perf_counter()
    if workload == "cli":
        import gausscalc.cli  # noqa: F401
    else:
        from workloads import in_process

        wl = in_process(workload)
        for req in wl.warmup_requests(seed):
            wl.execute(req)
    setup_s = time.perf_counter() - t0
    from common import host_probe_s

    print(f"{setup_s:.6f} {host_probe_s():.7f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
