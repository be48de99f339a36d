"""How much the Monte Carlo passes gain from a second worker thread.

For the volume pass (cell_volumes_mc), the area pass (interface_areas) and
the weighted pass (normal_moment_operator, n + 2 weights) on the three
shapes of the mc_fresh benchmark, prints the median wall time of each pass
run serially (usable_cores patched to 1, so run_blocks runs every block
inline) and on two worker threads, and their ratio. Serial and two-thread calls
alternate. Both threads first draw Philox blocks for about 1.5 s: on a
2-core box the first second of a process often shows no two-thread speedup
at all, even on pure draws that reach 1.9x afterwards.

Not a test (no test_ prefix, so pytest does not collect it):

    PYTHONPATH=src python tests/thread_scaling.py [--samples 1048576] [--repeats 7]
"""

import argparse
import statistics
import threading
import time

import numpy as np

from bubblelab import detect_interfaces, normal_moment_operator, sampling, standard_of_curvature
from bubblelab.measure import cell_volumes_mc, interface_areas

SHAPES = [(2, 3), (2, 4), (3, 5)]


def fresh_kappa(q: int) -> np.ndarray:
    """Sum-zero curvatures of norm 0.4, the size the mc_fresh benchmark draws."""
    v = np.array([0.5, -0.2, 0.1, 0.3, -0.7, 0.4])[:q]
    v = v - v.mean()
    return 0.4 * v / np.linalg.norm(v)


def warm_up(seconds: float) -> None:
    """Keep two threads drawing Philox blocks for about `seconds`."""
    stop = time.perf_counter() + seconds

    def draw(label: int) -> None:
        block = 0
        while time.perf_counter() < stop:
            sampling.unit_block(0, label, block, sampling.BLOCK, 4)
            block += 1

    threads = [threading.Thread(target=draw, args=(label,)) for label in (1, 2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def timed(run, cores: int) -> float:
    usable = sampling.usable_cores
    sampling.usable_cores = lambda: cores
    try:
        start = time.perf_counter()
        run()
        return time.perf_counter() - start
    finally:
        sampling.usable_cores = usable


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=128 * sampling.BLOCK)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--warm-up", type=float, default=1.5)
    args = parser.parse_args()
    warm_up(args.warm_up)
    print(f"{'shape':6} {'pass':9} {'serial ms':>10} {'2 threads ms':>13} {'speedup':>8}")
    for n, q in SHAPES:
        params = standard_of_curvature(n, q, fresh_kappa(q))
        graph = detect_interfaces(params)
        passes = {
            "volume": lambda: cell_volumes_mc(params, args.samples, 1),
            "area": lambda: interface_areas(params, graph, "mc", args.samples, 1),
            "weighted": lambda: normal_moment_operator(params, graph, "mc", args.samples, 1),
        }
        for name, run in passes.items():
            run()  # the first call's imports and allocations are not the pass's
            times = {1: [], 2: []}
            for _ in range(args.repeats):
                for cores in (1, 2):
                    times[cores].append(timed(run, cores))
            serial, two = (statistics.median(times[cores]) for cores in (1, 2))
            print(f"n{n}q{q:<3} {name:9} {1e3 * serial:10.1f} {1e3 * two:13.1f} "
                  f"{serial / two:7.2f}x")


if __name__ == "__main__":
    main()
