"""What the volume tracker of a Monte Carlo volume Newton holds and costs.

At the sizes of the mc_crn benchmark, standard_of_volume(3, 3, ...) at 2M
samples and model_profile(3, 2, ...) at 1M, prints for each call its
tracemalloc peak (in MB and in bytes per sample), the counters of the
measure.VolumeTracker it made (full, incremental, reclassified) and the
median wall time of untraced runs, the two calls alternating.

Not a test (no test_ prefix, so pytest does not collect it):

    PYTHONPATH=src python tests/tracker_memory.py [--repeats 5] [--seed 3]
"""

import argparse
import statistics
import time
import tracemalloc

from bubblelab import measure, model_profile, standard_of_volume
from bubblelab.standard import NewtonConfig

CALLS = {
    "standard_of_volume": (2_000_000, lambda cfg: standard_of_volume(
        3, 3, [0.3, 0.45, 0.25], cfg)),
    "model_profile": (1_000_000, lambda cfg: model_profile(
        3, 2, [0.45, 0.55], fd_step_grad=1e-2, fd_step_hess=5e-2, cfg=cfg)),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    trackers = []
    tracker_class = measure.VolumeTracker

    def made(*tracker_args):
        trackers.append(tracker_class(*tracker_args))
        return trackers[-1]

    measure.VolumeTracker = made
    configs = {name: NewtonConfig(backend="mc", mc_samples=samples, mc_seed=args.seed)
               for name, (samples, _) in CALLS.items()}
    print(f"{'call':19} {'peak MB':>8} {'B/sample':>9} {'full':>5} {'incr':>5} "
          f"{'reclassified':>12}")
    for name, (samples, run) in CALLS.items():
        run(configs[name])  # the first call's imports are not the call's
        trackers.clear()
        tracemalloc.start()
        try:
            run(configs[name])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        full, incremental, reclassified = (sum(getattr(t, key) for t in trackers)
                                           for key in ("full", "incremental", "reclassified"))
        print(f"{name:19} {peak / 1e6:8.1f} {peak / samples:9.2f} {full:5d} "
              f"{incremental:5d} {reclassified:12d}")
    times = {name: [] for name in CALLS}
    for _ in range(args.repeats):
        for name, (_, run) in CALLS.items():
            start = time.perf_counter()
            run(configs[name])
            times[name].append(time.perf_counter() - start)
    for name, runs in times.items():
        print(f"{name:19} median {1e3 * statistics.median(runs):7.1f} ms "
              f"over {len(runs)} runs")


if __name__ == "__main__":
    main()
