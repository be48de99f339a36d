"""Row blocks, the chunk task runner and the sample memo under threads.

Results depend only on (seed, sample count): never on the block size, the
number of workers or the order in which chunk tasks finish.
"""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import measure, recentered, sampling, standard_of_curvature
from bubblelab.cluster import cell_values, classify_many, complete_graph, least_cell, wall_interior
from reference import unit_directions

BLOCK, CHUNK = sampling.BLOCK, sampling.CHUNK
ROWS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 137856, 213568, CHUNK]
TEST_LABEL = 0x7A5C0000


def whole_unit_rows(seed, label, count, dim):
    """unit_chunk over the whole array at once: a left fold of squared columns."""
    arr = sampling.stream(seed, label, 0).standard_normal((count, dim))
    norms = arr[:, 0] * arr[:, 0]
    for k in range(1, dim):
        norms += arr[:, k] * arr[:, k]
    np.sqrt(norms, out=norms)
    arr /= norms[:, None]
    return arr


def whole_subsphere_points(directions, center, radius, frame):
    """subsphere_chunk over the whole array at once: one C-ordered product."""
    pts = directions @ np.ascontiguousarray(frame.T)
    pts *= radius
    pts += center
    return pts


def whole_wall_interior(params, i, j, pts):
    """wall_interior over the whole array at once, from one cell_values product."""
    values = cell_values(params, pts)
    lead = np.minimum(values[i], values[j])
    others = [k for k in range(params.q) if k not in (i, j)]
    if not others:
        return np.ones(len(pts), dtype=bool)
    return np.min(values[others], axis=0) > lead


@st.composite
def affine_clusters(draw):
    """A random affine cluster with n = 2..8 and q = 2..min(n + 2, 7)."""
    n = draw(st.integers(2, 8))
    q = draw(st.integers(2, min(n + 2, 7)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    c = draw(st.floats(0.05, 3.0)) * rng.standard_normal((q, n + 1))
    k = draw(st.floats(0.0, 2.0)) * rng.standard_normal(q)
    return recentered(n, c, k)


class TestRowBlocks:
    @pytest.mark.parametrize("rows", [0, 1, 2, BLOCK, BLOCK + 1, 3 * BLOCK + 1, CHUNK - 1])
    def test_blocks_cover_the_rows_in_order_with_no_single_row_tail(self, rows):
        blocks = sampling.row_blocks(rows)
        assert [r for b in blocks for r in range(b.start, b.stop)] == list(range(rows))
        sizes = [b.stop - b.start for b in blocks]
        assert all(size == BLOCK for size in sizes[:-1])
        assert rows < 2 or sizes[-1] >= 2
        assert all(size <= BLOCK + 1 for size in sizes)

    @pytest.mark.parametrize("rows", ROWS)
    @given(params=affine_clusters(), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_blocked_passes_equal_whole_array_formulas(self, rows, params, seed):
        n = params.n
        with pytest.MonkeyPatch.context() as mp:
            # nothing is memoized, so every draw is made and blocked afresh
            mp.setattr(sampling, "_unit_cache", {})
            mp.setattr(sampling, "UNIT_CACHE_BUDGET", 0)
            directions = sampling.unit_chunk(seed, TEST_LABEL, 0, rows, n + 1)
            assert directions.tobytes() == whole_unit_rows(seed, TEST_LABEL, rows,
                                                           n + 1).tobytes()
            if n + 1 <= 7:
                assert directions.tobytes() == unit_directions(seed, TEST_LABEL, 0, rows,
                                                               n + 1).tobytes()
            labels, gaps = classify_many(params, directions, gaps=True)
            want_labels, want_gaps = least_cell(cell_values(params, directions), gaps=True)
            assert labels.tobytes() == want_labels.tobytes()
            assert gaps.tobytes() == want_gaps.tobytes()
            plain = least_cell(cell_values(params, directions))
            assert classify_many(params, directions).tobytes() == plain.tobytes()
            for i, j in [(0, 1), (0, params.q - 1)][: 1 if params.q == 2 else 2]:
                frame = sampling.subsphere_frame(params.pair_center(i, j),
                                                 params.pair_curvature(i, j))
                if frame is None:
                    continue
                pts = sampling.subsphere_chunk(seed, TEST_LABEL + 1, 0, rows, *frame)
                wall_dirs = whole_unit_rows(seed, TEST_LABEL + 1, rows, n)
                assert pts.tobytes() == whole_subsphere_points(wall_dirs, *frame).tobytes()
                assert (wall_interior(params, i, j, pts).tobytes()
                        == whole_wall_interior(params, i, j, pts).tobytes())


def reversed_runner(tasks):
    """Runs the tasks last first, so they finish in reverse order."""
    results = [None] * len(tasks)
    for k in reversed(range(len(tasks))):
        results[k] = tasks[k]()
    return results


def four_workers(tasks):
    with ThreadPoolExecutor(4) as pool:
        return list(pool.map(lambda task: task(), tasks))


RUNNERS = {
    "default": sampling.run_tasks,
    "serial": lambda tasks: [task() for task in tasks],
    "reversed": reversed_runner,
    "four workers": four_workers,
}


def monte_carlo_bytes(runner) -> bytes:
    """Every Monte Carlo result of one fixed sequence, run by runner, as bytes."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "run_tasks", runner)
        mp.setattr(sampling, "_unit_cache", {})
        params = standard_of_curvature(3, 4, np.array([0.3, 0.1, -0.15, -0.25]))
        graph = complete_graph(4)
        samples, seed = 2 * CHUNK + 5, 7
        xi = np.linspace(-0.3, 0.3, 4)
        out = list(measure.cell_volumes_mc(params, samples, seed))
        rep = measure.measure_mc(params, graph, samples, seed)
        out += [rep.volumes, rep.areas, rep.volume_stderr, rep.area_stderr]
        for lap in measure.weighted_laplacians(params, graph,
                                               [None, lambda pts: 1.0 - pts @ xi,
                                                lambda pts: pts[:, 2] ** 2],
                                               "mc", CHUNK + 77, seed):
            out += [lap.matrix, lap.entry_stderr]
        tracker = measure.VolumeTracker(samples, seed)
        for step in (0.0, 1e-9, 1e-4, 0.0, 0.2):
            moved = standard_of_curvature(3, 4, params.curvatures * (1.0 + step))
            out += list(tracker.volumes(moved))
            out.append(np.array([tracker.full, tracker.incremental, tracker.reclassified]))
        for chunk in sorted(tracker._references):
            _, labels, gaps, counts = tracker._references[chunk]
            out += [labels, gaps, counts]
    return b"".join(np.ascontiguousarray(a).tobytes() for a in out)


def test_results_do_not_depend_on_the_runner():
    blobs = {name: monte_carlo_bytes(runner) for name, runner in RUNNERS.items()}
    assert len(set(blobs.values())) == 1, sorted(blobs)


class TestRunTasks:
    def test_results_come_in_task_order(self, monkeypatch):
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)
        tasks = [lambda k=k: (k, threading.get_ident()) for k in range(6)]
        results = sampling.run_tasks(tasks)
        assert [k for k, _ in results] == list(range(6))
        assert threading.get_ident() not in {ident for _, ident in results}

    @pytest.mark.parametrize("cores, tasks", [(1, 5), (4, 1), (3, 0)])
    def test_one_core_or_one_task_runs_inline(self, monkeypatch, cores, tasks):
        monkeypatch.setattr(sampling, "usable_cores", lambda: cores)
        here = threading.get_ident()
        assert sampling.run_tasks([threading.get_ident] * tasks) == [here] * tasks

    def test_a_task_error_is_raised_to_the_caller(self, monkeypatch):
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)

        def fail():
            raise ArithmeticError("task failed")

        with pytest.raises(ArithmeticError, match="task failed"):
            sampling.run_tasks([lambda: 1, fail, lambda: 3])

    def test_usable_cores_is_positive(self):
        assert sampling.usable_cores() >= 1


class TestMemoUnderThreads:
    def test_threads_at_one_seed_get_the_reference_arrays(self, sample_memo, monkeypatch):
        # more threads than cores, switching often: an admission that raced
        # another past the budget check would leave the memo over budget
        count, dim, seed = 20_000, 4, 5
        monkeypatch.setattr(sampling, "UNIT_CACHE_BUDGET", 5 * count * dim)
        labels = list(range(100, 108))
        start = threading.Barrier(len(labels), timeout=60)

        def draw(label):
            start.wait()
            return [sampling.unit_chunk(seed, label, chunk, count, dim) for chunk in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):  # the second round finds some draws memoized
                with ThreadPoolExecutor(len(labels)) as pool:
                    drawn = list(pool.map(draw, labels, timeout=120))
                for label, arrays in zip(labels, drawn):
                    for chunk, arr in enumerate(arrays):
                        assert not arr.flags.writeable
                        want = unit_directions(seed, label, chunk, count, dim)
                        assert arr.tobytes() == want.tobytes()
                held = sum(a.size for a in sample_memo.values())
                assert 0 < held <= sampling.UNIT_CACHE_BUDGET
                assert {key[0] for key in sample_memo} == {seed}
                assert all(not a.flags.writeable for a in sample_memo.values())
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [0, -3])
def test_unit_sphere_rejects_no_samples(count):
    with pytest.raises(ValueError, match="count must be positive"):
        sampling.unit_sphere(0, count, 3)


def test_unit_chunk_draws_no_rows(sample_memo):
    # a draw lives in its own memory mapping, which cannot be empty
    arr = sampling.unit_chunk(3, TEST_LABEL, 0, 0, 4)
    assert arr.shape == (0, 4) and not arr.flags.writeable
