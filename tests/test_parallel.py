"""Row blocks, the chunk task runner and draws under threads.

Results depend only on (seed, sample count): never on the block size, the
number of workers or the order in which chunk tasks finish.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import measure, recentered, sampling, standard_of_curvature
from bubblelab.cluster import (cell_values, classify_many, complete_graph, least_cell,
                               stratum_interior)
from reference import masked_wall_sums, subsphere_chunk, unit_directions, wall_points

BLOCK, CHUNK = sampling.BLOCK, sampling.CHUNK
ROWS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 137856, 213568, CHUNK]
TEST_LABEL = 0x7A5C0000


def whole_unit_rows(seed, label, count, dim):
    """draw_unit_chunk over the whole array at once: a left fold of squared columns."""
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
    """stratum_interior of the pair over the whole array at once, from one
    cell_values product."""
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
        directions = sampling.draw_unit_chunk(seed, TEST_LABEL, 0, rows, n + 1)
        assert directions.tobytes() == whole_unit_rows(seed, TEST_LABEL, rows, n + 1).tobytes()
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
            pts = subsphere_chunk(seed, TEST_LABEL + 1, 0, rows, *frame)
            wall_dirs = whole_unit_rows(seed, TEST_LABEL + 1, rows, n)
            assert pts.tobytes() == whole_subsphere_points(wall_dirs, *frame).tobytes()
            assert (stratum_interior(params, (i, j), pts).tobytes()
                    == whole_wall_interior(params, i, j, pts).tobytes())


def whole_wall_chunk_sums(params, i, j, frame, directions, weights):
    """A wall's chunk sums of measure._wall_chunk by whole-array formulas on each
    sampling.row_blocks block: its mask from one cell_values product on the
    block's points placed as subsphere_chunk places them, each weight in one
    call on every point of the block placed as the wall pass places them
    (reference.wall_points) and its values summed over the hit rows in block
    order. Each weight's per-block sums are reduced pairwise in block order."""
    per_block = []
    for rows in sampling.row_blocks(len(directions)):
        inside = whole_wall_interior(params, i, j,
                                     whole_subsphere_points(directions[rows], *frame))
        pts = wall_points(directions[rows], *frame)
        sums = []
        for weight in weights:
            contrib = (np.ones(np.count_nonzero(inside)) if weight is None
                       else np.compress(inside, weight(pts)))
            sums.append((contrib.sum(), (contrib ** 2).sum()))
        per_block.append(sums)
    return [(sampling.pairwise_sum([sums[w][0] for sums in per_block]),
             sampling.pairwise_sum([sums[w][1] for sums in per_block]))
            for w in range(len(weights))]


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 137856, CHUNK])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_wall_weights_by_block_equal_whole_array_weights(n, rows):
    # the kernel classifies one block at a time in the wall's own coordinates,
    # then places and weighs that block's hits at once; the weights are those
    # of the operators (a coordinate, 1 - <p, xi> and <p, pole>^2) and None,
    # whose sums are the hits. The two-cell cluster hits everywhere, so each
    # block's run is the whole block.
    rng = np.random.default_rng(n)
    four = recentered(n, rng.standard_normal((4, n + 1)), 0.3 * rng.standard_normal(4))
    two = recentered(n, rng.standard_normal((2, n + 1)), 0.3 * rng.standard_normal(2))
    xi, pole = 0.3 * rng.standard_normal(n + 1), rng.standard_normal(n + 1)
    weights = [lambda pts: pts[:, 1], None, lambda pts: 1.0 - pts @ xi,
               lambda pts: (pts @ pole) ** 2]
    for params, i, j in [(four, 0, 1), (four, 1, 3), (two, 0, 1)]:
        frame = sampling.subsphere_frame(params.pair_center(i, j), params.pair_curvature(i, j))
        if frame is None:
            continue
        label = i * params.q + j + 1
        directions = sampling.draw_unit_chunk(11, label, 0, rows, n)
        wall = measure._wall_map(params, i, j, frame)
        [([got], _)] = measure._wall_chunk([(params, [(i, j, wall, 1.0)])], weights,
                                           sampling.unit_blocks(11, label, 0, rows, n), rows,
                                           False, threading.Lock())
        want = whole_wall_chunk_sums(params, i, j, frame, directions, weights)
        assert np.array(got).tobytes() == np.array(want).tobytes()
        differences, low = np.empty((params.q - 2, BLOCK + 1)), np.empty(BLOCK + 1)
        inside = np.empty(rows, dtype=bool)
        for block in sampling.row_blocks(rows):
            measure._hit_mask(wall, directions[block].T.copy(), differences, low, inside[block])
        pts = whole_subsphere_points(directions, *frame)
        assert inside.tobytes() == whole_wall_interior(params, i, j, pts).tobytes()
        # the masked sums over every point, misses as zeros: the same terms
        # in another order, so equal to rounding
        for (total, squares), (masked, masked_squares, scale) in zip(
                got, masked_wall_sums(wall_points(directions, *frame), inside, weights)):
            assert abs(total - masked) <= 1e-14 * scale
            assert abs(squares - masked_squares) <= 1e-14 * masked_squares


@pytest.mark.parametrize("rows", [1, 2, 3, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_walls_weighed_together_equal_each_wall_alone(n, rows):
    # the hits of a block on several walls share a run until the next wall's
    # would not fit in BLOCK + 1 rows; a one-row block weighs each wall alone
    rng = np.random.default_rng(n + 10)
    params = recentered(n, rng.standard_normal((5, n + 1)), 0.3 * rng.standard_normal(5))
    xi = 0.3 * rng.standard_normal(n + 1)
    weights = [None, lambda pts: 1.0 - pts @ xi, lambda pts: pts[:, 0]]
    frames = [(i, j, sampling.subsphere_frame(params.pair_center(i, j),
                                              params.pair_curvature(i, j)))
              for i in range(5) for j in range(i + 1, 5)]
    frames = [(i, j, frame) for i, j, frame in frames if frame is not None]
    assert len(frames) >= 3
    walls = [(i, j, measure._wall_map(params, i, j, frame), 1.0) for i, j, frame in frames]
    [(got, _)] = measure._wall_chunk([(params, walls)], weights,
                                     sampling.unit_blocks(12, TEST_LABEL + 4, 0, rows, n), rows,
                                     True, threading.Lock())
    directions = sampling.draw_unit_chunk(12, TEST_LABEL + 4, 0, rows, n)
    for (i, j, frame), sums in zip(frames, got):
        want = whole_wall_chunk_sums(params, i, j, frame, directions, weights)
        assert sums.tobytes() == np.array(want).tobytes(), (i, j)


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 137856, CHUNK])
@pytest.mark.parametrize("dim", range(2, 7))
def test_unit_blocks_are_the_chunk_rows(dim, rows):
    # the one draw path: a chunk's blocks, read-only and each its own array,
    # concatenate to draw_unit_chunk's rows and to the whole-array formula's
    blocks = list(sampling.unit_blocks(13, TEST_LABEL + 3, 0, rows, dim))
    assert [len(block) for block in blocks] == [b.stop - b.start
                                                for b in sampling.row_blocks(rows)]
    assert all(not block.flags.writeable for block in blocks)
    assert len(blocks) == 1 or not np.shares_memory(blocks[0], blocks[-1])
    joined = np.concatenate(blocks).tobytes()
    assert joined == sampling.draw_unit_chunk(13, TEST_LABEL + 3, 0, rows, dim).tobytes()
    assert joined == whole_unit_rows(13, TEST_LABEL + 3, rows, dim).tobytes()


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
    """Every Monte Carlo result of one fixed sequence, run by runner, and the
    sorted arguments of its draws, as bytes."""
    draws = []
    blocks = sampling.unit_blocks

    def counted(*args):
        draws.append(args)
        return blocks(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "run_tasks", runner)
        mp.setattr(sampling, "unit_blocks", counted)
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
        path = [standard_of_curvature(3, 4, params.curvatures * (1.0 + step))
                for step in (0.0, 0.05)]
        for rep in measure.measure_mc_many([(p, graph) for p in path], samples, seed):
            out += [rep.volumes, rep.areas, rep.volume_stderr, rep.area_stderr]
        tracker = measure.VolumeTracker(samples, seed)
        for step in (0.0, 1e-9, 1e-4, 0.0, 0.2):
            moved = standard_of_curvature(3, 4, params.curvatures * (1.0 + step))
            out += list(tracker.volumes(moved))
            out.append(np.array([tracker.full, tracker.incremental, tracker.reclassified]))
        for chunk in sorted(tracker._references):
            _, labels, gaps, counts, offset = tracker._references[chunk]
            out += [labels, gaps, counts, np.array(offset)]
    out.append(np.array(sorted(draws)))
    return b"".join(np.ascontiguousarray(a).tobytes() for a in out)


def test_results_do_not_depend_on_the_runner():
    blobs = {name: monte_carlo_bytes(runner) for name, runner in RUNNERS.items()}
    assert len(set(blobs.values())) == 1, sorted(blobs)


def watched_blocks(monkeypatch, first_block=None):
    """Wrap measure._WallChunk.block, the per-block kernel of a wall pass, and
    return the log it fills: the most blocks of one pass inside the kernel at
    once, keyed by the pass's shared sampled walls, and the threads that ran
    blocks. first_block(), if given, runs inside the first block of each pass.
    Each block sleeps a little inside, so that a block of another task would
    enter meanwhile if nothing kept it out."""
    block, guard = measure._WallChunk.block, threading.Lock()
    inside, log = {}, {"most": {}, "threads": set()}

    def watched(self, *args):
        key = id(self.sampled)
        with guard:
            first = key not in inside
            inside[key] = inside.get(key, 0) + 1
            log["most"][key] = max(log["most"].get(key, 0), inside[key])
            log["threads"].add(threading.get_ident())
        try:
            if first and first_block is not None:
                first_block()
            time.sleep(2e-4)
            block(self, *args)
        finally:
            with guard:
                inside[key] -= 1

    monkeypatch.setattr(measure._WallChunk, "block", watched)
    return log


def laplacian_bytes(params, seed, xi):
    graph = complete_graph(params.q)
    laps = measure.weighted_laplacians(params, graph, [None, lambda pts: 1.0 - pts @ xi],
                                       "mc", 2 * CHUNK + 9, seed)
    return b"".join(lap.matrix.tobytes() + lap.entry_stderr.tobytes() for lap in laps)


class TestWallPassLock:
    """A wall pass draws its blocks on every worker at once and classifies them
    one at a time, under one lock the pass makes for its call."""

    @pytest.mark.parametrize("name", ["measure_mc", "weighted_laplacians"])
    def test_no_two_blocks_of_one_pass_are_classified_at_once(self, monkeypatch, name):
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)
        params = standard_of_curvature(3, 4, np.array([0.3, 0.1, -0.15, -0.25]))
        xi = np.linspace(-0.3, 0.3, 4)
        run = {"measure_mc": lambda: measure.measure_mc(params, complete_graph(4),
                                                        2 * CHUNK + 9, 4).areas.tobytes(),
               "weighted_laplacians": lambda: laplacian_bytes(params, 4, xi)}[name]
        want = run()
        log = watched_blocks(monkeypatch)
        assert run() == want
        assert list(log["most"].values()) == [1]
        assert len(log["threads"]) == 2

    def test_two_passes_at_once_equal_the_passes_in_turn(self, monkeypatch):
        # the first block of each pass waits inside the kernel for the other
        # pass's first block: a lock shared between passes would deadlock it
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)
        calls = [(standard_of_curvature(3, 4, np.array([0.3, 0.1, -0.15, -0.25])), 5,
                  np.linspace(-0.3, 0.3, 4)),
                 (standard_of_curvature(3, 5, np.array([0.35, 0.1, 0.0, -0.2, -0.25])), 6,
                  np.linspace(0.2, -0.4, 4))]
        alone = [laplacian_bytes(*call) for call in calls]
        meet = threading.Barrier(2, timeout=60)
        log = watched_blocks(monkeypatch, meet.wait)
        with ThreadPoolExecutor(2) as pool:
            together = list(pool.map(lambda call: laplacian_bytes(*call), calls, timeout=120))
        assert together == alone
        assert sorted(log["most"].values()) == [1, 1]


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


class TestDrawsUnderThreads:
    def test_threads_at_one_seed_get_the_reference_arrays(self):
        # more threads than cores, switching often: draws share no state, so
        # each returns its address's directions whatever runs beside it
        count, dim, seed = 20_000, 4, 5
        labels = list(range(100, 108))
        start = threading.Barrier(len(labels), timeout=60)

        def draw(label):
            start.wait()
            return [sampling.draw_unit_chunk(seed, label, chunk, count, dim)
                    for chunk in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                with ThreadPoolExecutor(len(labels)) as pool:
                    drawn = list(pool.map(draw, labels, timeout=120))
                for label, arrays in zip(labels, drawn):
                    for chunk, arr in enumerate(arrays):
                        assert not arr.flags.writeable
                        want = unit_directions(seed, label, chunk, count, dim)
                        assert arr.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [0, -3])
def test_unit_sphere_rejects_no_samples(count):
    with pytest.raises(ValueError, match="count must be positive"):
        sampling.unit_sphere(0, count, 3)


def test_unit_chunk_draws_no_rows():
    arr = sampling.draw_unit_chunk(3, TEST_LABEL, 0, 0, 4)
    assert arr.shape == (0, 4) and not arr.flags.writeable
