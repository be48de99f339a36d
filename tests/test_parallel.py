"""Row blocks, block keys, the block runner and draws under threads.

Results depend on (seed, samples, BLOCK) alone: never on the number of
workers or the order in which they run the blocks.
"""

import itertools
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bubblelab import (NewtonConfig, detect_interfaces, gallery, gram_path, measure, recentered,
                       sampling, standard_of_curvature, standard_of_volume)
from bubblelab.cluster import (cell_values, classify_many, complete_graph, least_cell,
                               stratum_interior)
from reference import (block_directions, masked_wall_sums, subsphere_sample, unit_directions,
                       wall_points)

BLOCK = sampling.BLOCK
ROWS = [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 2 * BLOCK + 1, 137856, 213568, 32 * BLOCK]
TEST_LABEL = 0x7A5C0000


def whole_unit_rows(seed, label, count, dim):
    """unit_sphere with each block's normals drawn from its own key and
    normalized over the whole array at once: a left fold of squared columns."""
    arr = np.vstack([np.empty((0, dim))]
                    + [sampling.stream(seed, label, b).standard_normal((rows.stop - rows.start,
                                                                        dim))
                       for b, rows in enumerate(sampling.row_blocks(count))])
    norms = arr[:, 0] * arr[:, 0]
    for k in range(1, dim):
        norms += arr[:, k] * arr[:, k]
    np.sqrt(norms, out=norms)
    arr /= norms[:, None]
    return arr


def whole_subsphere_points(directions, center, radius, frame):
    """subsphere_sample over the whole array at once: one C-ordered product."""
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
    @pytest.mark.parametrize("rows", [0, 1, 2, BLOCK, BLOCK + 1, 3 * BLOCK + 1, 32 * BLOCK - 1])
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
        directions = sampling.unit_sphere(seed, rows, n + 1, label=TEST_LABEL)
        assert directions.tobytes() == whole_unit_rows(seed, TEST_LABEL, rows, n + 1).tobytes()
        if n + 1 <= 7:
            assert directions.tobytes() == unit_directions(seed, TEST_LABEL, rows,
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
            pts = subsphere_sample(seed, TEST_LABEL + 1, rows, *frame)
            wall_dirs = whole_unit_rows(seed, TEST_LABEL + 1, rows, n)
            assert pts.tobytes() == whole_subsphere_points(wall_dirs, *frame).tobytes()
            assert (stratum_interior(params, (i, j), pts).tobytes()
                    == whole_wall_interior(params, i, j, pts).tobytes())


def whole_wall_block_sums(params, i, j, frame, directions, weights):
    """A wall's per-block sums of measure._wall_slots, shape (blocks, weights, 2),
    by whole-array formulas on each sampling.row_blocks block: its mask from
    one cell_values product on the block's points placed as subsphere_sample
    places them, each weight in one call on every point of the block placed
    as the wall pass places them (reference.wall_points) and its values
    summed over the hit rows in block order."""
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
    return np.array(per_block)


def wall_directions(seed, rows, n):
    return sampling.unit_sphere(seed, rows, n, label=measure._WALL_STREAM)


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 137856, 32 * BLOCK])
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
        seed = 11 + i * params.q + j
        directions = wall_directions(seed, rows, n)
        wall = measure._wall_map(params, i, j, frame)
        [([got], [hits], moments)] = measure._wall_slots(
            [(params, [(i, j, wall, 1.0)])], weights, sampling.row_blocks(rows), seed, False)
        assert moments is None
        want = whole_wall_block_sums(params, i, j, frame, directions, weights)
        assert got.tobytes() == want.tobytes()
        differences, low = np.empty((params.q - 2, BLOCK + 1)), np.empty(BLOCK + 1)
        inside = np.empty(rows, dtype=bool)
        for block in sampling.row_blocks(rows):
            measure._hit_mask(wall, directions[block].T.copy(), differences, low, inside[block])
        pts = whole_subsphere_points(directions, *frame)
        assert inside.tobytes() == whole_wall_interior(params, i, j, pts).tobytes()
        assert hits.tolist() == [np.count_nonzero(inside[block])
                                 for block in sampling.row_blocks(rows)]
        # the masked sums over every point, misses as zeros: the same terms
        # in another order, so equal to rounding
        for (total, squares), (masked, masked_squares, scale) in zip(
                sampling.pairwise_sum(got),
                masked_wall_sums(wall_points(directions, *frame), inside, weights)):
            assert abs(total - masked) <= 1e-14 * scale
            assert abs(squares - masked_squares) <= 1e-14 * masked_squares


@pytest.mark.parametrize("rows", [1, 2, 3, BLOCK + 1, 2 * BLOCK + 1])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_walls_weighed_together_equal_each_wall_alone(n, rows):
    # the hits of a block on several walls share a run until the next wall's
    # would not fit in BLOCK + 1 rows; a one-row block weighs each wall alone.
    # Each block's perimeter sums are those of its per-direction totals.
    rng = np.random.default_rng(n + 10)
    params = recentered(n, rng.standard_normal((5, n + 1)), 0.3 * rng.standard_normal(5))
    xi = 0.3 * rng.standard_normal(n + 1)
    weights = [None, lambda pts: 1.0 - pts @ xi, lambda pts: pts[:, 0]]
    frames = [(i, j, sampling.subsphere_frame(params.pair_center(i, j),
                                              params.pair_curvature(i, j)))
              for i in range(5) for j in range(i + 1, 5)]
    frames = [(i, j, frame) for i, j, frame in frames if frame is not None]
    assert len(frames) >= 3
    shares = np.linspace(0.5, 1.5, len(frames))
    walls = [(i, j, measure._wall_map(params, i, j, frame), share)
             for (i, j, frame), share in zip(frames, shares)]
    [(got, _, moments)] = measure._wall_slots([(params, walls)], weights,
                                              sampling.row_blocks(rows), 12, True)
    directions = wall_directions(12, rows, n)
    totals = np.zeros(rows)
    for (i, j, frame), sums, share in zip(frames, got, shares):
        want = whole_wall_block_sums(params, i, j, frame, directions, weights)
        assert sums.tobytes() == want.tobytes(), (i, j)
        totals += share * whole_wall_interior(params, i, j,
                                              whole_subsphere_points(directions, *frame))
    for (total, squares), rows_of in zip(moments, sampling.row_blocks(rows)):
        block = totals[rows_of]
        assert total == pytest.approx(block.sum(), rel=1e-14, abs=1e-14)
        assert squares == pytest.approx((block * block).sum(), rel=1e-14, abs=1e-14)


@pytest.mark.parametrize("rows", [1, 2, BLOCK - 1, BLOCK + 1, 2 * BLOCK + 1, 137856, 32 * BLOCK])
@pytest.mark.parametrize("dim", range(2, 7))
def test_unit_sphere_is_the_pass_blocks(dim, rows):
    # the one draw path: block b of a pass, read-only and each its own array,
    # drawn from key b; the blocks concatenate to unit_sphere's rows, to the
    # whole-array formula's and to the reference's
    blocks = [sampling.unit_block(13, TEST_LABEL + 3, b, block.stop - block.start, dim)
              for b, block in enumerate(sampling.row_blocks(rows))]
    assert all(not block.flags.writeable for block in blocks)
    assert len(blocks) == 1 or not np.shares_memory(blocks[0], blocks[-1])
    joined = np.concatenate(blocks).tobytes()
    assert joined == sampling.unit_sphere(13, rows, dim, label=TEST_LABEL + 3).tobytes()
    assert joined == whole_unit_rows(13, TEST_LABEL + 3, rows, dim).tobytes()
    assert joined == unit_directions(13, TEST_LABEL + 3, rows, dim).tobytes()


class TestKeys:
    """Block b of the (seed, label) stream is drawn from the Philox key words
    (seed mod 2^64, label | b << 32): distinct addresses, distinct keys."""

    SEEDS = [0, 1, 3, 4, 7, 21507, 2 ** 32, 2 ** 63, 2 ** 64 - 1]
    LABELS = [0, 1, measure._WALL_STREAM, measure._WALL_STREAM + 1, measure._VOLUME_STREAM,
              TEST_LABEL, 2 ** 32 - 1]
    INDICES = [0, 1, 2, 2 ** 31, 2 ** 32 - 1]

    def test_distinct_addresses_get_distinct_key_words(self):
        keys = {}
        for address in itertools.product(self.SEEDS, self.LABELS, self.INDICES):
            words = tuple(int(word) for word in sampling._key(*address))
            assert words == (address[0] % 2 ** 64, address[1] + (address[2] << 32))
            keys[words] = address
        assert len(keys) == len(self.SEEDS) * len(self.LABELS) * len(self.INDICES)

    @given(st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32 - 1),
                     st.integers(0, 2 ** 32 - 1)),
           st.tuples(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 32 - 1),
                     st.integers(0, 2 ** 32 - 1)))
    @settings(max_examples=200, deadline=None)
    def test_random_addresses_share_a_key_only_when_equal(self, first, second):
        same = sampling._key(*first).tobytes() == sampling._key(*second).tobytes()
        assert same == (first == second)

    @pytest.mark.parametrize("first, second", [
        ((4, 0xA12), (7, 0xA11)),
        ((3, measure._VOLUME_STREAM), (21507, measure._WALL_STREAM))],
        ids=["xor-pair", "volume-wall"])
    def test_recorded_colliding_pairs_draw_different_rows(self, first, second):
        # seed ^ label was once the first word of one mixed key, so these
        # pairs drew the same rows
        assert first[0] ^ first[1] == second[0] ^ second[1]
        for b in (0, 1):
            rows = [sampling.unit_block(seed, label, b, 64, 3) for seed, label in (first, second)]
            assert not np.any(np.all(rows[0] == rows[1], axis=1))

    @pytest.mark.parametrize("label, block", [(2 ** 32, 0), (0, 2 ** 32), (2 ** 40, 2 ** 33),
                                              (-1, 0), (0, -1)])
    def test_label_and_block_index_outside_32_bits_are_rejected(self, label, block):
        with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
            sampling.stream(5, label, block)
        with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
            sampling.unit_block(5, label, block, 4, 3)

    def test_seed_is_taken_mod_two_to_the_64(self):
        assert (sampling.unit_block(-1, 9, 2, 16, 3).tobytes()
                == sampling.unit_block(2 ** 64 - 1, 9, 2, 16, 3).tobytes())
        assert (sampling.unit_block(2 ** 64 + 5, 9, 2, 16, 3).tobytes()
                == block_directions(5, 9, 2, 16, 3).tobytes())


def shuffled_blocks(blocks, worker):
    """Runs every block on one worker, in a shuffled order."""
    run = worker()
    for b in np.random.default_rng(len(blocks)).permutation(len(blocks)):
        run(int(b), blocks[b])


def fresh_worker_per_block(blocks, worker):
    """Runs every block last first, each on a worker made for it alone."""
    for b in reversed(range(len(blocks))):
        worker()(b, blocks[b])


SCHEDULES = {
    "1 worker": (1, sampling.run_blocks),
    "2 workers": (2, sampling.run_blocks),
    "3 workers": (3, sampling.run_blocks),
    "shuffled": (2, shuffled_blocks),
    "fresh worker per block": (2, fresh_worker_per_block),
}


def monte_carlo_bytes(cores, runner) -> bytes:
    """Every Monte Carlo result of one fixed sequence, on cores usable cores
    with runner for sampling.run_blocks, and the sorted addresses of its
    draws, as bytes."""
    draws = []
    block = sampling.unit_block

    def counted(*args):
        draws.append(args)
        return block(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "usable_cores", lambda: cores)
        mp.setattr(sampling, "run_blocks", runner)
        mp.setattr(sampling, "unit_block", counted)
        params = standard_of_curvature(3, 4, np.array([0.3, 0.1, -0.15, -0.25]))
        graph = complete_graph(4)
        samples, seed = 20 * BLOCK + 5, 7
        xi = np.linspace(-0.3, 0.3, 4)
        out = list(measure.cell_volumes_mc(params, samples, seed))
        rep = measure.measure_mc(params, graph, samples, seed)
        out += [rep.volumes, rep.areas, rep.volume_stderr, rep.area_stderr,
                np.array(rep.perimeter_stderr)]
        for lap in measure.weighted_laplacians(params, graph,
                                               [None, lambda pts: 1.0 - pts @ xi,
                                                lambda pts: pts[:, 2] ** 2],
                                               "mc", 9 * BLOCK + 77, seed):
            out += [lap.matrix, lap.entry_stderr]
        # a Gram path of the sectored cap, whose later points gain interfaces
        cap = gallery.sectored_cap(4, 0.8)
        path = [(gram_path(cap, t), None) for t in (0.0, 0.15, 0.3)]
        path = [(point, detect_interfaces(point)) for point, _ in path]
        for rep in measure.measure_mc_many(path, samples, seed):
            out += [rep.volumes, rep.areas, rep.volume_stderr, rep.area_stderr,
                    np.array(rep.perimeter_stderr)]
        tracker = measure.VolumeTracker(samples, seed)
        for step in (0.0, 1e-9, 1e-4, 0.0, 0.2):
            moved = standard_of_curvature(3, 4, params.curvatures * (1.0 + step))
            out += list(tracker.volumes(moved))
            out.append(np.array([tracker.full, tracker.incremental, tracker.reclassified]))
        _, labels, gaps, counts, offset = tracker._reference
        out += [tracker._points, labels, gaps, counts, np.array(offset)]
        solved = standard_of_volume(3, 3, [0.3, 0.45, 0.25],
                                    NewtonConfig(backend="mc", mc_samples=samples, mc_seed=seed))
        out += [solved.quasi_centers, solved.curvatures]
    out.append(np.array(sorted(draws)))
    return b"".join(np.ascontiguousarray(a).tobytes() for a in out)


def test_results_do_not_depend_on_the_workers_or_the_schedule():
    blobs = {name: monte_carlo_bytes(*schedule) for name, schedule in SCHEDULES.items()}
    assert len(set(blobs.values())) == 1, sorted(blobs)


def watched_blocks(monkeypatch, first_block=None):
    """Wrap measure._WallWorker.block, the per-block kernel of a wall pass, and
    return the log it fills: the most blocks of one pass inside the kernel at
    once, keyed by the pass's shared sampled walls, and the threads that ran
    blocks. first_block(), if given, runs inside the first block of each pass.
    Each block sleeps a little inside, so that a block of another worker would
    enter meanwhile if nothing kept it out."""
    block, guard = measure._WallWorker.block, threading.Lock()
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

    monkeypatch.setattr(measure._WallWorker, "block", watched)
    return log


def laplacian_bytes(params, seed, xi):
    graph = complete_graph(params.q)
    laps = measure.weighted_laplacians(params, graph, [None, lambda pts: 1.0 - pts @ xi],
                                       "mc", 64 * BLOCK + 9, seed)
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
                                                        64 * BLOCK + 9, 4).areas.tobytes(),
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


class TestRunBlocks:
    @staticmethod
    def logged(log):
        """A worker factory whose workers log (worker, block, rows, thread)."""
        made = itertools.count()

        def worker():
            me = next(made)
            return lambda b, rows: log.append((me, b, rows, threading.get_ident()))

        return worker

    def test_each_block_runs_once_on_the_workers(self, monkeypatch):
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)
        blocks, log = sampling.row_blocks(40 * BLOCK + 3), []
        sampling.run_blocks(blocks, self.logged(log))
        assert sorted((b, rows.start, rows.stop) for _, b, rows, _ in log) == [
            (b, rows.start, rows.stop) for b, rows in enumerate(blocks)]
        # one worker per thread, each made once, none on the calling thread
        assert len({(me, ident) for me, _, _, ident in log}) == len({me for me, *_ in log}) <= 2
        assert threading.get_ident() not in {ident for *_, ident in log}

    @pytest.mark.parametrize("cores, count", [(1, 5), (4, 1), (3, 0)])
    def test_one_core_or_one_block_runs_inline_in_order(self, monkeypatch, cores, count):
        monkeypatch.setattr(sampling, "usable_cores", lambda: cores)
        blocks, log = [slice(b, b + 1) for b in range(count)], []
        sampling.run_blocks(blocks, self.logged(log))
        assert log == [(0, b, rows, threading.get_ident()) for b, rows in enumerate(blocks)]

    def test_shared_counter_hands_out_each_block_once_under_switching(self, monkeypatch):
        # more workers than cores, switching often: a block index handed out
        # twice, or never, shows in the per-block run counts
        monkeypatch.setattr(sampling, "usable_cores", lambda: 8)
        blocks = [slice(b, b + 1) for b in range(4000)]
        runs = np.zeros(len(blocks), dtype=np.intp)

        def worker():
            def run(b, rows):
                runs[b] += 1
            return run

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(1) as pool:
                pool.submit(sampling.run_blocks, blocks, worker).result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert np.all(runs == 1)

    def test_a_block_error_is_raised_to_the_caller(self, monkeypatch):
        monkeypatch.setattr(sampling, "usable_cores", lambda: 2)

        def worker():
            def run(b, rows):
                if b == 3:
                    raise ArithmeticError("block failed")
            return run

        with pytest.raises(ArithmeticError, match="block failed"):
            sampling.run_blocks(sampling.row_blocks(8 * BLOCK), worker)

    def test_usable_cores_is_positive(self):
        assert sampling.usable_cores() >= 1


class TestDrawsUnderThreads:
    def test_threads_at_one_seed_get_the_reference_arrays(self):
        # more threads than cores, switching often: draws share no state, so
        # each returns its address's directions whatever runs beside it
        rows, dim, seed = 20_000, 4, 5
        labels = list(range(100, 108))
        start = threading.Barrier(len(labels), timeout=60)

        def draw(label):
            start.wait()
            return [sampling.unit_block(seed, label, b, rows, dim) for b in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(2):
                with ThreadPoolExecutor(len(labels)) as pool:
                    drawn = list(pool.map(draw, labels, timeout=120))
                for label, arrays in zip(labels, drawn):
                    for b, arr in enumerate(arrays):
                        assert not arr.flags.writeable
                        want = block_directions(seed, label, b, rows, dim)
                        assert arr.tobytes() == want.tobytes()
        finally:
            sys.setswitchinterval(interval)


@pytest.mark.parametrize("count", [0, -3])
def test_unit_sphere_rejects_no_samples(count):
    with pytest.raises(ValueError, match="count must be positive"):
        sampling.unit_sphere(0, count, 3)


def test_unit_block_draws_no_rows():
    arr = sampling.unit_block(3, TEST_LABEL, 0, 0, 4)
    assert arr.shape == (0, 4) and not arr.flags.writeable
