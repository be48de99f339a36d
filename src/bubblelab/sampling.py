"""Counter-based random streams and uniform samplers on spheres and geodesic subspheres.

A Monte Carlo pass over m samples is a list of blocks, pass_blocks(m): the
row_blocks slices of BLOCK rows. Block b of the (seed, label) stream is drawn
from its own Philox key, the two 64-bit words (seed mod 2^64, label | b << 32)
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11), so
distinct addresses never share a key and any block can be drawn again alone.
A unit direction is a Gaussian row divided by its norm, the square root of a
left fold of its squared coordinates; unit_block draws one block of them, a
new read-only array, and a pass classifies and integrates each block as soon
as it is drawn, so no pass holds its sample set. No module keeps draws
between calls: a caller that reads one address again and again, such as
measure.VolumeTracker over the evaluations of a volume Newton solve, keeps
what it needs of the blocks it drew for as long as it lives (the tracker: the
coordinates its clusters use).

run_blocks runs a pass's blocks on at most usable_cores() threads, which pull
block indices from one shared counter. Each block writes its results into its
own slot, and the calling thread reduces the slots in block order: integer
counts by an exact sum, float sums by pairwise_sum. So a result depends on
(seed, samples, BLOCK) alone, never on the core count or the schedule.

What the threads gain, as measured on 2 cores (tests/thread_scaling.py): the
Philox draws release the interpreter lock for a whole block and scale with
the cores, but a block's classification is a few dozen numpy calls of a few
microseconds each, and two threads making such calls at once mostly trade
the interpreter lock between them. So a Monte Carlo wall pass
(measure._wall_pass) draws its blocks on every worker at once and classifies
them one at a time, under one lock the pass makes for its call; the volume
passes classify theirs freely.
Callbacks handed to the package, such as the weights of
measure.weighted_laplacians, run on worker threads, one block at a time
under their pass's lock, so they must be pure.
"""

from __future__ import annotations

import itertools
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Rows per block: small enough that a block's values stay in cache and BLAS
# runs it on one thread. Part of the reproducibility contract: it sets which
# rows each key draws and the order of every reduction.
BLOCK = 1 << 13

_MASK = 0xFFFFFFFFFFFFFFFF


def _key(seed: int, label: int, block: int) -> np.ndarray:
    """The Philox key of a block: the words (seed mod 2^64, label | block << 32)."""
    if not (0 <= label < 1 << 32 and 0 <= block < 1 << 32):
        raise ValueError(f"a stream label and a block index must lie in [0, 2^32), "
                         f"got {label} and {block}")
    return np.array([seed & _MASK, label | block << 32], dtype=np.uint64)


def stream(seed: int, label: int, block: int = 0) -> np.random.Generator:
    """Philox generator for the independent (seed, label, block)-addressed stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, label, block)))


def unit_block(seed: int, label: int, block: int, rows: int, dim: int) -> np.ndarray:
    """Block `block` of the (seed, label) stream: rows unit directions in R^dim,
    drawn afresh from the block's own key, as a new read-only array."""
    out = np.empty((rows, dim))
    stream(seed, label, block).standard_normal(out=out)
    # a left fold of the squared columns: np.linalg.norm bit for bit up to
    # dim 7, where numpy's reduction over a short axis folds left as well
    norms = out[:, 0] * out[:, 0]
    for k in range(1, dim):
        norms += out[:, k] * out[:, k]
    np.sqrt(norms, out=norms)
    out /= norms[:, None]
    out.setflags(write=False)
    return out


def row_blocks(rows: int) -> list[slice]:
    """Consecutive slices of BLOCK rows covering range(rows), the last one shorter.

    A one-row tail joins the block before it: a one-row product takes numpy's
    matrix-vector path, whose last bit can differ from the matrix product's,
    so a block keeps the bits of the whole-array product only if it has two
    rows or more (or the whole array is one row).
    """
    starts = list(range(0, rows, BLOCK))
    if len(starts) > 1 and rows - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [rows])]


def pass_blocks(samples: int) -> list[slice]:
    """The blocks of a Monte Carlo pass over samples points, row_blocks(samples):
    block b is drawn from key b. With one sample every standard error would be
    exactly 0, so a pass takes at least two."""
    if samples < 2:
        raise ValueError("samples must be at least 2")
    return row_blocks(samples)


def usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_blocks(blocks: list[slice], worker) -> None:
    """Run every block of a pass (pass_blocks) on min(len(blocks), usable_cores())
    threads made for this call, or on the calling thread with one.

    worker() is called once on each thread and returns the function that runs
    one block, as run(b, blocks[b]): a thread's scratch lives in it. Each
    thread takes the next block index from one shared counter until none is
    left. A block writes its results into its own slot, which the caller
    reduces in block order, so no result depends on which thread ran which
    block. A block's exception is raised here.
    """
    workers = min(len(blocks), usable_cores())
    if workers <= 1:
        run = worker()
        for b, rows in enumerate(blocks):
            run(b, rows)
        return
    counter, lock = itertools.count(), threading.Lock()

    def work() -> None:
        run = worker()
        while True:
            with lock:
                b = next(counter)
            if b >= len(blocks):
                return
            run(b, blocks[b])

    with ThreadPoolExecutor(workers) as pool:
        running = [pool.submit(work) for _ in range(workers)]
    for done in running:
        done.result()


def pairwise_sum(items) -> np.ndarray:
    """Tree reduction of items (a sequence of equal-shaped arrays or numbers)
    along their first axis, with a deterministic association order: neighbours
    are added in pairs, an odd last item carried to the next round."""
    items = np.asarray(items)
    if not len(items):
        raise ValueError("nothing to reduce")
    while len(items) > 1:
        paired = items[0:len(items) - 1:2] + items[1::2]
        items = np.concatenate([paired, items[-1:]]) if len(items) % 2 else paired
    return items[0]


def unit_sphere(seed: int, count: int, ambient_dim: int, label: int = 0) -> np.ndarray:
    """Uniform points on the unit sphere of R^ambient_dim at the (seed, label)
    address: the unit_block draws of the row_blocks(count) blocks in one
    read-only array."""
    if count <= 0:
        raise ValueError("count must be positive")
    out = np.empty((count, ambient_dim))
    for b, rows in enumerate(row_blocks(count)):
        out[rows] = unit_block(seed, label, b, rows.stop - rows.start, ambient_dim)
    out.setflags(write=False)
    return out


def wall_misses_sphere(c: np.ndarray, kappa: float) -> bool:
    """Whether the hyperplane <c, x> + kappa = 0 cuts no geodesic sphere from S^n.

    True when c = 0 or kappa^2 >= |c|^2, tangency included: the test by which
    subsphere_frame returns None, without building a frame.
    """
    c2 = float(c @ c)
    return c2 <= 0.0 or 1.0 - kappa * kappa / c2 <= 0.0


def subsphere_frame(c: np.ndarray, kappa: float) -> tuple[np.ndarray, float, np.ndarray] | None:
    """Center, radius and tangent frame of S^n cut by the wall <c, x> + kappa = 0.

    The wall sphere lives in the hyperplane <c, x> = -kappa; it is centered at
    -kappa c / |c|^2 with radius sqrt(1 - kappa^2/|c|^2). Returns None when the
    hyperplane misses the unit sphere. For pairs satisfying the compatibility
    constraint |c|^2 = 1 + kappa^2 this reduces to radius 1/sqrt(1 + kappa^2).
    """
    c = np.asarray(c, dtype=float)
    if wall_misses_sphere(c, kappa):
        return None
    c2 = float(c @ c)
    r2 = 1.0 - kappa * kappa / c2
    center = -kappa * c / c2
    from .simplex import orthonormal_complement

    frame = orthonormal_complement(c[None, :], c.size)  # columns span c-perp
    return center, float(np.sqrt(r2)), frame

