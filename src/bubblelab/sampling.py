"""Counter-based random streams and uniform samplers on spheres and geodesic subspheres.

Streams are addressed by (seed, stream label, chunk index) through independent
Philox keys, so any chunk can be regenerated in isolation: results depend only
on (seed, sample count), never on how the work is split. A unit direction is a
Gaussian row divided by its norm, the square root of a left fold of its
squared coordinates. unit_blocks is the one draw path: it draws a chunk's
directions from the chunk's stream one row_blocks block at a time, and a
Monte Carlo pass classifies and integrates each block as soon as it is drawn,
so no pass holds a chunk of points. draw_unit_chunk writes that stream into
one array, for a caller that keeps a chunk, and every sampler here draws
through it. No module keeps draws between calls: a caller that reads one
address again and again, such as measure.VolumeTracker over the evaluations
of a volume Newton solve, keeps what it needs of the blocks it drew for as
long as it lives (the tracker: the coordinates its clusters use).
Returned arrays and blocks are read-only, so a caller that shares them cannot
change what another reads.

Chunks run at the same time: run_tasks spreads independent chunk tasks over
every usable core, and each chunk's per-point passes run in blocks of BLOCK
rows (row_blocks). Results depend only on (seed, sample count), with CHUNK
and BLOCK fixed, never on the core count or the order in which tasks finish:
each chunk has its own Philox key, a weighted wall sum over a chunk is the
pairwise_sum of its per-block sums in block order, every reduction across
chunks runs in layout order on the calling thread, and no block is a single
row unless its chunk is.

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

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Chunk and block sizes are part of the reproducibility contract: streams are
# drawn in fixed-size chunks and reduced pairwise, so a result depends only on
# (seed, sample count), never on how the work is split.
CHUNK = 1 << 18
# Rows per block of a chunk's per-point passes: small enough that a block's
# values stay in cache and BLAS runs it on one thread. A weighted wall sum over
# a chunk is the pairwise sum of its per-block sums, so BLOCK fixes its order.
BLOCK = 1 << 13

_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def _key(seed: int, label: int, chunk: int) -> np.uint64:
    mixed = (seed & _MASK)
    for part in (label, chunk):
        mixed = ((mixed ^ (part & _MASK)) * _MIX) & _MASK
    return np.uint64(mixed)


def stream(seed: int, label: int, chunk: int = 0) -> np.random.Generator:
    """Philox generator for an independent (seed, label, chunk)-addressed stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, label, chunk)))


def unit_blocks(seed: int, label: int, chunk: int, count: int, dim: int):
    """The count unit directions in R^dim at the address, one row_blocks(count)
    block at a time: each block is drawn from the chunk's one Philox stream
    when it is asked for, normalized, and handed out read-only as a new array.

    Consecutive blocks continue one stream, so their rows are draw_unit_chunk's
    rows bit for bit; a pass that reads each block once holds one block of
    directions, never the chunk.
    """
    rng = stream(seed, label, chunk)
    for rows in row_blocks(count):
        block = np.empty((rows.stop - rows.start, dim))
        rng.standard_normal(out=block)
        # a left fold of the squared columns: np.linalg.norm bit for bit up to
        # dim 7, where numpy's reduction over a short axis folds left as well
        norms = block[:, 0] * block[:, 0]
        for k in range(1, dim):
            norms += block[:, k] * block[:, k]
        np.sqrt(norms, out=norms)
        block /= norms[:, None]
        block.setflags(write=False)
        yield block


def draw_unit_chunk(seed: int, label: int, chunk: int, count: int, dim: int) -> np.ndarray:
    """Uniform unit directions in R^dim, shape (count, dim), drawn afresh at the
    address: the unit_blocks stream written into one array; read-only."""
    arr = np.empty((count, dim))
    for rows, block in zip(row_blocks(count), unit_blocks(seed, label, chunk, count, dim)):
        arr[rows] = block
    arr.setflags(write=False)
    return arr


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


def usable_cores() -> int:
    """Cores this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_tasks(tasks: list) -> list:
    """Call each task with no argument and return the results in task order.

    The tasks run on a pool of min(len(tasks), usable_cores()) threads made
    for this call, or inline with one task or one core. Only the parts of a
    task that hold no interpreter lock run in parallel, such as the Philox
    draws; short numpy calls gain little (see the module docstring). A
    task's exception is raised here.
    """
    workers = min(len(tasks), usable_cores())
    if workers <= 1:
        return [task() for task in tasks]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(lambda task: task(), tasks))


def chunk_layout(total: int) -> list[tuple[int, int]]:
    """(chunk index, count) pairs covering `total` samples in fixed-size blocks."""
    out = []
    drawn, chunk = 0, 0
    while drawn < total:
        count = min(CHUNK, total - drawn)
        out.append((chunk, count))
        drawn += count
        chunk += 1
    return out


def pairwise_sum(chunks: list[np.ndarray]) -> np.ndarray:
    """Tree reduction with a deterministic association order."""
    if not chunks:
        raise ValueError("nothing to reduce")
    items = list(chunks)
    while len(items) > 1:
        items = [items[k] + items[k + 1] if k + 1 < len(items) else items[k]
                 for k in range(0, len(items), 2)]
    return items[0]


def unit_sphere(seed: int, count: int, ambient_dim: int, label: int = 0) -> np.ndarray:
    """Uniform points on the unit sphere of R^ambient_dim at the (seed, label) address."""
    if count <= 0:
        raise ValueError("count must be positive")
    blocks = [draw_unit_chunk(seed, label, c, m, ambient_dim) for c, m in chunk_layout(count)]
    return np.concatenate(blocks) if len(blocks) > 1 else blocks[0]


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

