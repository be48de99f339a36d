"""Counter-based random streams and uniform samplers on spheres and geodesic subspheres.

Streams are addressed by (seed, stream label, chunk index) through independent
Philox keys, so any chunk can be regenerated in isolation: results depend only
on (seed, sample count), never on how the work is split. A unit direction is a
Gaussian row divided by its norm, the square root of a left fold of its
squared coordinates. draw_unit_chunk draws a chunk of directions afresh, and
unit_chunk memoizes its draws per address for the seed drawn last, which
makes repeated common-random-number evaluations at one seed (volume Newton,
finite differences, the one wall stream that measure_mc and the operators
place every wall from) reuse identical directions at no generation cost. A
pass that reads each chunk once, such as measure.measure_mc_many over the
points of a deformation path, draws afresh and adds nothing to the memo. A
draw at any other seed, fresh or memoized, empties the memo, and within one
seed an entry is admitted only while the memo stays within
UNIT_CACHE_BUDGET floats. An entry holds exactly the rows drawn for it; a
longer request at the same address redraws and replaces it, and a shorter
one is served from its prefix, which a shorter draw would equal. Returned
arrays are read-only, so no caller can change what later callers at the
same address receive.

Chunks run at the same time: run_tasks spreads independent chunk tasks over
every usable core, and each chunk's per-point passes run in blocks of BLOCK
rows (row_blocks). Results depend only on (seed, sample count), never on the
core count, the block size or the order in which tasks finish: each chunk has
its own Philox key, every reduction whose order sets the bits runs over whole
chunks in layout order on the calling thread, and no block is a single row.
Callbacks handed to the package, such as the weights of
measure.weighted_laplacians, may run on worker threads, so they must be pure.
The memo is shared by those threads; its lookup, seed-scope clear and budget
admission run under one lock, and a draw runs outside it. Near the budget,
which draws are admitted may depend on timing, but never what a draw returns.
"""

from __future__ import annotations

import mmap
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# Chunk size is part of the reproducibility contract: streams are drawn in
# fixed-size chunks and reduced pairwise, so a result depends only on
# (seed, sample count), never on how the work is split.
CHUNK = 1 << 18
# Rows per block of a chunk's per-point passes: small enough that a block's
# values stay in cache and BLAS runs it on one thread. It never sets a bit.
BLOCK = 1 << 13

_MIX = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF

# (seed, label, chunk, dim) -> read-only directions, all at one seed
_unit_cache: dict[tuple, np.ndarray] = {}
_unit_cache_lock = threading.Lock()
UNIT_CACHE_BUDGET = 250_000_000  # floats, ~2 GB


def _key(seed: int, label: int, chunk: int) -> np.uint64:
    mixed = (seed & _MASK)
    for part in (label, chunk):
        mixed = ((mixed ^ (part & _MASK)) * _MIX) & _MASK
    return np.uint64(mixed)


def stream(seed: int, label: int, chunk: int = 0) -> np.random.Generator:
    """Philox generator for an independent (seed, label, chunk)-addressed stream."""
    return np.random.Generator(np.random.Philox(key=_key(seed, label, chunk)))


def unit_chunk(seed: int, label: int, chunk: int, count: int, dim: int) -> np.ndarray:
    """Uniform unit directions in R^dim, shape (count, dim), at the address.

    draw_unit_chunk's rows, memoized; read-only, and maybe a view of a
    memoized array."""
    key = (seed, label, chunk, dim)
    with _unit_cache_lock:
        arr = _unit_cache.get(key)
        if arr is not None and arr.shape[0] >= count:
            return arr[:count]
        # a longer draw from the same stream replaces the short entry
        _unit_cache.pop(key, None)
    arr = draw_unit_chunk(seed, label, chunk, count, dim)
    with _unit_cache_lock:
        _drop_other_seeds(seed)
        if sum(a.size for a in _unit_cache.values()) + arr.size <= UNIT_CACHE_BUDGET:
            _unit_cache[key] = arr
    return arr


def draw_unit_chunk(seed: int, label: int, chunk: int, count: int, dim: int) -> np.ndarray:
    """unit_chunk's directions drawn afresh, read-only, and kept by no memo.

    A memo that holds another seed's draws is emptied first, so it still
    holds only the draws of the seed drawn last."""
    with _unit_cache_lock:
        _drop_other_seeds(seed)
    arr = _mapped(count, dim)
    stream(seed, label, chunk).standard_normal(out=arr)
    for rows in row_blocks(count):
        block = arr[rows]
        # a left fold of the squared columns: np.linalg.norm bit for bit up to
        # dim 7, where numpy's reduction over a short axis folds left as well
        norms = block[:, 0] * block[:, 0]
        for k in range(1, dim):
            norms += block[:, k] * block[:, k]
        np.sqrt(norms, out=norms)
        block /= norms[:, None]
    arr.setflags(write=False)
    return arr


def _mapped(count: int, dim: int) -> np.ndarray:
    """A writable (count, dim) float array in its own private anonymous mapping.

    Draws run on worker threads, and malloc serves each thread from an arena
    that keeps freed memory for that arena's later requests. Memo entries
    outlive the call that drew them, so malloc'd draws left the peak memory
    to depend on which threads happened to draw and free them (358 to 422 MB
    over runs of one mc_fresh benchmark seed on 2 cores). A mapping goes back
    to the OS as soon as its last array is dropped, whichever thread drew it.
    """
    buf = mmap.mmap(-1, max(count * dim * 8, 1), flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    return np.frombuffer(buf, dtype=float, count=count * dim).reshape(count, dim)


def _drop_other_seeds(seed: int) -> None:
    """Empty the memo if it holds another seed's draws; the caller holds the lock."""
    if _unit_cache and next(iter(_unit_cache))[0] != seed:
        _unit_cache.clear()


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
    for this call, or inline with one task or one core. numpy releases the
    GIL in the draws and the array passes, so chunk tasks run in parallel.
    A task's exception is raised here.
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
    blocks = [unit_chunk(seed, label, c, m, ambient_dim) for c, m in chunk_layout(count)]
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


def subsphere_chunk(seed: int, label: int, chunk: int, count: int,
                    center: np.ndarray, radius: float, frame: np.ndarray) -> np.ndarray:
    """Uniform points on the geodesic subsphere described by subsphere_frame.

    center + radius * frame @ w for each unit direction w, as a new array."""
    # built in place and kept C-ordered: the bits of products that weight
    # callbacks take, such as pts @ xi, depend on the memory layout
    directions = unit_chunk(seed, label, chunk, count, frame.shape[1])
    basis = np.ascontiguousarray(frame.T)
    pts = np.empty((count, basis.shape[1]))
    for rows in row_blocks(count):
        block = pts[rows]
        np.matmul(directions[rows], basis, out=block)
        block *= radius
        block += center
    return pts
