"""Mr. Scan's GPGPU DBSCAN: two passes, one round trip, dense box (§3.2.2-3).

The extensions over CUDA-DClust:

1. **Single host↔device round trip.** The raw input is copied to the
   device once, every kernel launch of both passes is issued in bulk, and
   the clustered result is copied back once — versus CUDA-DClust's two
   synchronous copies per iteration.

2. **Two passes.** Pass 1 classifies core points, stopping each point's
   neighbor scan as soon as MinPts neighbors are seen.  Pass 2 expands
   only core points; every neighbor of an expanded core is marked a member
   of its cluster, and cluster collisions are rectified on the CPU after
   all points are classified.

3. **Dense box** (§3.2.3).  Cells of the global eps/√2 grid holding
   ≥ MinPts points are marked as cluster members up front; their points
   are never individually expanded.  Their mutual distances are ≤ eps by
   construction, so they are all genuine core points and box-level
   adjacency (any cross-box pair within eps) is an exact DBSCAN core edge
   — cores cluster *identically* to exact DBSCAN.  Box members still
   claim their borders: the border pass scans every non-core point
   against every core, box or not, so the paper's "extremely small impact
   on quality" (borders of box-only cores left as noise) is not paid, and
   labels do not depend on which cells a leaf happens to see as boxes.

The passes run as **whole-leaf vectorised kernels** (the ``csr``
engine): a flattened Morton tree (`repro.gpu.treeindex`) yields
interacting Eps-cell pairs, batched position expansion evaluates
candidate distances in a handful of numpy passes (`repro.gpu.kernels`),
and core collisions are resolved with data-parallel union-find
(`repro.dbscan.disjoint_set`) — the tree-based formulation of Prokopenko
et al. (*Fast tree-based algorithms for DBSCAN on GPUs*).  Pass 1 really
does stop at MinPts: a saturating dual traversal of an eps/8 tree credits
whole box pairs inside Eps, retires cells whose credit reaches MinPts,
and evaluates distances only around the rows still open — so a core
point's count is a lower bound, never its exact neighbourhood size.  A
leaf sorts its points twice: the eps/√2 dense-box tree also yields the
core components, and the Eps-cell tree is the eps/8 tree with its three
finest levels dropped.  Pass 2's border step is the leaf's one walk of
non-core rows × core columns (:func:`repro.gpu.kernels.walk_claims`): it
labels each border point from its nearest core and hands every
within-Eps ``(non-core, core)`` pair on as ``GPUClusterResult.claims``,
the multi-membership :func:`repro.merge.summarize_leaf` summarises.

The per-cell python expansion loop these kernels replaced lives on in
``tests/gpu/block_reference.py`` as the differential oracle.  The two
produce byte-identical labels, core masks, claims and modeled
pass-1/pass-2 operation counts (the pass-1 model charges a core row from
its candidate count alone, which both know exactly); they differ only in
launch/occupancy accounting (this engine launches per batch) and
wall-clock speed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dbscan.disjoint_set import first_appearance_labels, union_edges
from ..errors import ConfigError
from ..points import NOISE, PointSet
from ..sorting import stable_order
from .densebox import DenseBoxResult, build_densebox_tree, find_dense_boxes
from .device import SimulatedDevice
from .kernels import (
    DEFAULT_BATCH_PAIRS,
    MIN_BATCH_PAIRS,
    expected_scan_ops,
    iter_position_batches,
    walk_claims,
)
from .treeindex import FlatTree

__all__ = [
    "MrScanGPUStats",
    "GPUClusterResult",
    "mrscan_gpu",
]

@dataclass
class MrScanGPUStats:
    """Operation counts from one leaf clustering run."""

    n_points: int = 0
    n_core: int = 0
    n_boxes: int = 0
    n_eliminated: int = 0
    pass1_ops: int = 0
    pass2_ops: int = 0
    kernel_launches: int = 0
    sync_round_trips: int = 0
    memory_chunks: int = 1
    engine: str = "csr"
    csr_batches: int = 0
    device: dict[str, int] = field(default_factory=dict)

    @property
    def eliminated_fraction(self) -> float:
        return self.n_eliminated / self.n_points if self.n_points else 0.0

    @property
    def total_distance_ops(self) -> int:
        return self.pass1_ops + self.pass2_ops


@dataclass
class GPUClusterResult:
    """Labels + provenance from one leaf's GPU clustering.

    ``labels`` are local cluster ids (``NOISE`` = -1) over the leaf's
    partition-plus-shadow points, in input order.  ``claims`` are the
    ``(non-core point, core point)`` index pairs within Eps that the
    border pass found, in no particular order, for
    :func:`repro.merge.summarize_leaf` to summarise without walking again.
    """

    labels: np.ndarray
    core_mask: np.ndarray
    densebox: DenseBoxResult
    stats: MrScanGPUStats
    claims: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    @property
    def n_clusters(self) -> int:
        labs = self.labels[self.labels != NOISE]
        return int(len(np.unique(labs)))


def _chunk_sizes(total: int, k: int) -> list[int]:
    """Split ``total`` bytes into ``k`` near-equal positive parts."""
    base, extra = divmod(int(total), k)
    return [base + (1 if i < extra else 0) for i in range(k)]


def _batch_blocks(device: SimulatedDevice, n_items: int) -> int:
    """Blocks one batched kernel launch occupies (grid-stride over items)."""
    return max(1, -(-int(n_items) // device.config.threads_per_block))


def _charge_batches(
    device: SimulatedDevice, batch_candidates: list[int], distance_ops: int
) -> None:
    """One launch per batch, splitting modeled ops proportionally.

    Cumulative integer rounding guarantees the per-launch shares sum to
    exactly ``distance_ops``, so the pass totals are the modelled ones
    while launches keep per-batch granularity.
    """
    total = sum(batch_candidates)
    if total <= 0:
        return
    acc = 0
    given = 0
    for m in batch_candidates:
        acc += m
        share = distance_ops * acc // total - given
        given += share
        device.launch(blocks=_batch_blocks(device, m), distance_ops=int(share))


def _canonical_remap(labels: np.ndarray) -> None:
    """Renumber non-noise labels densely by first appearance, in place."""
    mask = labels != NOISE
    if not mask.any():
        return
    labels[mask] = first_appearance_labels(labels[mask])


#: The counting grid's cells are ``eps / 2**_COUNT_LEVELS``: finer cells
#: tighten the candidate annulus around each point's Eps-disk and let
#: fully-contained cells be counted in bulk without any distance
#: evaluations.  A power of two makes the Eps-cell tree a coarsened view
#: of the counting tree instead of a second sort.
_COUNT_LEVELS = 3


def _leaf_trees(coords: np.ndarray, eps: float) -> tuple[FlatTree, FlatTree]:
    """The counting tree and the Eps-cell tree, from one sort.

    The counting cell is eps/8, or eps/4, eps/2, eps when the Morton budget
    cannot span the leaf that finely; its origin sits on a multiple of the
    divisor, so the Eps-cell tree is the counting tree with its finest
    levels dropped (:meth:`FlatTree.coarsened`).
    """
    for levels in range(_COUNT_LEVELS, 0, -1):
        try:
            tree = FlatTree(coords, eps / 2**levels, radius=eps, align_levels=levels)
        except ConfigError:
            continue
        return tree, tree.coarsened(levels)
    tree = FlatTree(coords, eps)
    return tree, tree


def _csr_counts(
    tree: FlatTree,
    coords: np.ndarray,
    eps: float,
    minpts: int,
    in_box: np.ndarray,
    batch_pairs: int,
) -> tuple[np.ndarray, list[int]]:
    """Neighbor-count *evidence* (self included) for every non-box point.

    Pass 1 only asks ``count >= minpts``, so counting stops there: the
    returned count is exact when below MinPts and otherwise a lower bound
    that already reaches MinPts (§3.2.2's early exit; dense box is its
    one-cell case).  Dense-box members are provably core, so their rows
    are never counted at all — the csr engine's realisation of the
    dense-box elimination.

    Counting runs on ``tree``, a grid finer than Eps (:func:`_leaf_trees`),
    walked by :meth:`FlatTree.saturating_pairs`: box pairs wholly within Eps of each
    other credit their full population without a single distance
    evaluation, at the coarsest tree level that proves it; cells whose
    credit alone reaches MinPts are retired; and only the annulus of
    partially-covered cells around the remaining rows is expanded
    point-by-point.

    Returns ``(counts, batch_candidates)`` where ``counts`` is that
    evidence on ``~in_box`` rows and zero elsewhere.
    """
    n = len(coords)
    if n == 0:
        return np.zeros(0, dtype=np.int64), []
    order = tree.order
    start, count = tree.level_start[-1], tree.level_count[-1]
    n_cells = tree.n_leaf_boxes
    eps2 = float(eps) * float(eps)

    # Group each cell's non-box members contiguously so the row side of
    # every quad is one slice (when densebox is off this is a no-op).
    key = tree.point_leaf[order] * 2 + in_box[order]  # 0 = non-box
    ord2 = order[stable_order(key, (2 * n_cells - 1).bit_length())]
    cnt2 = np.bincount(key, minlength=2 * n_cells)
    st2 = np.zeros(2 * n_cells, dtype=np.int64)
    np.cumsum(cnt2[:-1], out=st2[1:])
    nb_start, nb_count = st2[0::2], cnt2[0::2]

    # Row side: non-box members of pa; column side: all members of pb.
    credit, pa, pb = tree.saturating_pairs(nb_count > 0, minpts)

    # Annulus of partially-covered cell pairs: evaluate point-by-point in
    # position space (row coords gather sequentially from the class-grouped
    # permutation, column coords from the tree permutation).
    xr, yr = coords[ord2, 0].copy(), coords[ord2, 1].copy()
    xc, yc = coords[order, 0].copy(), coords[order, 1].copy()

    # Distance tests run in float32 on centred coordinates — half the
    # memory traffic of float64 — with candidates inside a conservative
    # rounding band around eps² re-verified by the exact float64
    # expression on the original coordinates.  The band bounds every
    # float32 rounding step (input quantisation scales with the span,
    # the rest with eps), so classification is bit-identical to the pure
    # float64 path.  Data spread too wide for a useful band (span/eps
    # beyond ~2^15) falls back to float64 throughout.
    origin = np.array([coords[:, 0].min(), coords[:, 1].min()])
    span = float(max(coords[:, 0].max() - origin[0], coords[:, 1].max() - origin[1]))
    band = (eps * span + eps2) * 2.0**-18
    use32 = band * 8.0 < eps2
    if use32:
        xr32 = (xr - origin[0]).astype(np.float32)
        yr32 = (yr - origin[1]).astype(np.float32)
        xc32 = (xc - origin[0]).astype(np.float32)
        yc32 = (yc - origin[1]).astype(np.float32)
        t_lo = np.float32(eps2 - 2.0 * band)
        t_hi = np.float32(eps2 + 2.0 * band)

    counts_pos = np.zeros(n, dtype=np.int64)
    batches: list[int] = []
    for u, v in iter_position_batches(
        nb_start[pa], nb_count[pa], start[pb], count[pb], batch_pairs=batch_pairs
    ):
        batches.append(len(u))
        if use32:
            dx = xr32[u] - xc32[v]
            dy = yr32[u] - yc32[v]
            d2 = dx * dx
            d2 += dy * dy
            within = d2 <= t_hi
            unsure = np.flatnonzero(within & (d2 > t_lo))
            if len(unsure):
                uu, vv = u[unsure], v[unsure]
                ddx = xr[uu] - xc[vv]
                ddy = yr[uu] - yc[vv]
                within[unsure[ddx * ddx + ddy * ddy > eps2]] = False
        else:
            dx = xr[u] - xc[v]
            dy = yr[u] - yc[v]
            within = dx * dx + dy * dy <= eps2
        counts_pos += np.bincount(u[within], minlength=n)

    counts = np.zeros(n, dtype=np.int64)
    counts[ord2] = counts_pos
    nb_ids = np.flatnonzero(~in_box)
    counts[nb_ids] += credit[tree.point_leaf[nb_ids]]
    return counts, batches


def _csr_core_components(
    coords: np.ndarray,
    box_tree: FlatTree,
    core_mask: np.ndarray,
    eps: float,
    batch_pairs: int,
) -> tuple[np.ndarray, int, list[int]]:
    """Exact eps-connectivity components of core points, vectorised.

    ``box_tree`` is the leaf's eps/√2 dense-box tree at radius Eps
    (:func:`build_densebox_tree`): every cell is a clique (diameter ≤ eps),
    so the union-find runs over cells — Wang, Gu & Shun's cell graph — and
    only interacting cell *pairs* that both hold cores need distance
    checks.  Cell pairs whose cells already share a union-find root are
    dropped before expansion — the vectorised form of the ``connected``
    short-circuit in :func:`repro.dbscan.reference.core_components`.
    Returns, per core in index order, the root cell of its component, the
    number of union-find hook rounds, and per-batch evaluated candidate
    counts.
    """
    # Core positions: the cores in tree order, so each cell's are one run.
    order = box_tree.order
    cores = order[core_mask[order]]
    cell = box_tree.point_leaf[cores]
    count = np.bincount(cell, minlength=box_tree.n_leaf_boxes)
    start = np.cumsum(count) - count
    xs, ys = coords[cores, 0], coords[cores, 1]
    eps2 = float(eps) * float(eps)
    parent, rounds = np.arange(box_tree.n_leaf_boxes), 0

    # Cross-cell merges.  Two live optimisations mirror the per-cell
    # loop's short-circuits batch-wise: cell pairs whose cells already
    # share a root are dropped before expansion (connectivity transits
    # through earlier merges), and each surviving pair is first probed
    # with a capped sample of member pairs — one witness edge merges the
    # whole cell pair, so full expansion is reserved for pairs that stay
    # disconnected after sampling.
    a, b = box_tree.leaf_pairs()
    keep = (a != b) & (count[a] > 0) & (count[b] > 0)
    a, b = a[keep], b[keep]
    batches: list[int] = []
    cap = 8
    while len(a):
        live = parent[a] != parent[b]
        a, b = a[live], b[live]
        if not len(a):
            break
        na = np.minimum(count[a], cap)
        nb = np.minimum(count[b], cap)
        for u, v in iter_position_batches(
            start[a], na, start[b], nb, batch_pairs=batch_pairs
        ):
            batches.append(len(u))
            dx = xs[u] - xs[v]
            dy = ys[u] - ys[v]
            within = dx * dx + dy * dy <= eps2
            parent, extra = union_edges(parent, cell[u[within]], cell[v[within]])
            rounds += extra
        fully = (na >= count[a]) & (nb >= count[b])
        a, b = a[~fully], b[~fully]
        cap *= 4
    return parent[box_tree.point_leaf[core_mask]], rounds, batches


def _assign_borders(labels: np.ndarray, claims: np.ndarray, d2: np.ndarray) -> None:
    """Give each claimed non-core point its nearest claiming core's label.

    Reproduces ``assign_border_points`` exactly: the core minimising
    ``(d², index)`` wins — the nearest-with-lowest-index tiebreak of the
    per-cell argmin the block oracle applies.
    """
    n = len(labels)
    r, c = claims[:, 0], claims[:, 1]
    best_d2 = np.full(n, np.inf)
    np.minimum.at(best_d2, r, d2)
    tie = d2 == best_d2[r]
    best_c = np.full(n, n, dtype=np.int64)  # n = "no core within Eps" sentinel
    np.minimum.at(best_c, r[tie], c[tie])
    has = np.flatnonzero(best_c < n)
    labels[has] = labels[best_c[has]]


def _cluster_csr(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    device: SimulatedDevice,
    box_tree: FlatTree,
    densebox: DenseBoxResult,
    in_box: np.ndarray,
    batch_pairs: int,
    stats: MrScanGPUStats,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Whole-leaf vectorised cluster phase: labels pre-remap, core mask and
    the border pass's claims."""
    coords = points.coords
    n = len(coords)
    count_tree, ftree = _leaf_trees(coords, eps)
    nonbox = ~in_box

    # --- pass 1: counts up to MinPts for candidate-core rows ------------
    counts, count_batches = _csr_counts(count_tree, coords, eps, minpts, in_box, batch_pairs)
    core_mask = in_box | (counts >= minpts)
    cand = ftree.interaction_counts()
    ops1 = int(expected_scan_ops(cand[nonbox], core_mask[nonbox], minpts).sum())
    stats.pass1_ops = ops1
    stats.csr_batches += len(count_batches)
    _charge_batches(device, count_batches, ops1)

    # --- pass 2: union-find collision resolution + border claims --------
    labels = np.full(n, NOISE, dtype=np.int64)
    claims = np.empty((0, 2), dtype=np.int64)
    core_idx = np.flatnonzero(core_mask)
    if len(core_idx):
        comp, uf_rounds, uf_batches = _csr_core_components(
            coords, box_tree, core_mask, eps, batch_pairs
        )
        labels[core_idx] = comp
        expand_mask = core_mask & nonbox
        ops2 = int(cand[expand_mask].sum()) + densebox.n_boxes * max(minpts, 8)
        stats.pass2_ops = ops2
        stats.csr_batches += len(uf_batches)
        _charge_batches(device, uf_batches or [len(core_idx)], ops2)
        # Each union-find hook+jump round is one device-wide launch.
        for _ in range(uf_rounds):
            device.launch(blocks=_batch_blocks(device, len(core_idx)))

        claims, d2, border_batches = walk_claims(
            ftree, coords, core_mask, eps, batch_pairs=batch_pairs
        )
        _assign_borders(labels, claims, d2)
        stats.csr_batches += len(border_batches)
        for m in border_batches:
            device.launch(blocks=_batch_blocks(device, m))
    return labels, core_mask, claims


def mrscan_gpu(
    points: PointSet,
    eps: float,
    minpts: int,
    *,
    device: SimulatedDevice | None = None,
    use_densebox: bool = True,
    memory_chunks: int = 1,
) -> GPUClusterResult:
    """Cluster one partition with Mr. Scan's GPU DBSCAN.

    Parameters
    ----------
    device:
        The simulated accelerator to account against (a fresh default
        device is created when omitted).
    use_densebox:
        Disable to get the pure two-pass algorithm (the dense-box ablation
        benchmark flips this).  Labels do not depend on it: box members
        are not expanded, but like every core they claim their borders.
    memory_chunks:
        Stream the per-point device buffers in this many slices instead of
        resident all at once — graceful degradation for partitions that do
        not fit device memory whole.  Each extra chunk costs additional
        transfers and synchronous round trips (and shrinks the
        pair-batch scratch); the arithmetic (and the labels) are
        bit-identical regardless of chunking.
    """
    if eps <= 0:
        raise ConfigError(f"eps must be positive, got {eps}")
    if minpts < 1:
        raise ConfigError(f"minpts must be >= 1, got {minpts}")
    if memory_chunks < 1:
        raise ConfigError(f"memory_chunks must be >= 1, got {memory_chunks}")
    device = device or SimulatedDevice()
    n = len(points)
    stats = MrScanGPUStats(n_points=n, memory_chunks=int(memory_chunks))
    if n == 0:
        empty = DenseBoxResult(box_id=np.empty(0, dtype=np.int64), n_boxes=0, n_subdivisions=0)
        return GPUClusterResult(
            labels=np.empty(0, dtype=np.int64),
            core_mask=np.empty(0, dtype=bool),
            densebox=empty,
            stats=stats,
        )

    # --- host->device copy of the raw input (round trip 1 of 2) ---------
    # With memory_chunks == 1 this is Mr. Scan's single bulk copy; with
    # more chunks only one slice of the per-point buffers is resident at a
    # time (the box tree stays resident throughout), trading extra
    # transfers/round trips for a smaller device footprint.
    tree = build_densebox_tree(points, eps, minpts)
    tree_bytes = 32 * sum(len(keys) for keys in tree.level_keys)
    k = int(memory_chunks)
    device.alloc("boxtree", tree_bytes)
    points_slices = _chunk_sizes(points.coords.nbytes, k)
    state_slices = _chunk_sizes(17 * n, k)  # labels + core flags + queue bitmap
    for c in range(k):
        device.alloc("points", points_slices[c])
        device.alloc("state", state_slices[c])
        device.h2d(points_slices[c] + (tree_bytes if c == 0 else 0))
        if c < k - 1:
            device.free("points")
            device.free("state")
    # The pair-batch scratch shrinks with the chunk count — the same
    # OOM-degradation dial the per-point buffers follow — and is further
    # clamped to half the device memory still free, so a small device
    # runs more, smaller batches instead of failing to allocate.
    batch_pairs = max(MIN_BATCH_PAIRS, DEFAULT_BATCH_PAIRS // k)
    batch_pairs = max(256, min(batch_pairs, device.free_bytes // 32))
    device.alloc("csr", 16 * batch_pairs)

    if use_densebox:
        densebox = find_dense_boxes(points, eps, minpts, tree=tree)
    else:
        densebox = DenseBoxResult(
            box_id=np.full(n, -1, dtype=np.int64), n_boxes=0, n_subdivisions=tree.n_leaf_boxes
        )
    in_box = densebox.box_id >= 0
    stats.n_boxes = densebox.n_boxes
    stats.n_eliminated = densebox.n_eliminated

    labels, core_mask, claims = _cluster_csr(
        points,
        eps,
        minpts,
        device=device,
        box_tree=tree,
        densebox=densebox,
        in_box=in_box,
        batch_pairs=batch_pairs,
        stats=stats,
    )

    # --- device->host copy of the clustered result (chunked to match) ---
    device.free("csr")
    for nbytes in _chunk_sizes(9 * n, k):
        device.d2h(nbytes)
    device.free_all()

    # Canonical dense numbering by first appearance.
    _canonical_remap(labels)

    stats.n_core = int(core_mask.sum())
    stats.kernel_launches = device.stats.kernel_launches
    stats.sync_round_trips = device.stats.sync_points
    stats.device = device.stats.as_dict()
    return GPUClusterResult(
        labels=labels, core_mask=core_mask, densebox=densebox, stats=stats, claims=claims
    )
