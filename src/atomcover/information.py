"""Kernel-density information measures over descriptor rows.

All quantities are in nats and reduce to a Gaussian kernel sum

    K_h(x, y) = exp(-|x - y|^2 / (2 h^2))

evaluated in the log domain, over tiles of fixed shapes visited in a
fixed order, so results are deterministic for a given input ordering and
BLAS (a multi-threaded BLAS may move the last bits).  Each tile makes one
GEMM of rows in augmented form (:func:`_augment`), which yields the
squared distances directly; coincident rows snap to exactly 0.

A self pass (each set of a (B, n, w) stack against itself,
:func:`_self_kernel_sums`) computes each pair once on 256 x 256 tiles:
every log kernel is <= 0 and the diagonal is exactly 0, so it sums the
kernels with no shift.  It sums them against weights on the rows: a vector
of ones for :func:`entropy` and :func:`per_structure_entropy`, or one 0/1
column per subset for :func:`_subset_delta_entropies`, which thus gets
every subset's delta_entropy(set | subset) from one pass.  A set is a
stack of one; :func:`per_structure_entropy` stacks structures by row
count, and every set of a stack gets the bits of a pass by itself.  A
cross pass is a :class:`Coverage` of the query rows: it keeps its queries
column-major and a running max-shifted log-sum-exp per query, and can be
extended by any number of reference blocks, so a growing reference set
costs each (query, reference) pair once.  A query whose kernel sum reaches
``_SUM_FLOOR`` is settled, unshifted, and from then on summed as a self
pass sums.  It never underflows to ``log(0)`` for far-away queries, which
keep the shift: a lone reference at distance d gives back exactly
``d^2 / (2 h^2)``, and :func:`_subset_delta_entropies` hands the rows
whose weighted sums underflow to it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "KernelParams",
    "EntropyResult",
    "Coverage",
    "delta_entropy",
    "contained_fraction",
    "entropy",
    "diversity",
    "overlap",
    "efficiency",
    "per_structure_entropy",
]

# Tile edge of every kernel pass, and the element count of every tile.  Fixed
# constants keep the floating-point summation order and the bits of each
# tile's GEMM (and hence every digit of the result) independent of memory
# pressure or input size.  At 256 x 256 the two tile buffers of a pass
# (about 0.6 MiB) stay in a 4 MiB L2 cache.
_BLOCK = 256
_TILE = _BLOCK * _BLOCK


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel bandwidth, in the units of the descriptor.

    The bandwidth must be finite and large enough that ``1 / (2 h^2)`` is
    finite (h of about 5.3e-155 and up); below that the log kernel
    overflows and the figures come out NaN.
    """

    bandwidth: float = 0.015

    def __post_init__(self):
        two_h2 = 2.0 * self.bandwidth * self.bandwidth
        if not (0 < self.bandwidth < math.inf and two_h2 > 0 and 1.0 / two_h2 < math.inf):
            raise InputError(
                f"bandwidth must be finite with a finite 1/(2h^2), got {self.bandwidth}"
            )


@dataclass(frozen=True)
class EntropyResult:
    """Every self-pass figure of one set, all read off one delta-H vector.

    ``per_point[i] = -log sum_j K_h(X_i, X_j)`` over the set itself;
    ``efficiency`` is None when the set has fewer than two rows.
    """

    entropy_nats: float
    diversity_nats: float
    efficiency: float | None
    n_environments: int
    per_point: np.ndarray

    @classmethod
    def of(cls, dh: np.ndarray) -> "EntropyResult":
        """Every figure of a set from its self delta-H vector ``dh``."""
        n = dh.shape[0]
        value = float(_entropy_nats(dh))
        m = float(dh.max())
        return cls(
            entropy_nats=value,
            diversity_nats=max(m + float(np.log(np.exp(dh - m).sum())), 0.0),
            efficiency=value / float(np.log(n)) if n >= 2 else None,
            n_environments=n,
            per_point=dh,
        )


def _as_rows(x) -> np.ndarray:
    """Accept a DescriptorSet or a plain (n, width) array."""
    values = getattr(x, "values", x)
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise InputError(f"expected a 2-D array of rows, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InputError("rows must be finite")
    return arr


def _augment(rows: np.ndarray, sq: np.ndarray, left: bool, out=None) -> np.ndarray:
    """The left ``[-2x, |x|^2, 1]`` or right ``[y, 1, |y|^2]`` form of a row block.

    ``rows`` is one (n, w) block or a (B, n, w) stack of them, and ``sq``
    holds the rows' squared norms.  The product of a left block and a
    right block in (w + 2, n) orientation is ``|x|^2 + |y|^2 - 2 x.y``, the
    squared distances, from one GEMM; the norm columns also serve the
    coincidence snap.  The form is written into ``out`` when it is given
    (any (..., n, w + 2) view, such as the transpose of a column-major
    store), else into a new row-major array.
    """
    w = rows.shape[-1]
    if out is None:
        out = np.empty(rows.shape[:-1] + (w + 2,))
    if left:
        np.multiply(rows, -2.0, out=out[..., :w])  # exact: scaling by 2 and negating
        out[..., w], out[..., w + 1] = sq, 1.0
    else:
        out[..., :w] = rows
        out[..., w], out[..., w + 1] = 1.0, sq
    return out


def _log_kernel_tile(left, right, inv_two_h2, buffers) -> np.ndarray:
    """Write log K_h(x_i, y_j) of one tile into a view of the first buffer.

    ``left`` is the left form (:func:`_augment`) of the tile's rows,
    (m, w + 2), and ``right`` the right form of its columns in (w + 2, n)
    orientation; a stack of B tiles passes (B, m, w + 2) and (B, w + 2, n)
    and makes one stacked GEMM.  Returns the (m, n) or (B, m, n) view that
    holds the tile; it is valid until the next call with the same buffers.
    """
    shape = left.shape[:-1] + right.shape[-1:]
    size = math.prod(shape)
    d2, snap = buffers[0][:size], buffers[1][:size]
    # The views are contiguous, so matmul(out=) still goes through BLAS
    # and gives the same bits as a fresh product.
    tile = d2.reshape(shape)
    np.matmul(left, right, out=tile)
    # The GEMM leaves O(w * eps * |x|^2) residue on coincident rows; snap
    # every pair with d2 <= 1e-12 (|x|^2 + |y|^2) to exactly zero, so
    # every log kernel is <= 0 and a member of the reference set always gets
    # kernel sum >= 1 (delta entropy <= 0).  One scalar per tile, at least
    # every pair's threshold, screens the few candidates first.
    x_sq, y_sq = left[..., -2], right[..., -1, :]
    screen = 1e-12 * (x_sq.max(axis=-1) + y_sq.max(axis=-1))
    np.less_equal(tile, screen[..., None, None], out=snap.reshape(shape))
    near = snap.nonzero()[0]
    m, n = shape[-2:]
    row, column = np.divmod(near, n)  # row = b m + i over the B stacked blocks
    pair_sq = x_sq.reshape(-1)[row] + y_sq.reshape(-1)[row // m * n + column]
    d2[near[d2[near] <= pair_sq * 1e-12]] = 0.0
    d2 *= -inv_two_h2  # now the log kernel
    return tile


def _tile_buffers(size: int):
    """The squared-distance and snap-screen buffers of a pass.

    Each holds ``size`` elements, the largest tile the pass makes.  A pass
    allocates them once and works in views of them, so it allocates O(n)
    memory on top of them whatever its size.
    """
    return np.empty(size), np.empty(size, dtype=bool)


# A Coverage tile's column sums are GEMVs against a slice of this vector.
_ONES = np.ones(_BLOCK)


# At tiny bandwidths the log kernel of a far pair overflows to -inf, whose
# exp is an exact 0.
@np.errstate(over="ignore")
def _self_kernel_sums(stack: np.ndarray, kernel: KernelParams, weights: np.ndarray) -> np.ndarray:
    """sum_j K_h(x_i, x_j) w_j over each set of a (B, n, w) stack, each pair once.

    A single set passes ``rows[None]``.  ``weights`` is (n,) or (n, c),
    shared by the B sets; the sums are (B,) + ``weights.shape``.  Tiles
    I <= J are visited in a fixed (I, J) order, from the left form of block
    I, built per block, and the right form of block J, built per tile in
    place into one reused buffer as a C-contiguous (B, w + 2, rows) array,
    each set laid out as a Coverage lays out its query store, so working
    memory stays a few tiles.  Each tile is one stacked GEMM, which numpy
    runs as one BLAS call per set with that set's own operands, so every
    set gets the bits of a pass by itself.  Each tile adds W[I]^T tile to
    the J rows, and an off-diagonal tile also adds tile W[J] to the I rows:
    GEMVs for a weight vector, one GEMM against every column for a matrix.
    Every log kernel is <= 0 and the diagonal is exactly 0, so the sums
    need no max shift, and with a weight of 1 on every row each sum holds
    its own exp(0) = 1.  Column sums of a vector of ones are taken as in
    :class:`Coverage`, with operands of the same layout, so a set of one
    tile gets the bits of a Coverage of the set by itself.
    """
    b, n, w = stack.shape
    if n == 0:
        raise InputError("reference set is empty")
    inv_two_h2 = 1.0 / (2.0 * kernel.bandwidth * kernel.bandwidth)
    sq = np.einsum("bij,bij->bi", stack, stack)
    block = min(_BLOCK, n)
    right_buffer = np.empty(b * (w + 2) * block)
    sums = np.zeros((b,) + weights.shape)
    buffers = _tile_buffers(b * block * block)
    for i0 in range(0, n, _BLOCK):
        i1 = i0 + _BLOCK
        left = _augment(stack[:, i0:i1], sq[:, i0:i1], left=True)
        for j0 in range(i0, n, _BLOCK):
            j1 = min(j0 + _BLOCK, n)
            right = right_buffer[: b * (w + 2) * (j1 - j0)].reshape(b, w + 2, j1 - j0)
            _augment(stack[:, j0:j1], sq[:, j0:j1], left=False, out=right.swapaxes(-1, -2))
            tile = _log_kernel_tile(left, right, inv_two_h2, buffers)
            np.exp(tile, out=tile)
            sums[:, j0:j1] += (weights[i0:i1].T @ tile).swapaxes(1, -1)
            if j0 != i0:
                sums[:, i0:i1] += tile @ weights[j0:j1]
    return sums


# A kernel sum at or above this floor (delta H up to about 644.7 nats) needs
# no shift: a kernel that underflows to 0 (below about 5e-324) would add less
# than 1e-43 of it.  A self pass's sums below the floor are recomputed by a
# Coverage, which max-shifts each query's sum until it reaches the floor.
_SUM_FLOOR = 1e-280


class Coverage:
    """Kernel sums of fixed query rows against a growing reference set.

    Each query keeps a running max of its log kernels and the sum of
    exp(log kernel - max).  :meth:`extend` folds in any block of
    references, and :meth:`delta_entropy` reads ``-(max + log sum)`` =
    ``-log sum_j K_h(q_i, X_j)`` over every reference added so far, so a
    selection that grows by chunks costs each (query, reference) pair
    once.

    Each tile is a reference tile of up to 256 rows against a query slab
    of ``65536 // rows`` columns, reduced over the references (axis 0):
    a thin block of a few references makes a few wide tiles.  After each
    256-row block, a query whose sum has reached ``_SUM_FLOOR`` is settled
    (:meth:`_settle`): its max is exactly 0 and its sum the true sum, and
    as every log kernel is <= 0 it stays so.  A slab of settled queries
    adds each tile's exp straight, as a self pass does; a slab that holds
    any other query shifts the tile by the running max before its exp,
    which leaves a settled column's bits as they are, so a tile that
    overflows for a query adds exactly 0 to its sum and a far query,
    never settled, is summed max-shifted throughout.  A query's bits thus
    do not depend on whether its slab-mates are settled, but can depend on
    how many queries share its slab (the GEMM's column count), so the
    delta entropies of a subset of the queries are not a bitwise slice of
    those of the whole.  The queries are
    kept in their right form (:func:`_augment`) as one column-major
    (width + 2) x n array, written in place, so a query slab is a
    row-major (width + 2) x slab operand of the GEMM.  Each 256-row
    reference block is put in its left form once per :meth:`extend`.
    """

    def __init__(self, queries, kernel: KernelParams = KernelParams()):
        rows = _as_rows(queries)
        n = rows.shape[0]
        self._bandwidth = kernel.bandwidth
        self._inv_two_h2 = 1.0 / (2.0 * kernel.bandwidth * kernel.bandwidth)
        self._queries = np.empty((rows.shape[1] + 2, n))
        _augment(rows, np.einsum("ij,ij->i", rows, rows), left=False, out=self._queries.T)
        # the lowest finite float, so run_max - new_max is never -inf - -inf
        self._max = np.full(n, -np.finfo(float).max)
        self._sum = np.zeros(n)
        self._buffers = _tile_buffers(min(_TILE, max(n, 1) * _BLOCK))
        self._own = None  # log kernels among the queries, for _fold_queries
        self.n_references = 0

    @property
    def n_queries(self) -> int:
        return self._queries.shape[1]

    def _part(self, columns) -> "Coverage":
        """A Coverage of the queries at ``columns`` (an index array or a
        slice), holding their kernel sums so far; the two then grow apart.

        It shares the scratch buffers, and for a slice the query store.
        """
        part = copy.copy(self)
        part._queries = self._queries[:, columns]
        part._own = None
        part._max = self._max[columns].copy()
        part._sum = self._sum[columns].copy()
        return part

    def extend(self, refs) -> None:
        """Add a block of reference rows to every query's kernel sum."""
        refs = _as_rows(refs)
        if self._queries.shape[0] - 2 != refs.shape[1]:
            raise InputError(
                f"query width {self._queries.shape[0] - 2} != reference width {refs.shape[1]}"
            )
        self._fold(refs)
        self.n_references += refs.shape[0]

    @np.errstate(over="ignore", invalid="ignore")
    def _fold(self, refs: np.ndarray) -> None:
        """:meth:`extend` by a (rows, width) array, with no checks and no count."""
        queries = self._queries
        ref_sq = np.einsum("ij,ij->i", refs, refs)
        for r0 in range(0, refs.shape[0], _BLOCK):
            left = _augment(refs[r0 : r0 + _BLOCK], ref_sq[r0 : r0 + _BLOCK], left=True)
            slab = _TILE // len(left)
            for q0 in range(0, queries.shape[1], slab):
                q1 = q0 + slab
                tile = _log_kernel_tile(left, queries[:, q0:q1], self._inv_two_h2, self._buffers)
                self._add(tile, slice(q0, q1))
            self._settle()

    @np.errstate(divide="ignore", invalid="ignore")
    def _settle(self) -> None:
        """Unshift each unsettled query whose kernel sum has reached ``_SUM_FLOOR``.

        Its sum becomes the true sum, ``sum * exp(max)``, and its max exactly
        0, which marks it settled: every later log kernel is <= 0, so its
        max stays 0 and its shift is a no-op.  A NaN or zero sum never
        settles.
        """
        unsettled = np.flatnonzero(self._max)
        log_sum = self._max[unsettled] + np.log(self._sum[unsettled])
        done = unsettled[log_sum >= math.log(_SUM_FLOOR)]
        self._sum[done] *= np.exp(self._max[done])
        self._max[done] = 0.0

    @np.errstate(over="ignore")
    def _fold_queries(self, start: int, stop: int) -> None:
        """:meth:`_fold` by this Coverage's own queries ``start:stop``.

        Their log kernels are rows of one tile of every query against every
        query, made at the first call and kept, so at most 256 queries; the
        tile depends on the queries only, so folds in between leave it valid.
        """
        if self._own is None:
            queries = self._queries
            left = _augment(queries[:-2].T, queries[-1], left=True)
            self._own = _log_kernel_tile(left, queries, self._inv_two_h2, self._buffers).copy()
        self._add(self._own[start:stop].copy())

    @np.errstate(over="ignore", invalid="ignore")
    def _add(self, tile: np.ndarray, columns=slice(None)) -> None:
        """Fold one tile of log kernels, (up to 256 references, the queries at
        ``columns``), into the running max and sum; the tile is overwritten.

        When every query at ``columns`` is settled (max exactly 0) the tile's
        exp is added straight; the shifted sum would give the same bits,
        ``tile - 0`` and ``sum * exp(0)``, at the cost of a column max, a
        subtract and a rescale.
        """
        run_max = self._max[columns]
        if not run_max.any():
            self._sum[columns] += _ONES[: len(tile)] @ np.exp(tile, out=tile)
            return
        new_max = np.maximum(run_max, tile.max(axis=0))
        tile -= new_max
        self._sum[columns] = (
            self._sum[columns] * np.exp(run_max - new_max)
            + _ONES[: len(tile)] @ np.exp(tile, out=tile)
        )
        run_max[...] = new_max

    # A query whose log kernel overflows to -inf against every reference has
    # a kernel sum of 0 and an infinite delta entropy; that is an
    # InputError, not a warning.
    @np.errstate(divide="ignore", invalid="ignore")
    def delta_entropy(self) -> np.ndarray:
        """-log sum_j K_h(q_i, X_j) of each query over the references so far."""
        if self.n_references == 0:
            raise InputError("reference set is empty")
        out = -(self._max + np.log(self._sum))
        if not np.isfinite(out).all():
            raise InputError(
                f"bandwidth {self._bandwidth}: the log kernel overflows against every reference"
            )
        return out


def delta_entropy(queries, refs, kernel: KernelParams = KernelParams()) -> np.ndarray:
    """Differential entropy of each query against a reference set.

    ``delta_entropy[i] = -log sum_j K_h(q_i, X_j)``.  Non-positive values
    mean the query sits inside the reference distribution (some reference
    within roughly one bandwidth); large positive values measure novelty
    and grow quadratically with distance.
    """
    coverage = Coverage(queries, kernel)
    coverage.extend(refs)
    return coverage.delta_entropy()


def _subset_delta_entropies(rows: np.ndarray, subsets, kernel: KernelParams) -> list:
    """``delta_entropy(rows, rows[s])`` for each row-index array s in ``subsets``.

    Every subset is a column of 0/1 weights on the rows, and one self pass
    (:func:`_self_kernel_sums`) sums every column at once, so c subsets
    cost the n^2 / 2 pairs of the set instead of c cross passes.  A row
    whose sum falls below ``_SUM_FLOOR`` is recomputed exactly by
    :func:`delta_entropy` against that subset, which keeps its guarantees:
    a lone far reference gives d^2 / (2 h^2), and a row whose log kernel
    overflows against every reference raises ``InputError``.
    """
    if not subsets:
        return []
    weights = np.zeros((rows.shape[0], len(subsets)))
    for col, subset in enumerate(subsets):
        weights[subset, col] = 1.0
    (sums,) = _self_kernel_sums(rows[None], kernel, weights)
    out = []
    for col, subset in enumerate(subsets):
        dh = -np.log(np.maximum(sums[:, col], _SUM_FLOOR))
        far = ~(sums[:, col] >= _SUM_FLOOR)  # NaN sums too
        if far.any():
            dh[far] = delta_entropy(rows[far], rows[subset], kernel)
        out.append(dh)
    return out


def contained_fraction(dh) -> float:
    """Fraction of delta entropies <= 0: environments inside the references.

    The boundary ``dh == 0`` counts as inside, so a set is always fully
    contained in itself.  An empty vector has no fraction: InputError.
    """
    dh = np.asarray(dh)
    if not dh.size:
        raise InputError("no delta entropies given")
    return float(np.count_nonzero(dh <= 0.0) / dh.shape[0])


def _entropy_nats(dh: np.ndarray):
    """``mean(dh) + log n`` of a self-pass vector, or of each row of a stack, clipped at 0.

    Every row matches itself, so a negative value is roundoff.
    """
    return np.maximum(np.mean(dh, axis=-1) + np.log(dh.shape[-1]), 0.0)


def entropy(descs, kernel: KernelParams = KernelParams()) -> EntropyResult:
    """Entropy, diversity and efficiency of a set from one self kernel pass.

    The entropy is ``mean_i(dH_i) + log n``, the mean per-point
    differential entropy against the set itself plus ``log n``, bounded
    by ``0 <= H <= log n``: a degenerate set of identical rows gives 0,
    all-far-apart rows give ``log n``.  The diversity is
    ``log sum_i exp(dH_i)``, the effective log-count of distinct
    environments, which weighs rare environments more than the entropy
    does and spans the same range.  The efficiency is ``H / log n``.
    """
    rows = _as_rows(descs)
    (sums,) = _self_kernel_sums(rows[None], kernel, np.ones(rows.shape[0]))
    return EntropyResult.of(-np.log(sums))


def diversity(descs, kernel: KernelParams = KernelParams()) -> float:
    """``entropy(descs, kernel).diversity_nats``."""
    return entropy(descs, kernel).diversity_nats


def overlap(queries, refs, kernel: KernelParams = KernelParams()) -> float:
    """Fraction of query environments contained in the reference set."""
    return contained_fraction(delta_entropy(queries, refs, kernel))


def efficiency(descs, kernel: KernelParams = KernelParams()) -> float:
    """Entropy divided by its ceiling ``log n``; 1 means no redundancy."""
    value = entropy(descs, kernel).efficiency
    if value is None:
        raise InputError("efficiency needs at least two environments")
    return value


def per_structure_entropy(descs, kernel: KernelParams = KernelParams()) -> np.ndarray:
    """Entropy of each structure's own environments, taken in isolation.

    Structures are stacked by row count, up to 256 rows a stack (a larger
    structure is a stack of one), and each stack makes one self pass
    (:func:`_self_kernel_sums`), with the bits of a separate pass per
    structure.
    """
    out = np.empty(descs.n_structures)
    for index, stack in descs._stacks(_BLOCK):
        sums = _self_kernel_sums(stack, kernel, np.ones(stack.shape[1]))
        out[index] = _entropy_nats(-np.log(sums))
    return out
