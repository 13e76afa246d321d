"""Kernel-density information measures over descriptor rows.

All quantities are in nats and reduce to a Gaussian kernel sum

    K_h(x, y) = exp(-|x - y|^2 / (2 h^2))

evaluated in the log domain, over tiles of fixed shapes visited in a
fixed order, so results are deterministic for a given input and BLAS (a
multi-threaded BLAS may move the last bits).  A self pass over more than
256 rows with a weight of 1 on each (:func:`entropy`) gives every row's
delta H the same bits whatever the order of the rows; every other figure
can move in its last bits with the order of its rows.  Every pass reads
rows from a store: their right form ``[y; 1; |y|^2]`` as one C-contiguous
(w + 2) x n array (:func:`_fill_store`).  A DescriptorSet holds its rows
that way and is read in place; plain rows get a store of their own, with
the same bits.  Each tile (:func:`_log_kernel_tile`) makes one GEMM of
the left form of its rows (:func:`_left_form`) and a slice of a store,
which yields the squared distances directly; a pair with
d^2 <= 1e-12 (|x|^2 + |y|^2), a coincident pair's GEMM residue, snaps to
exactly 0, so the diagonal of a self pass is 0 and every member of a
reference set gets delta H <= 0.

A self pass (a set against itself, or each set of a stack,
:func:`_self_kernel_sums`) computes each pair once on 256 x 256 tiles:
every log kernel is <= 0 and the diagonal is exactly 0, so it sums the
kernels with no shift.  It sums them against weights on the rows: one
0/1 column per subset for :func:`_subset_delta_entropies`, which thus
gets every subset's delta_entropy(set | subset) from one pass, and of
which :func:`entropy` is the one-subset case of the whole set; or a
column of ones, shared by a stack, for :func:`per_structure_entropy`.
:func:`per_structure_entropy` stacks structures by row count, and every
set of a stack gets the bits of a pass by itself.

A pass over one set of more than one 256-row block whose weights are all
1 (:func:`entropy`, and a structure of more than 256 rows in
:func:`per_structure_entropy`) visits the rows in a canonical order: by
entry sum s over sqrt(w), ties broken by the rows' entries.  As
|x - y| >= |s_x - s_y| / sqrt(w) (Cauchy-Schwarz), a tile whose blocks'
keys lie far enough apart has every kernel below epsilon / n, with
epsilon = ``_EPSILON`` = 1e-13, and is skipped: each such sum holds its
own exp(0) = 1, so it moves by less than epsilon relative, and each
delta H by less than epsilon.  Subset columns keep the rows' order and
skip nothing: a row outside a subset has no lower bound on its sum, so a
skipped tile could hold all of it.

A cross pass is a :class:`Coverage` of the query rows: it keeps its
queries' store and a running max-shifted log-sum-exp per query, and can
be extended by any number of reference blocks, so a growing reference
set costs each (query, reference) pair once; it keeps the rows' order
and skips nothing.  A query whose kernel sum reaches ``_SUM_FLOOR`` is
settled, unshifted, and from then on summed as a self pass sums.  It
never underflows to ``log(0)`` for far-away queries, which keep the
shift: a lone reference at distance d gives back exactly
``d^2 / (2 h^2)``, a lone near reference among far ones the bits of a
Coverage of it alone, whichever block it arrives in, and a query whose
log kernel overflows against every reference raises InputError.
:func:`_subset_delta_entropies` hands the rows whose weighted sums
underflow to a Coverage.
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
# pressure or input size.  At 256 x 256 the one tile buffer of a pass
# (0.5 MiB) stays in a 4 MiB L2 cache.
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


# Rows per chunk when a store is finished: the chunk buffer of 256 rows of
# width 63 is 126 kB, small beside the store it is read back from.
_STORE_CHUNK = 256
# A store's squared norms are below a quarter of the largest float, so no
# partial sum of a tile's GEMM, |x|^2 + |y|^2 - 2 x.y, overflows.
_MAX_NORM = np.finfo(float).max / 4


def _fill_store(store: np.ndarray) -> None:
    """Finish a store whose first w rows hold the rows, transposed.

    A store holds (n, w) rows in their right form ``[y; 1; |y|^2]`` as one
    C-contiguous (w + 2, n) array: the rows transposed, a row of ones and
    the squared norms.  The rows are copied back a C-contiguous chunk at a
    time into one reused buffer, checked finite (a NaN or infinite row is
    an InputError) and each norm taken as an ``einsum`` over its
    C-contiguous row, so a store's bits do not depend on how its first w
    rows were written.  A squared norm of ``_MAX_NORM`` or more, which a
    kernel tile could overflow on, is an InputError naming its row.
    """
    w, n = store.shape[0] - 2, store.shape[1]
    buffer = np.empty((min(_STORE_CHUNK, n), w))
    for c0 in range(0, n, _STORE_CHUNK):
        c1 = min(c0 + _STORE_CHUNK, n)
        rows = buffer[: c1 - c0]
        rows[...] = store[:w, c0:c1].T
        if not np.isfinite(rows).all():
            raise InputError("rows must be finite")
        store[w, c0:c1] = 1.0
        norms = np.einsum("ij,ij->i", rows, rows, out=store[w + 1, c0:c1])
        if (over := np.flatnonzero(norms >= _MAX_NORM)).size:
            raise InputError(f"row {c0 + over[0]}: squared norm {norms[over[0]]:.4g} overflows "
                             f"the kernel, which takes squared norms below {_MAX_NORM:.4g}")


def _right_store(rows: np.ndarray) -> np.ndarray:
    """The store (:func:`_fill_store`) of (n, w) rows."""
    n, w = rows.shape
    store = np.empty((w + 2, n))
    store[:w] = rows.T
    _fill_store(store)
    return store


def _store_of(x) -> np.ndarray:
    """The store of a DescriptorSet, read in place, or a new one of plain rows.

    Plain rows are an (n, width) array; any other number of dimensions, or
    a NaN or infinite row, is an InputError.
    """
    store = getattr(x, "_store", None)
    if store is not None:
        return store
    rows = np.asarray(x, dtype=float)
    if rows.ndim != 2:
        raise InputError(f"expected a 2-D array of rows, got shape {rows.shape}")
    return _right_store(rows)


def _columns(store: np.ndarray, index) -> np.ndarray:
    """The rows at ``index`` (any shape) of a store, as a new C-contiguous
    (w + 2,) + ``index.shape`` array."""
    return np.take(store, index, axis=1)


def _left_form(right: np.ndarray, out=None) -> np.ndarray:
    """The left form ``[-2x, |x|^2, 1]`` of the rows of a right-form block.

    ``right`` is a (w + 2, m) slice of a store, or a (B, w + 2, m) stack of
    them; the left form is a row-major (m, w + 2) or (B, m, w + 2) array,
    new or the leading part of the flat buffer ``out``.  The product of a
    left block and a right block is ``|x|^2 + |y|^2 - 2 x.y``, the squared
    distances, from one GEMM; the norm rows also serve the coincidence
    snap.
    """
    w = right.shape[-2] - 2
    shape = right.shape[:-2] + (right.shape[-1], w + 2)
    left = np.empty(shape) if out is None else out[: math.prod(shape)].reshape(shape)
    np.multiply(right[..., :w, :].swapaxes(-1, -2), -2.0, out=left[..., :w])  # exact
    left[..., w] = right[..., w + 1, :]
    left[..., w + 1] = 1.0
    return left


def _log_kernel_tile(left, right, inv_two_h2, out) -> np.ndarray:
    """Write log K_h(x_i, y_j) of one tile into a view of ``out``.

    ``left`` is the left form (:func:`_left_form`) of the tile's rows,
    (m, w + 2), and ``right`` a (w + 2, n) slice of a store, read in place;
    a stack of B tiles passes (B, m, w + 2) and (B, w + 2, n) and makes one
    stacked GEMM, and any tile decides from its least entry whether to
    snap.  ``out`` is a pass's one float buffer, sized for its largest
    tile: a pass allocates it once, so it allocates O(n) memory on top of
    it whatever its size.  Returns the (m, n) or (B, m, n) view that holds
    the tile; it is valid until the next call with the same ``out``.
    """
    shape = left.shape[:-1] + right.shape[-1:]
    d2 = out[: math.prod(shape)]
    # The view is contiguous, so matmul(out=) still goes through BLAS and
    # gives the same bits as a fresh product.
    tile = d2.reshape(shape)
    np.matmul(left, right, out=tile)
    # The GEMM leaves O(w * eps * |x|^2) residue on coincident rows; snap
    # every pair with d2 <= 1e-12 (|x|^2 + |y|^2) to exactly zero, so
    # every log kernel is <= 0 and a member of the reference set always gets
    # kernel sum >= 1 (delta entropy <= 0).  One scalar per tile, at least
    # every pair's threshold, screens the few candidates first.  A tile
    # whose least entry is above every screen holds none and skips the
    # snap, which would change nothing in it.
    x_sq, y_sq = left[..., -2], right[..., -1, :]
    screen = 1e-12 * (x_sq.max(axis=-1) + y_sq.max(axis=-1))
    if not tile.min() > screen.max():
        near = np.flatnonzero(tile <= screen[..., None, None])
        m, n = shape[-2:]
        row, column = np.divmod(near, n)  # row = b m + i over the B stacked blocks
        pair_sq = x_sq.reshape(-1)[row] + y_sq.reshape(-1)[row // m * n + column]
        d2[near[d2[near] <= pair_sq * 1e-12]] = 0.0
    d2 *= -inv_two_h2  # now the log kernel
    return tile


# A Coverage tile's column sums are GEMVs against a slice of this vector.
_ONES = np.ones(_BLOCK)


# A self pass in canonical order skips a tile whose every kernel is provably
# below epsilon / n: each row's sum holds its own exp(0) = 1 and gains fewer
# than n kernels, so the skipped ones move it by less than epsilon relative.
_EPSILON = 1e-13
# Blocks of a canonical pass over a read-only store gathered at once.
_GROUP = 4


def _canonical_order(store: np.ndarray):
    """(order, keys, first) of the rows of a (w + 2, n) store.

    Each row's key is its entry sum over sqrt(w), its entries added in
    order down the store's rows, so every store of the same rows gives it
    the same bits.  ``order`` sorts the rows by key, ties broken by their
    entries, so it depends on the multiset of rows only, whatever their
    input order; ``keys`` are the sorted keys.  Rows that stay tied are
    identical, and ``first`` maps each canonical position to the first of
    its run of identical rows.
    """
    w = store.shape[0] - 2
    keys = store[:w].sum(axis=0) / math.sqrt(max(w, 1))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.arange(len(keys))
    tied = np.flatnonzero(keys[1:] == keys[:-1])
    if tied.size:
        tied = np.union1d(tied, tied + 1)
        rows = store[:w, order[tied]]
        by_entries = np.lexsort(np.vstack([rows[::-1], keys[tied]]))
        order[tied] = order[tied][by_entries]
        rows = rows[:, by_entries]
        first[tied[1:][(rows[:, 1:] == rows[:, :-1]).all(axis=0)]] = 0
        first = np.maximum.accumulate(first)
    return order, keys, first


def _near_blocks(store: np.ndarray, keys: np.ndarray, bandwidth: float) -> np.ndarray:
    """For each 256-row block I of a store in canonical order, the first
    block J past every tile (I, J) that the pass must compute.

    By Cauchy-Schwarz |x - y| >= |s_x - s_y| / sqrt(w), so a tile whose key
    gap (the least key of J less the largest of I) exceeds margin + h
    sqrt(2T), T = log(n / epsilon), has every (gap - margin)^2 / (2 h^2) > T:
    every kernel below epsilon / n.  Keys are sorted, so the gap grows with
    J.  The margin covers the GEMM's residue on d^2, at most
    1e-12 (|x|^2 + |y|^2) as the snap takes it, and the rounding of the
    keys and of the bound, each well below (w + 2) eps |x|.  Nothing here
    squares the gap, so no bandwidth overflows it.
    """
    w, n = store.shape[0] - 2, store.shape[1]
    norm = math.sqrt(float(store[w + 1].max()))
    margin = norm * (math.sqrt(2e-12) + 4 * (w + 2) * np.finfo(float).eps)
    reach = margin + bandwidth * math.sqrt(2.0 * math.log(n / _EPSILON))
    last = keys[np.minimum(np.arange(_BLOCK, n + _BLOCK, _BLOCK), n) - 1]
    return np.searchsorted(keys[::_BLOCK], last + reach, side="right")


def _reorder(store: np.ndarray, index: np.ndarray) -> None:
    """Put the columns of a store in ``index`` order, in place, a row at a time."""
    for row in store:
        row[...] = row[index]


def _self_kernel_sums(store, kernel: KernelParams, weights) -> np.ndarray:
    """sum_j K_h(x_i, x_j) w_j over a set, each pair once.

    ``store`` is the set's store (:func:`_fill_store`), (w + 2, n), or a
    (B, w + 2, n) stack of the stores of B sets of n rows; ``weights`` is
    (n, c), shared by the B sets; the sums are (n, c) or (B, n, c), in the
    store's row order.  The tiles are those of :func:`_tile_sums`.

    A pass over one set of more than one 256-row block whose weights are
    all 1 (``entropy``, and ``per_structure_entropy``'s stacks of one)
    visits the rows in canonical order (:func:`_canonical_order`), skips
    each tile whose every kernel is provably below epsilon / n
    (:func:`_near_blocks`), and scatters the sums back: each sum, at least
    its own exp(0) = 1, moves by less than ``_EPSILON`` relative, and its
    bits do not depend on the order of the rows; identical rows get the
    sum of the first of them.  A store it may write, one made for the pass
    (plain rows' or a stack's), is reordered in place and back; a
    DescriptorSet's read-only store is gathered a group of blocks at a
    time.  Every other pass keeps the store's order and skips nothing: a
    stack of several sets has no one order, and a row outside a 0/1 subset
    has no lower bound on its sum, so a skipped tile could hold all of it.
    """
    n = store.shape[-1]
    if n == 0:
        raise InputError("reference set is empty")
    if n <= _BLOCK or math.prod(store.shape[:-2]) > 1 or not (weights == 1.0).all():
        return _tile_sums(store, kernel, weights)
    shape, store = store.shape, store.reshape(store.shape[-2:])
    order, keys, first = _canonical_order(store)
    stop = _near_blocks(store, keys, kernel.bandwidth)
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    if store.flags.writeable:
        _reorder(store, order)
        try:
            sums = _tile_sums(store, kernel, weights, stop)
        finally:
            _reorder(store, inverse)
    else:
        sums = _tile_sums(store, kernel, weights, stop, order)
    return sums[first[inverse]].reshape(shape[:-2] + weights.shape)


# At tiny bandwidths the log kernel of a far pair overflows to -inf, whose
# exp is an exact 0.
@np.errstate(over="ignore")
def _tile_sums(store, kernel: KernelParams, weights, stop=None, gather=None) -> np.ndarray:
    """The tiles of a self pass, summed against ``weights``.

    Tiles (I, J) of 256-row blocks, I <= J < ``stop[I]`` (every J when
    ``stop`` is None), are visited a group of blocks against a group at a
    time, from the left form of block I and the right form of block J.
    The rows are the store's, a block to a group, or its columns at
    ``gather`` (canonical order), gathered 4 blocks to a group so that each
    gather serves the tiles of 4 blocks.  Every row's sum gains its tiles
    in ascending partner block whatever the group size, so the sums have
    the bits of a plain (I, J) loop.  Working memory is the pass's one
    tile buffer, sized for its largest tile (:func:`_log_kernel_tile`),
    one buffer for the left form of a group and, with ``gather``, a
    gathered group or two.  Each tile is one GEMM, stacked over the B
    sets, which numpy runs as one BLAS call per set with that set's own
    operands, so every set gets the bits of a pass by itself.  Each tile
    adds W[I]^T tile to the J rows, and an off-diagonal tile also adds
    tile W[J] to the I rows: GEMVs for one weight column, GEMMs for
    several.  Every log kernel is <= 0 and the diagonal is exactly 0, so
    the sums need no max shift, and with a weight of 1 on every row each
    sum holds its own exp(0) = 1.  Column sums of a column of ones are
    taken as in :class:`Coverage`, with operands of the same layout, so a
    set of one tile gets the bits of a Coverage of the set by itself.
    """
    n = store.shape[-1]
    inv_two_h2 = 1.0 / (2.0 * kernel.bandwidth * kernel.bandwidth)
    blocks = -(-n // _BLOCK)
    if stop is None:
        stop = np.full(blocks, blocks)
    sets = math.prod(store.shape[:-2])
    buffer = np.empty(sets * min(_BLOCK, n) ** 2)
    per = 1 if gather is None else _GROUP  # blocks per group
    left_buffer = np.empty(sets * min(per * _BLOCK, n) * store.shape[-2])
    sums = np.zeros(store.shape[:-2] + weights.shape)

    def group(g):
        columns = slice(g * _BLOCK, (g + per) * _BLOCK)
        return store[..., columns] if gather is None else np.take(store, gather[columns], axis=1)

    for g in range(0, blocks, per):
        theirs = group(g)
        lefts = _left_form(theirs, left_buffer)
        own = range(g, min(g + per, blocks))
        for h in range(g, stop[own[-1]], per):
            if h > g:
                theirs = group(h)
            for i in own:
                i0, i1 = i * _BLOCK, (i + 1) * _BLOCK
                left = lefts[..., i0 - g * _BLOCK : i1 - g * _BLOCK, :]
                for j in range(max(i, h), min(h + per, stop[i])):
                    j0, j1 = j * _BLOCK, (j + 1) * _BLOCK
                    right = theirs[..., j0 - h * _BLOCK : j1 - h * _BLOCK]
                    tile = _log_kernel_tile(left, right, inv_two_h2, buffer)
                    np.exp(tile, out=tile)
                    sums[..., j0:j1, :] += (weights[i0:i1].T @ tile).swapaxes(-1, -2)
                    if j != i:
                        sums[..., i0:i1, :] += tile @ weights[j0:j1]
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
    those of the whole.  The queries are kept as a store
    (:func:`_fill_store`): a DescriptorSet's own, read in place with no
    copy, or one filled from plain rows, so a query slab is a row-major
    (width + 2) x slab operand of the GEMM.  :meth:`extend` reads the
    references' store the same way, and puts each 256-row reference block
    in its left form once.
    """

    def __init__(self, queries, kernel: KernelParams = KernelParams()):
        self._queries = _store_of(queries)
        n = self.n_queries
        self._bandwidth = kernel.bandwidth
        self._inv_two_h2 = 1.0 / (2.0 * kernel.bandwidth * kernel.bandwidth)
        # the lowest finite float, so run_max - new_max is never -inf - -inf
        self._max = np.full(n, -np.finfo(float).max)
        self._sum = np.zeros(n)
        self._buffer = np.empty(min(_TILE, max(n, 1) * _BLOCK))  # its largest tile
        self._own = None  # log kernels among the queries, for _fold_queries
        self.n_references = 0

    @property
    def n_queries(self) -> int:
        return self._queries.shape[1]

    def _part(self, columns) -> "Coverage":
        """A Coverage of the queries at ``columns`` (an index array or a
        slice), holding their kernel sums so far; the two then grow apart.

        It shares the one tile buffer, and for a slice the query store.
        """
        part = copy.copy(self)
        part._queries = self._queries[:, columns]
        part._own = None
        part._max = self._max[columns].copy()
        part._sum = self._sum[columns].copy()
        return part

    def extend(self, refs) -> None:
        """Add a block of reference rows to every query's kernel sum."""
        refs = _store_of(refs)
        if self._queries.shape[0] != refs.shape[0]:
            raise InputError(
                f"query width {self._queries.shape[0] - 2} != reference width {refs.shape[0] - 2}"
            )
        self._fold(refs)
        self.n_references += refs.shape[1]

    @np.errstate(over="ignore", invalid="ignore")
    def _fold(self, refs: np.ndarray) -> None:
        """:meth:`extend` by a store of references, with no checks and no count."""
        queries = self._queries
        for r0 in range(0, refs.shape[1], _BLOCK):
            left = _left_form(refs[:, r0 : r0 + _BLOCK])
            slab = _TILE // len(left)
            for q0 in range(0, queries.shape[1], slab):
                q1 = q0 + slab
                tile = _log_kernel_tile(left, queries[:, q0:q1], self._inv_two_h2, self._buffer)
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
            own = _log_kernel_tile(_left_form(queries), queries, self._inv_two_h2, self._buffer)
            self._own = own.copy()
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


def _subset_delta_entropies(descs, subsets, kernel: KernelParams) -> list:
    """``delta_entropy(rows, rows[s])`` for each row index s in ``subsets``,
    an index array or a slice.

    ``descs`` is a DescriptorSet or a plain (n, width) array of the rows.
    Every subset is a column of 0/1 weights on the rows, and one self pass
    (:func:`_self_kernel_sums`) sums every column at once, so c subsets
    cost the n^2 / 2 pairs of the set instead of c cross passes; the
    weights and the sums take n x c floats each (about 19 MB together at
    10^5 rows and 12 subsets).  A row whose sum falls below ``_SUM_FLOOR``
    is recomputed exactly by :func:`delta_entropy` against that subset,
    which keeps its guarantees: a lone far reference gives d^2 / (2 h^2),
    and a row whose log kernel overflows against every reference raises
    ``InputError``.
    """
    if not subsets:
        return []
    store = _store_of(descs)
    weights = np.zeros((store.shape[1], len(subsets)))
    for col, subset in enumerate(subsets):
        weights[subset, col] = 1.0
    sums = _self_kernel_sums(store, kernel, weights)
    rows = store[:-2].T
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
    ``dH`` is :func:`_subset_delta_entropies` of the whole set, whose
    kernel sums are each at least 1, so none is recomputed.  Over more than
    256 rows the pass visits the rows in canonical order and skips far
    tiles (:func:`_self_kernel_sums`): each ``dH`` is within 1e-13 of the
    full sum's and has the same bits whatever the order of the rows.
    """
    (dh,) = _subset_delta_entropies(descs, [slice(None)], kernel)
    return EntropyResult.of(dh)


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
    (:func:`_self_kernel_sums`) over a copy of its rows' store, against
    one column of ones, with the bits of a separate pass per structure: a
    structure of more than 256 rows takes the canonical route of
    :func:`entropy` of its rows alone.
    """
    out = np.empty(descs.n_structures)
    for index, rows in descs._stacks(_BLOCK):
        stack = _columns(descs._store, rows).swapaxes(0, 1)  # (B, w + 2, n)
        sums = _self_kernel_sums(stack, kernel, np.ones((rows.shape[1], 1)))
        out[index] = _entropy_nats(-np.log(sums[..., 0]))
    return out
