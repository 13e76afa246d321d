"""Structure-level subsampling: random, k-means, mean-FPS, and greedy cover.

The first three work on per-structure mean descriptors (so a supercell
and its primitive cell look identical to them); the greedy
minimum-set-cover sampler works on the full per-atom rows and picks, at
every step, the structure whose environments are least covered by what
is already selected, balanced against the structure's own entropy.

One method's picks at several counts come from one sweep
(:func:`_sweep`), whose result at each count is that of
:func:`run_sampler` at that count alone; ``run_sampler`` is a sweep of
one.  ``random`` draws once per count.  ``msc`` and ``fps`` are nested
(their first c picks at a larger count are their picks at count c), so
each runs once, at the largest count.  ``kmeans`` is not nested, but its
k-means++ seeding is, so it seeds once, to the largest count, and each
count runs its own Lloyd iterations from its prefix of the centers.
k-means assigns points to centers in row blocks of at most 2^20
distances, so that step's working memory stays about 16 MiB however many
structures there are.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .descriptor import DescriptorSet
from .information import _BLOCK, Coverage, KernelParams, per_structure_entropy
from .errors import InputError

__all__ = [
    "METHODS",
    "SamplerConfig",
    "StepDiagnostics",
    "CompressionResult",
    "sample_random",
    "sample_kmeans",
    "sample_fps",
    "sample_msc",
    "run_sampler",
]

METHODS = ("random", "kmeans", "fps", "msc")


@dataclass(frozen=True)
class SamplerConfig:
    """Which sampler to run and at what size.

    Exactly one of ``count`` and ``fraction`` must be given; a fraction
    maps to ``max(1, round(fraction * n))`` with half rounded away from
    zero.
    """

    method: str
    count: int | None = None
    fraction: float | None = None
    seed: int = 0
    kernel: KernelParams = field(default_factory=KernelParams)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if (self.count is None) == (self.fraction is None):
            raise InputError("exactly one of count and fraction must be set")
        if self.count is not None and self.count < 1:
            raise InputError(f"count must be >= 1, got {self.count}")
        if self.fraction is not None and not 0 < self.fraction <= 1:
            raise InputError(f"fraction must be in (0, 1], got {self.fraction}")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")

    def resolve_count(self, n_structures: int) -> int:
        if self.count is not None:
            if self.count > n_structures:
                raise InputError(
                    f"count {self.count} exceeds dataset size {n_structures}"
                )
            return self.count
        return max(1, int(np.floor(self.fraction * n_structures + 0.5)))


@dataclass(frozen=True)
class StepDiagnostics:
    """One greedy-cover step: who was picked and the score that won."""

    structure_index: int
    score: float
    max_delta_h: float | None
    structure_entropy: float


@dataclass(frozen=True)
class CompressionResult:
    """The picks, in order, and what the sampler learned on the way.

    ``delta_h`` (msc only) maps a count c to the delta entropy of every
    full-set row against the first c picks, read off the greedy's own
    kernel sums; it always holds ``c = len(selected)``.
    """

    selected: tuple[int, ...]
    per_step: tuple[StepDiagnostics, ...] | None = None
    delta_h: dict[int, np.ndarray] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        selected = tuple(int(i) for i in self.selected)
        if len(set(selected)) != len(selected):
            raise InputError("selected indices must be unique")
        object.__setattr__(self, "selected", selected)

    def __len__(self):
        return len(self.selected)


def _check_count(count: int, n: int) -> None:
    if not 1 <= count <= n:
        raise InputError(f"count must be in [1, {n}], got {count}")


def sample_random(n_structures: int, count: int, seed: int = 0) -> CompressionResult:
    """Uniform sample without replacement."""
    _check_count(count, n_structures)
    rng = np.random.default_rng(seed)
    picks = rng.choice(n_structures, size=count, replace=False)
    return CompressionResult(selected=tuple(int(i) for i in picks))


def _structure_means(descs: DescriptorSet) -> np.ndarray:
    """Arithmetic mean descriptor of each structure, shape (n_structures, width).

    Structures are averaged a stack of equal row counts at a time, each
    stack gathered into a C-contiguous (B, n, width) array; numpy adds each
    block's rows in row order, as ``rows.mean(axis=0)`` of C-contiguous
    rows does, so the means have its bits.
    """
    out = np.empty((descs.n_structures, descs.width))
    for index, rows in descs._stacks(_BLOCK):
        out[index] = descs.values[rows].mean(axis=1)
    return out


def _kmeans_pp_init(points: np.ndarray, counts, rng: np.random.Generator):
    """k-means++ seeding to the largest of ``counts``: spread centers by squared distance.

    Seeding is prefix-stable: the first c centers, and the generator state
    left after them, do not depend on how many centers follow.  Returns the
    centers and, for each c in ``counts``, the generator as it stood after
    the c-th center (a copy, except for the largest c).
    """
    n = points.shape[0]
    k = max(counts)
    centers = np.empty((k, points.shape[1]))
    generators = {}
    idx = int(rng.integers(n))
    centers[0] = points[idx]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        if j in counts:
            generators[j] = copy.deepcopy(rng)
        total = float(d2.sum())
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:  # all remaining distances zero (duplicate points)
            idx = int(rng.integers(n))
        centers[j] = points[idx]
        d2 = np.minimum(d2, ((points - centers[j]) ** 2).sum(axis=1))
    generators[k] = rng
    return centers, generators


_ASSIGN_ELEMENTS = 1 << 20  # distances held at once by _assign: 8 MiB a float array


def _assign(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest.

    Points are taken in row blocks of at most ``_ASSIGN_ELEMENTS``
    point-center distances, so the temporaries stay two such blocks
    however many points there are.
    """
    p_sq = np.einsum("ij,ij->i", points, points)
    c_sq = np.einsum("ij,ij->i", centers, centers)
    step = max(1, _ASSIGN_ELEMENTS // len(centers))
    labels = np.empty(len(points), dtype=np.intp)
    for r0 in range(0, len(points), step):
        block = slice(r0, r0 + step)
        cross = points[block] @ centers.T
        cross *= 2.0
        d2 = p_sq[block, None] + c_sq
        d2 -= cross
        labels[block] = np.argmin(d2, axis=1)
    return labels


def _cluster_means(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Mean of each cluster's points; an empty cluster keeps its center.

    One ``np.bincount`` over (label, column) bins adds each cluster's rows
    in row order, as ``points[members].mean(axis=0)`` does, so the means
    have its bits.
    """
    k, width = centers.shape
    bins = labels[:, None] * width + np.arange(width)
    sums = np.bincount(bins.ravel(), weights=points.ravel(), minlength=k * width)
    counts = np.bincount(labels, minlength=k)
    new_centers = centers.copy()
    filled = counts > 0
    new_centers[filled] = sums.reshape(k, width)[filled] / counts[filled, None]
    return new_centers


def _lloyd_picks(points: np.ndarray, centers: np.ndarray, rng: np.random.Generator) -> tuple:
    """Lloyd's iterations from ``centers``, then one ``rng`` member per cluster."""
    count = len(centers)
    labels = _assign(points, centers)
    for _ in range(300):
        new_centers = _cluster_means(points, labels, centers)
        shift = np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max()
        centers = new_centers
        labels = _assign(points, centers)
        if shift < 1e-6:
            break
    counts = np.bincount(labels, minlength=count)
    while np.any(counts == 0):
        empty = int(np.argmin(counts))
        largest = int(np.argmax(counts))
        members = np.flatnonzero(labels == largest)
        far = ((points[members] - centers[largest]) ** 2).sum(axis=1)
        moved = members[int(np.argmax(far))]
        labels[moved] = empty
        centers[empty] = points[moved]
        counts[largest] -= 1
        counts[empty] += 1
    # Cluster c's members, ascending, are order[starts[c]:][:counts[c]].  One
    # integers call with a bound per cluster draws what rng.choice(members)
    # would, cluster by cluster.
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(counts) - counts
    return tuple(order[starts + rng.integers(0, counts)].tolist())


def _kmeans_sweep(descs: DescriptorSet, counts, seed: int) -> list[tuple]:
    """The picks of ``sample_kmeans(descs, c, seed)`` for each c in ``counts``.

    One k-means++ seeding, to the largest count, serves every count: each
    count runs Lloyd's iterations from its prefix of the centers and draws
    its members from its own copy of the generator, so a count named twice
    gets the same picks twice.
    """
    n = descs.n_structures
    for count in counts:
        _check_count(count, n)
    means = _structure_means(descs)
    centers, generators = _kmeans_pp_init(means, set(counts), np.random.default_rng(seed))
    picks = {c: _lloyd_picks(means, centers[:c], rng) for c, rng in generators.items()}
    return [picks[c] for c in counts]


def sample_kmeans(descs: DescriptorSet, count: int, seed: int = 0) -> CompressionResult:
    """Lloyd's k-means over structure means; one random member per cluster.

    Centers are seeded by k-means++.  Lloyd iterations stop once every
    center moves less than 1e-6, or after 300 iterations.  Assignment works
    in row blocks, so memory stays bounded however many structures there
    are.

    Clusters that end up empty are refilled by splitting the largest
    cluster at its member farthest from the cluster center, so exactly
    ``count`` structures come back.

    The seeding is prefix-stable, so ``compare`` seeds once per sweep, to
    its largest count; each count still gets exactly these picks.
    """
    return CompressionResult(selected=_kmeans_sweep(descs, [count], seed)[0])


def sample_fps(descs: DescriptorSet, count: int, seed: int = 0) -> CompressionResult:
    """Farthest-point-style sampling over structure means.

    After a seed-random first pick, each step takes the candidate with
    the largest *sum* of Euclidean distances to everything already
    selected (not the more common max-min rule).  Ties go to the lowest
    index.
    """
    n = descs.n_structures
    _check_count(count, n)
    means = _structure_means(descs)
    rng = np.random.default_rng(seed)
    first = int(rng.integers(n))
    selected = [first]
    taken = np.zeros(n, dtype=bool)
    taken[first] = True
    dist_sum = np.sqrt(((means - means[first]) ** 2).sum(axis=1))
    while len(selected) < count:
        scores = np.where(taken, -np.inf, dist_sum)
        pick = int(np.argmax(scores))
        selected.append(pick)
        taken[pick] = True
        dist_sum = dist_sum + np.sqrt(((means - means[pick]) ** 2).sum(axis=1))
    return CompressionResult(selected=tuple(selected))


#: Most rows of the candidate block that a round of :func:`sample_msc`
#: rescores after each pick (one structure at least, however large).
_CANDIDATE_ROWS = 128


def sample_msc(
    descs: DescriptorSet, count: int, kernel: KernelParams = KernelParams(), prefix_counts=()
) -> CompressionResult:
    """Greedy minimum-set-cover selection over per-atom environments.

    Starts from the structure with the highest own entropy, then
    repeatedly adds the structure maximizing

        max over its environments of delta_entropy(env | selected)
        + entropy(structure)

    i.e. the one contributing the least-covered environment, with the
    structure's own diversity as the tie-straightener.  Deterministic:
    no randomness, argmax ties break to the lowest structure index.

    The picks come in lazy rounds (Minoux's accelerated greedy).  A round
    scores every structure from one :class:`Coverage` of every row and
    takes the best.  The next untaken structures in score order, up to
    ``_CANDIDATE_ROWS`` rows (one structure at least), are its candidates,
    with a copy of their rows' running max and sum; the best score outside
    them is the bound.  Each pick's log kernels against the candidate rows
    are folded into the copy (a candidate's are rows of one tile of the
    candidates against themselves, made once a round), and the best
    candidate is taken while its score is strictly above the bound.
    Scores only fall as picks are added, so these are the picks of
    rescoring every structure after every pick.  Then the round's picks
    extend the Coverage of every row as one block, whose fat tiles cost
    less per pair than one thin block per pick.
    The kernel sums are added in another order than a pick at a time,
    which moves the last bits of the scores and of ``delta_h``.

    The result's ``delta_h`` holds delta_entropy(full | kept) read off that
    Coverage at no further kernel cost, at ``count`` and at each of
    ``prefix_counts`` (counts in 1..``count``); a count inside a round
    reads a copy extended by that round's picks so far.  Rounds do not
    depend on ``count``, so ``sample_msc(descs, c)`` gives the first c
    picks and the ``delta_h[c]`` of any longer run, bit for bit.
    """
    n = descs.n_structures
    _check_count(count, n)
    readings = {int(c) for c in prefix_counts}
    outside = sorted(c for c in readings if not 1 <= c <= count)
    if outside:
        raise InputError(f"prefix count {outside[0]} is outside [1, {count}]")
    readings.add(count)
    own_entropy = per_structure_entropy(descs, kernel)
    starts, sizes = descs.offsets[:, 0], descs.offsets[:, 1]
    taken = np.zeros(n, dtype=bool)
    selected, steps = [], []

    def take(index, score, max_delta_h):
        selected.append(int(index))
        taken[index] = True
        steps.append(
            StepDiagnostics(
                structure_index=int(index),
                score=float(score),
                max_delta_h=None if max_delta_h is None else float(max_delta_h),
                structure_entropy=float(own_entropy[index]),
            )
        )

    def extended(coverage, picks):
        coverage.extend(descs.subset(picks))
        return coverage

    first = int(np.argmax(own_entropy))
    take(first, own_entropy[first], None)
    coverage = Coverage(descs, kernel)
    delta_h = {}
    done = 0  # picks already in the coverage
    while True:
        extended(coverage, selected[done:])
        done = len(selected)
        env_dh = coverage.delta_entropy()
        if done in readings:
            delta_h[done] = env_dh
        if done == count:
            break
        per_structure_max = np.maximum.reduceat(env_dh, starts)
        scores = per_structure_max + own_entropy
        scores[taken] = -np.inf
        order = np.argsort(-scores, kind="stable")[: n - done]
        take(order[0], scores[order[0]], per_structure_max[order[0]])
        rest = order[1:]
        if not rest.size or len(selected) == count:
            continue
        fit = max(1, int(np.searchsorted(np.cumsum(sizes[rest]), _CANDIDATE_ROWS, "right")))
        block = np.sort(rest[:fit])  # ascending, so argmax ties go to the lowest index
        bound = scores[rest[fit]] if fit < rest.size else -np.inf
        rows, offsets = descs._subset_rows(block)
        candidates = coverage._part(rows)
        pick = selected[-1]
        candidates._fold(descs._store[:, starts[pick] : starts[pick] + sizes[pick]])
        block_entropy = own_entropy[block]
        while True:
            block_max = np.maximum.reduceat(candidates.delta_entropy(), offsets[:, 0])
            block_scores = block_max + block_entropy
            block_scores[taken[block]] = -np.inf
            best = int(np.argmax(block_scores))
            if not block_scores[best] > bound:
                break
            if len(selected) in readings:
                reading = extended(coverage._part(slice(None)), selected[done:])
                delta_h[len(selected)] = reading.delta_entropy()
            take(block[best], block_scores[best], block_max[best])
            if len(selected) == count or taken[block].all():
                break
            start, length = offsets[best]  # two candidates or more: at most 128 rows
            candidates._fold_queries(start, start + length)
    return CompressionResult(selected=tuple(selected), per_step=tuple(steps), delta_h=delta_h)


def _sweep(descs: DescriptorSet, configs) -> list[CompressionResult]:
    """The result of ``run_sampler(config, descs)`` for each config, from one run.

    ``configs`` are one method's, sharing one seed and kernel, in ascending
    count.  ``random`` draws once per count.  ``fps`` and ``msc`` are nested,
    so each runs once, at the largest count, and every count takes its
    prefix of the picks (and for ``msc`` of the steps, with ``delta_h`` at
    that count).  ``kmeans`` seeds once, to the largest count
    (:func:`_kmeans_sweep`).
    """
    method, seed, kernel = configs[0].method, configs[0].seed, configs[0].kernel
    counts = [config.resolve_count(descs.n_structures) for config in configs]
    if method == "random":
        return [sample_random(descs.n_structures, c, seed) for c in counts]
    if method == "kmeans":
        return [CompressionResult(selected=s) for s in _kmeans_sweep(descs, counts, seed)]
    if method == "fps":
        run = sample_fps(descs, counts[-1], seed)
        return [CompressionResult(selected=run.selected[:c]) for c in counts]
    run = sample_msc(descs, counts[-1], kernel, prefix_counts=counts)
    return [CompressionResult(run.selected[:c], run.per_step[:c], {c: run.delta_h[c]})
            for c in counts]


def run_sampler(config: SamplerConfig, descs: DescriptorSet) -> CompressionResult:
    """Run ``config.method`` at the resolved target count: a sweep of one (:func:`_sweep`)."""
    return _sweep(descs, [config])[0]
