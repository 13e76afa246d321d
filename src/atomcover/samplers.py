"""Structure-level subsampling: random, k-means, mean-FPS, and greedy cover.

The first three work on per-structure mean descriptors (so a supercell
and its primitive cell look identical to them); the greedy
minimum-set-cover sampler works on the full per-atom rows and picks, at
every step, the structure whose environments are least covered by what
is already selected, balanced against the structure's own entropy.
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

    Structures are averaged a stack of equal row counts at a time; numpy
    adds each block's rows in row order, as ``rows.mean(axis=0)`` does, so
    the means have its bits.
    """
    out = np.empty((descs.n_structures, descs.width))
    for index, stack in descs._stacks(_BLOCK):
        out[index] = stack.mean(axis=1)
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

    One :class:`Coverage` of every row grows by each pick, the last one
    included, so the result's ``delta_h`` holds delta_entropy(full |
    kept) at no further kernel cost, and also at each of
    ``prefix_counts`` (counts up to ``count``).
    """
    n = descs.n_structures
    _check_count(count, n)
    own_entropy = per_structure_entropy(descs, kernel)

    first = int(np.argmax(own_entropy))
    selected = [first]
    steps = [
        StepDiagnostics(
            structure_index=first,
            score=float(own_entropy[first]),
            max_delta_h=None,
            structure_entropy=float(own_entropy[first]),
        )
    ]
    taken = np.zeros(n, dtype=bool)
    taken[first] = True
    starts = descs.offsets[:, 0]
    readings = {int(c) for c in prefix_counts} | {count}
    delta_h = {}

    coverage = Coverage(descs.values, kernel)
    coverage.extend(descs.rows_for(first))
    while True:
        env_dh = coverage.delta_entropy()
        if len(selected) in readings:
            delta_h[len(selected)] = env_dh
        if len(selected) == count:
            break
        per_structure_max = np.maximum.reduceat(env_dh, starts)
        scores = per_structure_max + own_entropy
        scores[taken] = -np.inf
        pick = int(np.argmax(scores))
        selected.append(pick)
        taken[pick] = True
        steps.append(
            StepDiagnostics(
                structure_index=pick,
                score=float(scores[pick]),
                max_delta_h=float(per_structure_max[pick]),
                structure_entropy=float(own_entropy[pick]),
            )
        )
        coverage.extend(descs.rows_for(pick))
    return CompressionResult(selected=tuple(selected), per_step=tuple(steps), delta_h=delta_h)


def run_sampler(config: SamplerConfig, descs: DescriptorSet) -> CompressionResult:
    """Dispatch on ``config.method`` with the resolved target count."""
    count = config.resolve_count(descs.n_structures)
    if config.method == "random":
        return sample_random(descs.n_structures, count, config.seed)
    if config.method == "kmeans":
        return sample_kmeans(descs, count, config.seed)
    if config.method == "fps":
        return sample_fps(descs, count, config.seed)
    return sample_msc(descs, count, config.kernel)
