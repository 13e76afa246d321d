"""Shared fixtures and independent reference implementations.

The naive_* functions are deliberately written as plain loops straight
off the definitions, as an independent route to the same numbers the
library computes with blocked/vectorized code.
"""

import numpy as np

from atomcover import Dataset, DescriptorSet, Structure


def molecule(positions, species=None, forces=None, energy=None):
    """Aperiodic structure from bare positions."""
    positions = np.asarray(positions, dtype=float)
    if species is None:
        species = ("X",) * len(positions)
    return Structure(
        cell=np.zeros((3, 3)),
        pbc=np.zeros(3, dtype=bool),
        positions=positions,
        species=species,
        forces=forces,
        energy=energy,
    )


def crystal(cell, positions, species=None, pbc=(True, True, True), forces=None):
    positions = np.asarray(positions, dtype=float)
    if species is None:
        species = ("X",) * len(positions)
    return Structure(
        cell=np.asarray(cell, dtype=float),
        pbc=np.asarray(pbc, dtype=bool),
        positions=positions,
        species=species,
        forces=forces,
    )


def perturbed_cubic(rng, n_side=2, a=3.0, jitter=0.15):
    """Cubic lattice with random jitter; dense, tie-free test crystal."""
    grid = np.array(
        [[x, y, z] for x in range(n_side) for y in range(n_side) for z in range(n_side)],
        dtype=float,
    )
    positions = grid * a + rng.normal(scale=jitter, size=(len(grid), 3))
    return crystal(np.eye(3) * a * n_side, positions)


def random_rotation(rng):
    """Uniform-ish proper rotation matrix."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def synthetic_set(values_per_structure, width=None):
    """DescriptorSet from a list of per-structure row arrays."""
    blocks = [np.atleast_2d(np.asarray(v, dtype=float)) for v in values_per_structure]
    offsets = []
    pos = 0
    for b in blocks:
        offsets.append((pos, len(b)))
        pos += len(b)
    return DescriptorSet(values=np.vstack(blocks), offsets=np.asarray(offsets))


def dataset(*structures):
    return Dataset(structures=tuple(structures))


def count_self_passes(monkeypatch):
    """Record the size of every self kernel pass (a set against itself).

    Returns a list that grows by one row count per pass made while the
    monkeypatch is active.
    """
    from atomcover import information

    sizes = []
    real = information._self_neg_log_kernel_sums

    def counting(rows, bandwidth, buffers=None):
        sizes.append(rows.shape[0])
        return real(rows, bandwidth, buffers)

    monkeypatch.setattr(information, "_self_neg_log_kernel_sums", counting)
    return sizes


def count_cross_passes(monkeypatch):
    """Record (query rows, reference rows) of every cross kernel pass.

    Each ``Coverage.extend`` is one pass over its block of references, so
    a coverage grown by k blocks records k pairs.  Returns a list that
    grows by one pair per pass made while the monkeypatch is active.
    """
    from atomcover import information

    shapes = []
    real = information.Coverage.extend

    def counting(self, refs):
        n_refs = np.atleast_2d(getattr(refs, "values", refs)).shape[0]
        shapes.append((self._queries.shape[0], n_refs))
        return real(self, refs)

    monkeypatch.setattr(information.Coverage, "extend", counting)
    return shapes


# --- independent reference implementations -------------------------------


def assert_row_multisets_close(a, b, atol):
    """The rows of a and b form the same multiset, to a tolerance.

    Robust to reorderings: pairs rows by optimal assignment on the
    Chebyshev distance, then checks the worst matched pair.
    """
    from scipy.optimize import linear_sum_assignment

    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    cost = np.abs(a[:, None, :] - b[None, :, :]).max(axis=2)
    rows, cols = linear_sum_assignment(cost)
    assert cost[rows, cols].max() <= atol


def naive_weight(r, cutoff):
    return (1.0 - (r / cutoff) ** 2) ** 2 if r <= cutoff else 0.0


def naive_x1(nbrs, i, k, cutoff):
    """Two-body block of atom i, from row i of a NeighborSet."""
    out = [0.0] * k
    for slot in range(nbrs.distances.shape[1]):
        r = nbrs.distances[i, slot]
        out[slot] = naive_weight(r, cutoff) / r
    return np.array(out)


def naive_x2(nbrs, i, k, cutoff):
    """Three-body block of atom i, from row i of a NeighborSet."""
    v = nbrs.distances.shape[1]
    out = np.zeros(k - 1)
    if v <= 1:
        return out
    pos = nbrs.neighbor_positions[i, :v]
    w = [naive_weight(d, cutoff) for d in nbrs.distances[i, :v]]
    ranked_rows = []
    for j in range(v):
        terms = []
        for l in range(v):
            if l == j:
                continue
            d_jl = float(np.linalg.norm(pos[j] - pos[l]))
            terms.append(np.sqrt(w[j] * w[l]) / d_jl)
        ranked_rows.append(sorted(terms, reverse=True))
    means = [sum(row[n] for row in ranked_rows) / v for n in range(v - 1)]
    out[: v - 1] = means
    return np.array(sorted(out, reverse=True))


def naive_delta_entropy(queries, refs, h):
    queries = np.atleast_2d(queries)
    refs = np.atleast_2d(refs)
    out = np.empty(len(queries))
    for i, q in enumerate(queries):
        d2 = ((refs - q) ** 2).sum(axis=1)
        out[i] = -np.log(np.exp(-d2 / (2.0 * h * h)).sum())
    return out


def naive_entropy(rows, h):
    rows = np.atleast_2d(rows)
    return float(np.mean(naive_delta_entropy(rows, rows, h)) + np.log(len(rows)))


def naive_diversity(rows, h):
    rows = np.atleast_2d(rows)
    dh = naive_delta_entropy(rows, rows, h)
    return float(np.log(np.exp(dh).sum()))


def brute_force_neighbors(structure, center, search_radius, extra_reach=2):
    """All (distance, atom, offset) within search_radius, by direct loops."""
    heights_ok = structure.pbc.any()
    found = []
    if heights_ok:
        cell = structure.cell
        volume = abs(np.linalg.det(cell))
        reach = []
        for axis in range(3):
            if structure.pbc[axis]:
                cross = np.cross(cell[(axis + 1) % 3], cell[(axis + 2) % 3])
                height = volume / np.linalg.norm(cross)
                reach.append(int(np.ceil(search_radius / height)) + extra_reach)
            else:
                reach.append(0)
        ranges = [range(-r, r + 1) for r in reach]
    else:
        ranges = [range(1)] * 3

    frac = structure.positions.copy()
    if structure.pbc.any():
        f = structure.positions @ np.linalg.inv(structure.cell)
        for axis in range(3):
            if structure.pbc[axis]:
                f[:, axis] -= np.floor(f[:, axis])
        frac = f @ structure.cell
    center_pos = frac[center]
    for na in ranges[0]:
        for nb in ranges[1]:
            for nc in ranges[2]:
                shift = np.array([na, nb, nc], dtype=float) @ structure.cell
                for a in range(len(structure)):
                    if a == center and na == nb == nc == 0:
                        continue
                    d = float(np.linalg.norm(frac[a] + shift - center_pos))
                    if d <= search_radius:
                        found.append((d, a, (na, nb, nc)))
    found.sort()
    return found


def full_reach_search(structure, k, search_radius):
    """The neighbor search over a layout one image per periodic side wider
    than the one ``nearest_neighbors`` lays out.

    That layout is ``ceil(search_radius / h)`` images per periodic side, for
    cell height h, widened while it holds no more than k points.  Here it is
    built from the definition, with images in lexicographic order of their
    lattice offsets, each holding the wrapped atoms in structure order.
    Candidates come from a k-d tree over the whole layout, grown until the
    farthest lies beyond the (k + 1)-th nearest by the tie slack, and are
    sorted by (distance, atom, point index) with the self-image first.
    Returns (distances, neighbor positions, atom indices).
    """
    import itertools

    from scipy.spatial import cKDTree

    from atomcover import geometry

    n = len(structure)
    cell, pbc = structure.cell, structure.pbc.astype(int)
    volume = abs(np.linalg.det(cell))
    heights = [
        volume / np.linalg.norm(np.cross(cell[(a + 1) % 3], cell[(a + 2) % 3])) for a in range(3)
    ]
    reach = [int(np.ceil(search_radius / h)) * p for h, p in zip(heights, pbc)]
    while n * np.prod([2 * r + 1 for r in reach]) <= k:
        reach = [r + p for r, p in zip(reach, pbc)]
    reach = [r + p for r, p in zip(reach, pbc)]
    frac = structure.positions @ np.linalg.inv(cell)
    for axis in range(3):
        if pbc[axis]:
            frac[:, axis] -= np.floor(frac[:, axis])
    offsets = np.array(list(itertools.product(*(range(-r, r + 1) for r in reach))), dtype=float)
    points = ((frac @ cell)[None, :, :] + (offsets @ cell)[:, None, :]).reshape(-1, 3)
    own = len(points) // n // 2 * n + np.arange(n)
    centers = points[own]
    tree = cKDTree(points)
    m = min(k + 2, len(points))
    while True:
        dists, cand = tree.query(centers, k=m)
        dists, cand = dists.reshape(n, m), cand.reshape(n, m)
        if m == len(points) or np.all(dists[:, -1] > dists[:, k] + geometry._TIE_SLACK):
            break
        m = min(2 * m, len(points))
    diff = points[cand] - centers[:, None, :]
    dx, dy, dz = diff[..., 0], diff[..., 1], diff[..., 2]
    dists = np.sqrt(dx * dx + dy * dy + dz * dz)
    key = np.where(cand == own[:, None], -1.0, dists)
    order = np.lexsort((cand, cand % n, key), axis=1)[:, 1 : k + 1]
    chosen = np.take_along_axis(cand, order, axis=1)
    return np.take_along_axis(dists, order, axis=1), points[chosen], chosen % n
