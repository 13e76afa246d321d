"""Shared fixtures and independent reference implementations.

The naive_* functions are deliberately written as plain loops straight
off the definitions, as an independent route to the same numbers the
library computes with blocked/vectorized code.
"""

import math
import struct
import zlib

import numpy as np

from atomcover import DescriptorSet, Structure


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


def mixed_size_set(rng, width=15):
    """DescriptorSet of structures of 1 to 257 rows, most sizes twice.

    Sizes straddle the 256-row tile and the per-stack limits.  Every
    structure of two or more rows holds a coincident pair (its rows 0 and 1,
    whose squared distance snaps to 0), and every one of seven or more rows
    a far last row, whose kernel with every other row underflows to 0.
    """
    sizes = (1, 2, 7, 8, 9, 63, 64, 255, 256, 257, 9, 1, 7, 64, 2, 255, 8)
    blocks = []
    for n in sizes:
        rows = rng.normal(scale=0.02, size=(n, width)) + 0.5
        if n >= 2:
            rows[1] = rows[0]
        if n >= 7:
            rows[-1, 0] += 50.0
        blocks.append(rows)
    return synthetic_set(blocks)


def multi_phase_rows(rng, phases=4, per_phase=300, width=8, h=0.015, spacing_over_h=20.0):
    """Rows of several phases, shuffled; at the defaults 1,200 rows, more than
    four 256-row blocks.

    Each phase is a cluster of rows spread h / 2 per entry about its centre.
    The centres lie on the all-ones direction, ``spacing_over_h`` bandwidths
    apart and centred on the origin, so the phases' entry sums lie as far
    apart as the phases themselves.
    """
    direction = np.ones(width) / math.sqrt(width)
    centres = (np.arange(phases) - (phases - 1) / 2) * spacing_over_h * h
    rows = np.vstack([
        centre * direction + rng.normal(scale=h / 2, size=(per_phase, width)) for centre in centres
    ])
    return rows[rng.permutation(len(rows))]


def dataset(*structures):
    return tuple(structures)


def count_self_passes(monkeypatch):
    """Record (sets, rows each, weight columns) of every self kernel pass.

    A set against itself, as ``entropy`` and the subset pass make, is one
    set, passed as a (width + 2, n) store; ``per_structure_entropy``
    passes (B, width + 2, n) stacks of equal-sized structures.  Returns a
    list that grows by one triple per pass made while the monkeypatch is
    active.
    """
    from atomcover import information

    shapes = []
    real = information._self_kernel_sums

    def counting(store, kernel, weights):
        sets = store.shape[0] if store.ndim == 3 else 1
        shapes.append((sets, store.shape[-1], weights.shape[1]))
        return real(store, kernel, weights)

    monkeypatch.setattr(information, "_self_kernel_sums", counting)
    return shapes


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
        shapes.append((self.n_queries, n_refs))
        return real(self, refs)

    monkeypatch.setattr(information.Coverage, "extend", counting)
    return shapes


def record_extends(monkeypatch):
    """Record (coverage, reference rows) of every ``Coverage.extend``.

    ``sample_msc`` extends one Coverage of every row by each round's picks
    and, for a prefix count inside a round, a copy of it by the round's
    picks so far.  Returns a list that grows by one pair per extend made
    while the monkeypatch is active; the rows are a copy.
    """
    from atomcover import information

    calls = []
    real = information.Coverage.extend

    def recording(self, refs):
        calls.append((self, np.array(np.atleast_2d(getattr(refs, "values", refs)))))
        return real(self, refs)

    monkeypatch.setattr(information.Coverage, "extend", recording)
    return calls


def cache_with_value(data: bytes, index: int, value: float) -> bytes:
    """A descriptor cache file's bytes with body value ``index`` set to
    ``value`` and the checksum recomputed, so that only the value differs."""
    (n_structures,) = struct.unpack_from("<Q", data, 8 + 20)
    start = 8 + 28 + 16 * n_structures
    pos = start + 8 * index
    data = data[:pos] + struct.pack("<d", value) + data[pos + 8 :]
    checksum = zlib.crc32(data[start:-4], zlib.crc32(data[8 + 28 : start]))
    return data[:-4] + struct.pack("<I", checksum)


def previous_format_cache(descs) -> bytes:
    """The bytes of a format-2 cache of a DescriptorSet: magic ``ACDS0002``,
    the header, the offsets, the row-major values and a valid checksum."""
    offsets = np.ascontiguousarray(descs.offsets, dtype="<i8").tobytes()
    values = np.ascontiguousarray(descs.values, dtype="<f8").tobytes()
    params = descs.params
    header = struct.pack(
        "<IdQQ", params.n_neighbors, params.cutoff, descs.n_environments, descs.n_structures
    )
    checksum = struct.pack("<I", zlib.crc32(values, zlib.crc32(offsets)))
    return b"ACDS0002" + header + offsets + values + checksum


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


def fsum_delta_entropy(rows, h):
    """-log sum_j K_h(x_i, x_j) of every row against every row: each sum a
    log-sum-exp whose shifted kernels are added by ``math.fsum``."""
    out = np.empty(len(rows))
    for i, x in enumerate(rows):
        log_kernels = -((rows - x) ** 2).sum(axis=1) / (2.0 * h * h)
        top = log_kernels.max()
        out[i] = -(top + math.log(math.fsum(np.exp(log_kernels - top))))
    return out


def naive_entropy(rows, h):
    rows = np.atleast_2d(rows)
    return float(np.mean(naive_delta_entropy(rows, rows, h)) + np.log(len(rows)))


def naive_diversity(rows, h):
    rows = np.atleast_2d(rows)
    dh = naive_delta_entropy(rows, rows, h)
    return float(np.log(np.exp(dh).sum()))


def eager_msc(descs, count, kernel, prefix_counts=()):
    """``sample_msc`` as one step per pick, the reference for its rounds.

    One Coverage of every row grows by each pick, and every structure is
    rescored from it after every pick: the greedy straight off its
    definition, with the library's kernel sums.
    """
    from atomcover import CompressionResult, Coverage, StepDiagnostics, per_structure_entropy

    n = descs.n_structures
    own_entropy = per_structure_entropy(descs, kernel)
    first = int(np.argmax(own_entropy))
    selected = [first]
    steps = [StepDiagnostics(first, float(own_entropy[first]), None, float(own_entropy[first]))]
    taken = np.zeros(n, dtype=bool)
    taken[first] = True
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
        per_structure_max = np.maximum.reduceat(env_dh, descs.offsets[:, 0])
        scores = per_structure_max + own_entropy
        scores[taken] = -np.inf
        pick = int(np.argmax(scores))
        selected.append(pick)
        taken[pick] = True
        steps.append(
            StepDiagnostics(
                pick, float(scores[pick]), float(per_structure_max[pick]), float(own_entropy[pick])
            )
        )
        coverage.extend(descs.rows_for(pick))
    return CompressionResult(selected=tuple(selected), per_step=tuple(steps), delta_h=delta_h)


def naive_kmeans(descs, count, seed):
    """The picks of k-means at one count, as plain loops over structures and clusters.

    k-means++ seeding from the structure means, Lloyd's iterations until no
    center moves 1e-6 (at most 300), the refill of empty clusters from the
    largest one's farthest member, and one ``rng.choice`` member per
    cluster, in cluster order.  Ties go to the lowest index.

    Distances are |p - c|^2 of the difference, where the library expands
    |p|^2 + |c|^2 - 2 p.c; the two give the same labels except where two
    centers tie to within rounding.  Repeated means, which make such ties,
    should be exactly representable (0.5, not 0.1), so that every center
    they give is exact too.
    """
    n = descs.n_structures
    points = [descs.rows_for(i).mean(axis=0) for i in range(n)]
    rng = np.random.default_rng(seed)

    def sq(a, b):
        return float(((a - b) ** 2).sum())

    def nearest(centers):
        labels = []
        for p in points:
            d = [sq(p, c) for c in centers]
            labels.append(d.index(min(d)))
        return labels

    def members(labels, c):
        return [i for i in range(n) if labels[i] == c]

    centers = [points[int(rng.integers(n))]]
    d2 = np.array([sq(p, centers[0]) for p in points])
    while len(centers) < count:
        total = float(d2.sum())
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = int(rng.integers(n))
        centers.append(points[idx])
        d2 = np.array([min(d, sq(p, points[idx])) for d, p in zip(d2, points)])

    labels = nearest(centers)
    for _ in range(300):
        moved = []
        for c in range(count):
            kept = members(labels, c)
            moved.append(np.array([points[i] for i in kept]).mean(axis=0) if kept else centers[c])
        shift = max(np.sqrt(sq(a, b)) for a, b in zip(moved, centers))
        centers = moved
        labels = nearest(centers)
        if shift < 1e-6:
            break

    sizes = [labels.count(c) for c in range(count)]
    while 0 in sizes:
        empty = sizes.index(0)
        largest = sizes.index(max(sizes))
        group = members(labels, largest)
        far = [sq(points[i], centers[largest]) for i in group]
        pick = group[far.index(max(far))]
        labels[pick] = empty
        centers[empty] = points[pick]
        sizes[largest] -= 1
        sizes[empty] += 1
    return tuple(int(rng.choice(members(labels, c))) for c in range(count))


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


def reference_parse(path):
    """Minimal second-opinion extxyz reader: (count, lattice, rows) per frame.

    Written independently of the library parser — shlex for the comment
    line, no column metadata beyond species + xyz (+ trailing floats).
    """
    import shlex

    frames = []
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        n = int(lines[i])
        keyvals = {}
        for token in shlex.split(lines[i + 1]):
            if "=" in token:
                k, v = token.split("=", 1)
                keyvals[k] = v
        lattice = None
        if "Lattice" in keyvals:
            lattice = np.array([float(x) for x in keyvals["Lattice"].split()]).reshape(3, 3)
        rows = []
        for line in lines[i + 2 : i + 2 + n]:
            fields = line.split()
            rows.append((fields[0], [float(x) for x in fields[1:]]))
        frames.append((n, lattice, keyvals, rows))
        i += 2 + n
    return frames


def reference_row_error(path):
    """(message, line) of the first atom row that a row-by-row reader
    rejects, or None.

    Walks every frame's rows in file order and checks each row alone: its
    token count against the width its Properties declare, then each pos or
    forces (alias force) token, in column order, with float().  Lines are
    numbered as str.splitlines() numbers them.  Written for files whose
    frames all have a Properties key and no error outside their atom rows.
    """
    import shlex

    with open(path, "rb") as fh:
        lines = fh.read().decode("utf-8").splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].strip():
            i += 1
            continue
        n = int(lines[i])
        keyvals = dict(t.split("=", 1) for t in shlex.split(lines[i + 1]) if "=" in t)
        spec = keyvals["Properties"].split(":")
        numeric, width = [], 0
        for name, w in zip(spec[::3], spec[2::3]):
            if name.lower() in ("pos", "forces", "force"):
                numeric.append((width, name))
            width += int(w)
        for row in range(i + 2, i + 2 + n):
            fields = lines[row].split()
            if len(fields) != width:
                return f"expected {width} columns, got {len(fields)}", row + 1
            for start, name in numeric:
                for token in fields[start : start + 3]:
                    try:
                        float(token)
                    except ValueError:
                        return f"bad numeric value in column {name!r}", row + 1
        i += 2 + n
    return None
