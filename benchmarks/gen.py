"""Seeded synthetic extended-XYZ inputs for the benchmark workloads.

Every structure is a jittered simple-cubic block of Cu atoms with 0-2
vacancies and a lattice constant within 3% of 2.5 angstrom.  Three of
every four structures are periodic cells; every fourth is an aperiodic
cluster cut from the same block, so structure sizes vary.  Jitter cycles
through three "temperatures".  Forces and energies come from a harmonic
spring on each displacement, so ``force-cdf`` has a tail to measure.

The files are written by this module, not by the program under test, and
a given seed always gives byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

LATTICE_A = 2.5  # angstrom
TEMPERATURES = (0.02, 0.08, 0.2)  # jitter standard deviations, angstrom
SPRING = 5.0  # eV / angstrom^2


def _block(rng, n_side: int, jitter: float, periodic: bool) -> str:
    """One frame: an n_side^3 cubic block minus 0-2 vacancies."""
    a = LATTICE_A * rng.uniform(0.97, 1.03)
    grid = np.array(
        [(x, y, z) for x in range(n_side) for y in range(n_side) for z in range(n_side)],
        dtype=float,
    )
    keep = np.sort(rng.permutation(len(grid))[: len(grid) - int(rng.integers(0, 3))])
    disp = rng.normal(scale=jitter, size=(len(keep), 3))
    positions = grid[keep] * a + disp
    forces = -SPRING * disp
    energy = 0.5 * SPRING * float((disp * disp).sum())
    if periodic:
        length = a * n_side
        header = (
            f'Lattice="{length:.8f} 0 0 0 {length:.8f} 0 0 0 {length:.8f}" '
            'Properties=species:S:1:pos:R:3:forces:R:3 pbc="T T T"'
        )
    else:
        header = 'Properties=species:S:1:pos:R:3:forces:R:3 pbc="F F F"'
    lines = [str(len(keep)), f"{header} energy={energy:.8f}"]
    for p, f in zip(positions, forces):
        lines.append(
            "Cu {:.8f} {:.8f} {:.8f} {:.8f} {:.8f} {:.8f}".format(*p, *f)
        )
    return "\n".join(lines) + "\n"


def dataset_text(seed: int, stream: int, n_structures: int, n_side: int,
                 jitter_scale: float = 1.0) -> tuple[str, int]:
    """Extended-XYZ text of ``n_structures`` frames and its atom count.

    Each ``stream`` of a seed is an independent sequence, so one workload
    can draw two unrelated files (warm-analyze's reference and query sets).
    """
    rng = np.random.default_rng([seed, stream])
    frames = []
    n_atoms = 0
    for i in range(n_structures):
        jitter = TEMPERATURES[i % len(TEMPERATURES)] * jitter_scale
        frame = _block(rng, n_side, jitter, periodic=(i % 4 != 3))
        n_atoms += int(frame.split("\n", 1)[0])
        frames.append(frame)
    return "".join(frames), n_atoms


def write_dataset(path, seed: int, stream: int, n_structures: int, n_side: int,
                  jitter_scale: float = 1.0) -> dict:
    """Write one generated file; return its structure, environment and byte counts."""
    text, n_atoms = dataset_text(seed, stream, n_structures, n_side, jitter_scale)
    data = text.encode("ascii")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(data)
    return {"n_structures": n_structures, "n_environments": n_atoms, "bytes": len(data)}
