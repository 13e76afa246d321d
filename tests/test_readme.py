import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import atomcover
from atomcover import write_extxyz
from helpers import dataset, perturbed_cubic

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def library_example() -> str:
    """The Python block of the README's Library section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return block


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    rng = np.random.default_rng(0)
    write_extxyz(dataset(*[perturbed_cubic(rng) for _ in range(10)]), tmp_path / "train.xyz")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and 0.0 < float(printed[0]) and 0.0 <= float(printed[1]) <= 1.0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["kind"] == "compression"
    assert doc["metrics"]["sizes"]["n_structures_compressed"] == 3  # 25% of 10, rounded


def named_tests() -> list[str]:
    """Every test id the README names in backticks, in order.

    A full id starts ``tests/``; a short one, ``::name``, stands for the id
    before it with its last part replaced by ``name``.
    """
    text = README.read_text(encoding="utf-8")
    ids = []
    for ref in re.findall(r"`((?:tests/[\w/]+\.py)?(?:::[\w\[\]-]+)+)`", text):
        if ref.startswith("::"):
            ref = ids[-1].rsplit("::", 1)[0] + ref
        ids.append(ref)
    return ids


def test_every_named_test_is_collected():
    # Renaming or deleting a test must not leave a promise naming it behind.
    src = os.path.dirname(os.path.dirname(atomcover.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    ))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    collected = [line for line in run.stdout.splitlines() if line.startswith("tests/")]
    named = named_tests()
    assert len(named) > 50
    missing = [name for name in named
               if not any(c == name or c.startswith((name + "::", name + "[")) for c in collected)]
    assert missing == []
