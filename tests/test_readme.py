import json
import re
from pathlib import Path

import numpy as np

from atomcover import write_extxyz
from helpers import dataset, perturbed_cubic

README = Path(__file__).resolve().parent.parent / "README.md"


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
