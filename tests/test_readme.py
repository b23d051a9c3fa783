"""README's Library-use example runs as printed."""

import math
import re
import shutil
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_example() -> str:
    """The first ```python block under README's "## Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_prints_four_finite_numbers(demo_dataset_dir, tmp_path, monkeypatch, capsys):
    shutil.copy(demo_dataset_dir["traces"], tmp_path / "traces.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_example(), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4
    assert all(math.isfinite(float(x)) for x in printed)
