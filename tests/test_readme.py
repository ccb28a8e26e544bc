"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # 100 nodes instead of 800: the same calls, without seconds of dense eig
    grid_line = "grid = Grid1D(-10.0, 10.0, 800)\n"
    assert grid_line in code
    code = code.replace(grid_line, "grid = Grid1D(-10.0, 10.0, 100)\n")
    exec(compile(code, str(README), "exec"), {})
    out = capsys.readouterr().out
    assert "(12, 100, 2) central_wilson" in out
    assert "2 [1 3] [0 2]" in out
