"""README's Library example runs as written, so a renamed or removed public
name cannot leave the documented example broken."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    printed = capsys.readouterr().out.split()
    # three single scores, then one detector name and its AUC per line
    assert printed[3::2] == ["hotelling", "lw", "bs96", "cq10", "lappw", "oracle"]
    assert all(0.0 <= float(auc) <= 1.0 for auc in printed[4::2])
