"""README's documented API runs as written."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_library_snippet_runs(monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    snippet = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # the snippet opens its layout by a path relative to the repo root
    monkeypatch.chdir(ROOT)
    exec(compile(snippet, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 1
    # cluster7.lay leaves one conflict
    assert printed[0].startswith("1 ")
