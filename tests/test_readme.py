"""The README's library quickstart runs and shows the values it claims."""

from __future__ import annotations

import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quickstart() -> str:
    """The ``python`` block under the README's "Library quickstart" heading."""
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_shows_the_values_it_computes():
    source = quickstart()
    lines = source.splitlines()
    namespace: dict = {}
    shown = []
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        if not isinstance(node, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = repr(eval(compile(code, "README.md", "eval"), namespace))
        comment = lines[node.lineno - 1].split("#", 1)[1].strip()
        assert comment.startswith(value), (code, value, comment)
        shown.append(value)
    assert shown == ["None", "(('a', 'b', 'c'),)", "(True, 1, frozenset({'c'}))", "True"]
