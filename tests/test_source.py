import ast
from pathlib import Path

import sharbly


def test_no_bare_assert_in_the_package():
    # `python -O` strips assert statements: invariants raise InternalCheckError
    sources = sorted(Path(sharbly.__file__).resolve().parent.glob("*.py"))
    assert any(path.name == "homology.py" for path in sources)
    offenders = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not offenders, f"bare assert in {offenders}"
