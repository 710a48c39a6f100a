"""Count the code lines of each Python module under a directory.

A code line is a line that is not blank, not comment-only and not inside a
module, class or function docstring; docstrings are found with ``ast``.

    python tools/code_lines.py src/noma_as
"""

import ast
import sys
from pathlib import Path

_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of one module's source text."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    return sum(1 for number, line in enumerate(source.splitlines(), 1)
               if line.strip() and not line.strip().startswith("#")
               and number not in docstrings)


def main(argv):
    if len(argv) != 1:
        raise SystemExit("usage: python tools/code_lines.py DIR")
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv[1:])
