"""Fail when the runtime package imports anything outside the standard library.

    python3 tools/check_stdlib_imports.py [package_dir]

Parses every module under `package_dir` (default `src/graphfield`) and
checks the top-level name of each absolute import, at any depth of the
module, against `sys.stdlib_module_names` and the package's own name.
Relative imports stay inside the package.  Prints each offending import
with its file and line and exits 1 when there is one, else exits 0.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path


def foreign_imports(package: Path) -> list[str]:
    allowed = set(sys.stdlib_module_names) | {package.name}
    out = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            out += [f"{path}:{node.lineno}: {name}" for name in names
                    if name.partition(".")[0] not in allowed]
    return out


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/graphfield")
    bad = foreign_imports(package)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
