"""The library holds only code that a command, a fixture or the benchmark
runs: every function, class and method defined under ``src/`` is named
somewhere else in the library's code.  References that only tests need live
in ``tests/oracles.py``."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "biliaison"

# called from outside the library only: the benchmark's shape workload
# (`family_degree_genus`, `hilbert_conservation`) and the benchmark inputs
# of `bench/` (`rao_family`, `rank_drop_sigma1`)
CALLED_FROM_OUTSIDE = {
    "family_degree_genus", "hilbert_conservation", "rao_family", "rank_drop_sigma1",
}


def _unreferenced(root: Path) -> dict:
    """Each name defined by a def or class statement under ``root`` that no
    name or attribute in its code reads, with where it is defined.  Docstrings
    and comments are not code, and dunder methods are called by the language."""
    defined, read = {}, set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return {name: where for name, where in defined.items()
            if name not in read and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_in_src_is_used_in_src():
    # exactly the list: a name that src/ uses again leaves it
    unused = _unreferenced(SRC)
    assert set(unused) == CALLED_FROM_OUTSIDE, unused
