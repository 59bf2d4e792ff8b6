"""Size of the query path: what ``import jamgame.cli`` loads, measured in a fresh interpreter.

    python -m tests.query_path [SRC]

Run from the root of the repository; SRC is the ``src`` directory to
measure, this tree's by default.  A child interpreter with
PYTHONDONTWRITEBYTECODE=1 and SRC on PYTHONPATH imports ``jamgame.cli`` and
prints one line per ``jamgame`` module it loaded: its source lines, its
AST nodes and the ``tracemalloc`` peak of ``compile()`` on its source, the
work a query without bytecode caches does for it.  A total line follows,
with the highest compile peak, then whether numpy is loaded.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def report() -> None:
    """Import ``jamgame.cli`` and print the size of every jamgame module it loaded."""
    import jamgame.cli  # noqa: F401  (first, so nothing below adds to what it loads)

    names = sorted(name for name in sys.modules if name.split(".")[0] == "jamgame")
    numpy = "numpy" in sys.modules
    import ast
    import tracemalloc

    total_lines = total_nodes = top_peak = 0
    for name in names:
        path = sys.modules[name].__file__
        source = Path(path).read_text(encoding="utf-8")
        lines, nodes = source.count("\n"), sum(1 for _ in ast.walk(ast.parse(source)))
        tracemalloc.start()
        compile(source, path, "exec")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        total_lines, total_nodes, top_peak = total_lines + lines, total_nodes + nodes, max(top_peak, peak)
        print(f"{name:24} {lines:5} lines {nodes:6} nodes {peak / 1e6:6.3f} MB compile peak")
    print(f"{f'total, {len(names)} modules':24} {total_lines:5} lines {total_nodes:6} nodes "
          f"{top_peak / 1e6:6.3f} MB highest")
    print(f"numpy loaded: {'yes' if numpy else 'no'}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--child"]:
        report()
        return 0
    src = Path(argv[0]).resolve() if argv else ROOT / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT)]), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "tests.query_path", "--child"], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
