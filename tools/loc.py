"""Line counts per ``src/repro`` package: total and code-only.

``make loc`` runs this so that every PR counts "net negative" the same
way.  *Code-only* excludes blank lines, comments and docstrings: a line
counts when a token other than a comment sits on it and the statement it
belongs to is not a bare string.  Standard library only.

Usage: python tools/loc.py [PATH ...]    (default PATH: src/repro)

A directory prints one row per package under it and its total; a file
prints one row of its own (``make loc`` appends the two modules every
open ROADMAP item edits).
"""

import sys
import tokenize
from collections import defaultdict
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def count(path: Path):
    """``(total lines, code-only lines)`` of one Python source file."""
    code, statement = set(), []
    with path.open("rb") as source:
        total = sum(1 for _ in source)
        source.seek(0)
        for token in tokenize.tokenize(source.readline):
            if token.type in _LAYOUT:
                continue
            if token.type != tokenize.NEWLINE:
                statement.append(token)
                continue
            if [t.type for t in statement] != [tokenize.STRING]:  # docstring
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return total, len(code)


def package_rows(root: Path):
    """A header row, one row per package under ``root``, the grand total."""
    rows = defaultdict(lambda: [0, 0, 0])
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        row = rows[parts[0] if len(parts) > 1 else "(top level)"]
        total, code = count(path)
        row[0] += 1
        row[1] += total
        row[2] += code
    rows["TOTAL"] = [sum(r[i] for r in rows.values()) for i in range(3)]
    return [(str(root), "files", "lines", "code"),
            *((name, *row) for name, row in rows.items())]


def main(paths) -> None:
    """Print the rows of every directory and file in ``paths``."""
    rows = []
    for path in paths:
        if path.is_dir():
            rows.extend(package_rows(path))
        else:
            rows.append((str(path), 1, *count(path)))
    width = max(20, 2 + max(len(row[0]) for row in rows))
    for name, files, total, code in rows:
        print(f"{name:<{width}}{files:>6}{total:>8}{code:>8}")


if __name__ == "__main__":
    main([Path(arg) for arg in sys.argv[1:]] or [Path("src/repro")])
