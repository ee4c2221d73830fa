"""Line counts per ``src/repro`` package: total and code-only.

``make loc`` runs this so that every PR counts "net negative" the same
way.  *Code-only* excludes blank lines, comments and docstrings: a line
counts when a token other than a comment sits on it and the statement it
belongs to is not a bare string.  Standard library only.

Usage: python tools/loc.py [ROOT]        (default ROOT: src/repro)
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


def main(root: Path) -> None:
    """Print one row per package under ``root`` and the grand total."""
    rows = defaultdict(lambda: [0, 0, 0])
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        row = rows[parts[0] if len(parts) > 1 else "(top level)"]
        total, code = count(path)
        row[0] += 1
        row[1] += total
        row[2] += code
    rows["TOTAL"] = [sum(r[i] for r in rows.values()) for i in range(3)]
    print(f"{str(root):<20}{'files':>6}{'lines':>8}{'code':>8}")
    for name, (files, total, code) in rows.items():
        print(f"{name:<20}{files:>6}{total:>8}{code:>8}")


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else "src/repro"))
