"""Count the code lines of Python modules.

A line counts when it holds a token other than a comment, a string literal
or layout (newlines, indentation, the encoding and end markers). So
docstrings do not count, and neither does a line that holds nothing but
strings, such as the second line of a message split over two lines or an
entry of ``__all__``. A token that spans several lines counts on each.

    python tools/code_lines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them; the default is
``src/splitpack``. Prints one ``count path`` line per module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.STRING,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of code lines in one module."""
    with open(path, "rb") as fh:
        return len(
            {
                row
                for tok in tokenize.tokenize(fh.readline)
                if tok.type not in NOT_CODE
                for row in range(tok.start[0], tok.end[0] + 1)
            }
        )


def main(argv: list[str]) -> int:
    total = 0
    for name in argv or ["src/splitpack"]:
        path = Path(name)
        for module in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            count = code_lines(module)
            total += count
            print(f"{count:6d} {module}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
