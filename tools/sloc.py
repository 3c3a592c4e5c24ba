"""Count the physical and code lines of the kellerscope sources.

    python3 tools/sloc.py [DIR]

DIR defaults to ``src/kellerscope`` next to this script. A code line is a
line that holds at least one token that is not a comment or a docstring,
where a docstring is a string literal that forms a statement on its own.
Blank lines, comment lines and docstring lines are physical but not code.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.COMMENT, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """Physical lines and code lines of one Python source text."""
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    code: set[int] = set()
    prev = tokenize.NEWLINE  # type of the previous significant token
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            if tok.type == tokenize.NEWLINE:
                prev = tokenize.NEWLINE
            continue
        docstring = (tok.type == tokenize.STRING and prev == tokenize.NEWLINE
                     and next(t.type for t in tokens[i + 1:]
                              if t.type not in (tokenize.NL, tokenize.COMMENT))
                     in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if not docstring:
            code.update(range(tok.start[0], tok.end[0] + 1))
        prev = tok.type
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "kellerscope")
    total_physical = total_code = 0
    for path in sorted(root.glob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        print(f"{physical:6d} {code:6d}  {path.name}")
        total_physical += physical
        total_code += code
    print(f"{total_physical:6d} {total_code:6d}  total (physical, code)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
