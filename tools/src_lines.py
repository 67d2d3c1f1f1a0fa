"""Print the line count of each src/ module, with and without docstrings,
comments and blank lines.

    python3 tools/src_lines.py

Takes no options.  Prints one line per module under src/, then the total:
the path, its line count and the count of lines holding code, that is every
line less blank lines, comment-only lines and the lines of module, class and
function docstrings.  A line holding code and a trailing comment counts as
code.  Run it before and after a change to see how much code it adds or
removes.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# tokens that hold no code of their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def counts(text: str) -> tuple[int, int]:
    """The line count of the source text and its count of code lines."""
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - docs)


def main() -> int:
    total_lines = total_code = 0
    print("module lines code")
    for path in sorted(SRC.rglob("*.py")):
        lines, code = counts(path.read_text())
        total_lines += lines
        total_code += code
        print(f"{path.relative_to(ROOT)} {lines} {code}")
    print(f"total {total_lines} {total_code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
