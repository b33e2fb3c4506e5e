"""Count code lines: lines that hold a token other than a comment or a docstring.

Usage, from the repository root: python tools/code_lines.py [FILE ...]
(default: src/ricdft/*.py)

A line counts when some token on it is code.  Comments, blank lines and
docstrings do not count: a docstring is the string expression that opens
a module, class or function body (found by ``ast``), and every line it
spans is left out.  A multi-line string that is not a docstring counts on
each line it spans.  Prints one row per file, its code lines beside its
physical lines (what ``wc -l`` counts), and the totals of both.
"""

import ast
import pathlib
import sys
import tokenize

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers the module's, classes' and functions' docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def line_counts(path) -> tuple[int, int]:
    """(code lines, physical lines) of the Python file at ``path``."""
    with tokenize.open(path) as fh:
        source = fh.read()
    skipped, lines = docstring_lines(source), set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIPPED:
                lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in skipped)
    return len(lines), source.count("\n")


def main(argv) -> int:
    paths = argv or sorted(str(p) for p in pathlib.Path("src/ricdft").glob("*.py"))
    counts = {path: line_counts(path) for path in paths}
    width = max(map(len, counts))
    print(f"{'file':<{width}}  {'code':>5}  {'lines':>5}")
    for path, (code, physical) in counts.items():
        print(f"{path:<{width}}  {code:5d}  {physical:5d}")
    code, physical = map(sum, zip(*counts.values()))
    print(f"{'total':<{width}}  {code:5d}  {physical:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
