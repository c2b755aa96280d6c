"""Count the code lines of Python modules: physical lines that hold a
token of code, so blank lines, comment lines and docstring lines are left
out.

Usage:
    python3 tools/code_lines.py [PATH ...]

Each PATH is a .py file or a directory searched for them (default
src/greedycd). Prints one line per module and then the total.
"""

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree):
    """The line numbers that docstrings of the module, its classes and its
    functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of lines of source that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def modules(paths):
    for path in paths:
        if os.path.isdir(path):
            for root, _, names in sorted(os.walk(path)):
                for name in sorted(names):
                    if name.endswith(".py"):
                        yield os.path.join(root, name)
        else:
            yield path


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or ["src/greedycd"]
    total = 0
    for path in modules(paths):
        with open(path) as fh:
            n = code_lines(fh.read())
        total += n
        print("%6d  %s" % (n, path))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
