"""Count the lines of the tonelab package: python3 tools/loc.py.

Prints two counts over the package's .py files: every line (as `wc -l` counts
them), and the code lines, which are the lines that hold a token other than a
comment or a docstring. Blank lines, comment lines and docstrings, a string
that makes up a whole statement, are not code lines. Stdlib only.
"""
import io
import pathlib
import tokenize

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines holding a token that is not layout, a comment or a docstring."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line read so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    return len(lines)


def main() -> None:
    root = pathlib.Path(__file__).resolve().parents[1] / "src" / "tonelab"
    sources = [path.read_text(encoding="utf-8") for path in sorted(root.glob("*.py"))]
    total = sum(text.count("\n") for text in sources)
    print(f"{root}: {len(sources)} files")
    print(f"lines (wc -l): {total}")
    print(f"code lines (no docstrings, comments or blank lines): {sum(map(code_lines, sources))}")


if __name__ == "__main__":
    main()
