"""Size of ``src/``: total lines, and executable lines — those holding a
token that is not a comment or part of a docstring (a bare-string
statement).  Run from the repository root: ``python tools/src_lines.py``.
"""

import pathlib
import sys
import tokenize

LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}
STATEMENT_START = {None, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def count(path: pathlib.Path) -> tuple[int, int]:
    with tokenize.open(path) as stream:
        tokens = [token for token in tokenize.generate_tokens(stream.readline)
                  if token.type not in (tokenize.COMMENT, tokenize.NL)]
    executable: set[int] = set()
    previous = None
    for token, following in zip(tokens, tokens[1:]):
        docstring = (token.type == tokenize.STRING
                     and previous in STATEMENT_START
                     and following.type == tokenize.NEWLINE)
        if token.type not in LAYOUT and not docstring:
            executable.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    return tokens[-1].start[0] - 1, len(executable)  # ENDMARKER's row


if __name__ == "__main__":
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else "src")
    totals = [count(path) for path in sorted(root.rglob("*.py"))]
    print(f"{root}: {sum(total for total, _ in totals)} lines, "
          f"{sum(code for _, code in totals)} executable "
          f"(not blank, comment or docstring) in {len(totals)} files")
