"""Golden command-line output over the corpus, byte for byte: the normal form
of every declaration (`gctt normalize F NAME`), the printed parse of every
module (`gctt parse F`), and the exit code and diagnostic of every negative
module.  Paths under the corpus directory are printed relative to it.

After a change meant to alter printed output, regenerate the file with
`PYTHONPATH=src python tests/test_golden.py` and review the diff.
"""

import contextlib
import io
import sys
from pathlib import Path

from gctt.cli import main
from gctt.parser import parse_module

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden" / "corpus.txt"


def _run(*argv: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(CORPUS / a) if a.endswith(".gctt") else a
                     for a in argv])
    text = f"$ gctt {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += f"stderr: {err.getvalue()}"
    return text.replace(f"{CORPUS}/", "")


def render() -> str:
    parts = []
    for path in sorted(CORPUS.glob("*.gctt")):
        parts.append(_run("parse", path.name))
        module = parse_module(path.read_text(encoding="utf-8"))
        for decl in module.declarations:
            parts.append(_run("normalize", path.name, decl.name))
    for path in sorted((CORPUS / "negative").glob("*.gctt")):
        parts.append(_run("check", f"negative/{path.name}"))
    return "".join(parts)


def test_corpus_output_is_unchanged():
    assert render() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    sys.setrecursionlimit(200_000)
    GOLDEN.write_text(render(), encoding="utf-8")
