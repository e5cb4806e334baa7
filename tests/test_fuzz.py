"""Token-level mutation fuzz over the corpus: a file with one token deleted,
duplicated or swapped with its neighbour is checked in-process under a fuel
bound, and must end with an exit code (success, type error or parse error),
never with an exception."""

import collections
import random

from gctt.cli import EXIT_OK, EXIT_PARSE_ERROR, EXIT_TYPE_ERROR, main
from gctt.parser import tokenize

MUTATIONS = 150
SEED = 20161


def mutate(source: str, rng: random.Random) -> str:
    """Delete, duplicate or swap with the next one a randomly chosen token,
    keeping the text around it (comments and layout) as it is."""
    spans = [t.span for t in tokenize(source)[:-1]]  # without eof
    k = rng.randrange(len(spans))
    s = spans[k]
    text = source[s.start:s.end]
    op = rng.choice(("delete", "duplicate", "swap"))
    if op == "delete":
        return source[:s.start] + source[s.end:]
    if op == "duplicate" or k + 1 == len(spans):
        return source[:s.end] + " " + text + source[s.end:]
    n = spans[k + 1]
    return (source[:s.start] + source[n.start:n.end] + source[s.end:n.start]
            + text + source[n.end:])


def check_variant(capsys, corpus_dir, work, name, text) -> int:
    """Check `text` as the module file `work/name` under a fuel bound; the
    run must end with an exit code."""
    work.mkdir()
    path = work / name
    path.write_text(text, encoding="utf-8")
    code = main(["check", "--fuel", "20000", "--search-path",
                 str(corpus_dir), str(path)])
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_TYPE_ERROR, EXIT_PARSE_ERROR), path
    return code


def test_mutated_corpus_files_end_with_an_exit_code(capsys, tmp_path,
                                                    corpus_dir):
    files = sorted(corpus_dir.glob("*.gctt")) \
        + sorted((corpus_dir / "negative").glob("*.gctt"))
    rng = random.Random(SEED)
    codes = collections.Counter()
    for n in range(MUTATIONS):
        original = rng.choice(files)
        text = mutate(original.read_text(encoding="utf-8"), rng)
        codes[check_variant(capsys, corpus_dir, tmp_path / str(n),
                            original.name, text)] += 1
    # both the parser and the checker are reached
    assert {EXIT_TYPE_ERROR, EXIT_PARSE_ERROR} <= set(codes), codes


# characters a lexer may mistake: digits that are not decimal ('²', '½'),
# a decimal digit of another script ('١'), a letter outside ASCII, an
# illegal character, the prime of an identifier and a bare carriage return
INSERTED = "²½١é#'\r"
INSERTIONS = 80


def test_corpus_files_with_one_inserted_character_end_with_an_exit_code(
        capsys, tmp_path, corpus_dir):
    files = sorted(corpus_dir.glob("*.gctt"))
    rng = random.Random(SEED)
    drawn = set()
    for n in range(INSERTIONS):
        original = rng.choice(files)
        source = original.read_text(encoding="utf-8")
        k = rng.randrange(len(source) + 1)
        char = rng.choice(INSERTED)
        drawn.add(char)
        check_variant(capsys, corpus_dir, tmp_path / str(n), original.name,
                      source[:k] + char + source[k:])
    assert drawn == set(INSERTED)
