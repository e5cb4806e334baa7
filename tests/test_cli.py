"""Command-line interface tests: exit codes, reports, determinism."""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import gctt
from gctt.cli import build_arg_parser, main
from gctt.parser import MAX_NUMERAL, parse_module
from gctt.syntax import term_str, unfold_fix
from gctt.typechecker import Checker


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# check


def test_check_corpus_module_ok(capsys, corpus_dir):
    code, out, err = run(capsys, "check", str(corpus_dir / "zipwith.gctt"))
    assert code == 0 and "ok" in out and err == ""


def test_check_type_error_exit_1(capsys, corpus_dir):
    bad = corpus_dir / "negative" / "boundary_violation.gctt"
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "[boundary-violation]" in err
    assert f"{bad}:" in err


def test_check_parse_error_exit_2(capsys, tmp_path):
    p = tmp_path / "broken.gctt"
    p.write_text("module broken where\nx : = 0")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and "expected" in err


def test_check_missing_file_reports_io(capsys, tmp_path):
    code, out, err = run(capsys, "check", str(tmp_path / "missing.gctt"))
    assert code == 2 and "io error" in err


@pytest.mark.parametrize("command", ["check", "normalize", "parse"])
def test_a_file_that_is_not_utf8_reports_io(capsys, tmp_path, command):
    p = tmp_path / "bin.gctt"
    p.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    assert err == f"io error: {p}: not UTF-8 (invalid start byte at byte 0)\n"


def test_a_byte_order_mark_is_left_out(capsys, tmp_path):
    """A module file an editor began with a UTF-8 byte-order mark checks;
    a column on its first line is counted after the mark, and a byte offset
    from the start of the file."""
    bom = "\ufeff".encode("utf-8")
    p = tmp_path / "m.gctt"
    p.write_bytes(bom + b"module m where\nx : N = 0\n")
    assert run(capsys, "check", str(p)) == (0, f"{p}: ok (1 declarations)\n",
                                           "")
    p.write_bytes(bom + b"module m where 1\n")
    code, out, err = run(capsys, "check", str(p))
    assert (code, err) == (2, f"{p}:1:16: expected ident, found 1\n")
    p.write_bytes(bom + b"module m\xff")
    code, out, err = run(capsys, "parse", str(p))
    assert err == f"io error: {p}: not UTF-8 (invalid start byte at byte 11)\n"


def test_an_import_that_is_not_utf8_reports_io(capsys, tmp_path):
    (tmp_path / "lib.gctt").write_bytes(b"module lib where\n\xe9\n")
    p = tmp_path / "m.gctt"
    p.write_text("module m where\n\nimport lib\n")
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err.startswith(f"io error: {tmp_path / 'lib.gctt'}: not UTF-8")


def test_check_module_name_must_match_stem(capsys, tmp_path):
    p = tmp_path / "left.gctt"
    p.write_text("module right where")
    code, out, err = run(capsys, "check", str(p))
    assert code == 2 and "stem" in err


def test_report_mode_emits_records(capsys, corpus_dir):
    code, out, err = run(capsys, "check", "--report",
                         str(corpus_dir / "funext.gctt"))
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert [r["decl"] for r in records] == ["funext", "transitivity", "inv",
                                            "refl"]
    assert all(r["status"] == "ok" and isinstance(r["millis"], float)
               for r in records)


def test_import_resolution_and_cycle(capsys, tmp_path):
    (tmp_path / "a.gctt").write_text("module a where\nimport b\nx : N = y")
    (tmp_path / "b.gctt").write_text("module b where\ny : N = 2")
    code, out, _ = run(capsys, "check", str(tmp_path / "a.gctt"))
    assert code == 0
    (tmp_path / "c.gctt").write_text("module c where\nimport d\nx : N = 0")
    (tmp_path / "d.gctt").write_text("module d where\nimport c\ny : N = 0")
    code, out, err = run(capsys, "check", str(tmp_path / "c.gctt"))
    assert code == 2 and "cycle" in err


def test_modules_of_one_name_in_two_directories_are_each_checked(
        capsys, tmp_path):
    good, bad = tmp_path / "a" / "m.gctt", tmp_path / "b" / "m.gctt"
    for path, decl in ((good, "x : N = 0"), (bad, "x : N = U")):
        path.parent.mkdir()
        path.write_text(f"module m where\n{decl}")
    code, out, err = run(capsys, "check", str(good), str(bad))
    assert code == 1
    assert out == f"{good}: ok (1 declarations)\n"
    assert err.startswith(f"{bad}:")


def test_an_import_resolves_in_the_importing_files_directory(
        capsys, tmp_path):
    # each directory has its own module n; naming a/x.gctt on the command
    # line must not make b/w.gctt import a/n.gctt
    files = {"a/n": "y : N = 0", "b/n": r"y : N -> N = \z -> z",
             "a/x": "import n", "b/w": "import n\nv : N = y 0"}
    for rel, body in files.items():
        path = tmp_path / f"{rel}.gctt"
        path.parent.mkdir(exist_ok=True)
        path.write_text(f"module {path.stem} where\n{body}")
    x, w = tmp_path / "a" / "x.gctt", tmp_path / "b" / "w.gctt"
    assert run(capsys, "check", str(w))[0] == 0
    code, out, err = run(capsys, "check", str(x), str(w))
    assert (code, err) == (0, "")
    assert out == f"{x}: ok (0 declarations)\n{w}: ok (1 declarations)\n"


def test_an_import_is_found_in_the_second_directory_of_gctt_path(
        capsys, tmp_path, monkeypatch):
    first, second, main_dir = (tmp_path / d for d in ("first", "second",
                                                       "main"))
    for d in (first, second, main_dir):
        d.mkdir()
    (second / "lib.gctt").write_text("module lib where\ny : N = 2")
    m = main_dir / "m.gctt"
    m.write_text("module m where\nimport lib\nx : N = suc y")
    monkeypatch.setenv("GCTT_PATH", os.pathsep.join([str(first),
                                                     str(second)]))
    assert run(capsys, "check", str(m)) == (
        0, f"{m}: ok (1 declarations)\n", "")
    assert run(capsys, "normalize", str(m), "x") == (0, "3\n", "")


def test_a_missing_import_is_an_io_error(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("GCTT_PATH", raising=False)
    m = tmp_path / "m.gctt"
    m.write_text("module m where\nimport absent\nx : N = 0")
    assert run(capsys, "check", str(m)) == (
        2, "", "io error: module absent not found on the search path\n")


# ---------------------------------------------------------------------------
# normalize


def test_normalize_declaration(capsys, corpus_dir):
    code, out, _ = run(capsys, "normalize", str(corpus_dir / "streams.gctt"),
                       "headOfCons")
    assert code == 0 and out.strip() == "3"


def test_normalize_expr(capsys, corpus_dir):
    code, out, _ = run(capsys, "normalize", str(corpus_dir / "streams.gctt"),
                       "--expr", "hd N (cons N 2 (next zeros))")
    assert code == 0 and out.strip() == "2"


def test_normalize_contracts_a_next_that_rebinds_its_only_binding(capsys):
    """`next [x <- s] x` reads back as s. Evaluation cannot contract this
    one, whose body term is not a variable; readback does, once the body
    has reduced to x."""
    code, out, _ = run(capsys, "normalize", "--expr",
                       r"\(s : |> N) -> next [x <- s] ((\(y : N) -> y) x)")
    assert code == 0 and out.strip() == r"\s -> s"


def test_normalize_expr_with_at(capsys, corpus_dir):
    args = ["normalize", str(corpus_dir / "unfold_lemma.gctt"),
            "--expr",
            r"\(A : U) -> \(f : (|> A) -> A) -> (unfold_path A f) @ i"]
    code0, out0, _ = run(capsys, *args, "--at", "i=0")
    code1, out1, _ = run(capsys, *args, "--at", "i=1")
    assert code0 == code1 == 0
    assert out0.strip() == r"\A -> \f -> f (dfix 0 x. f x)"
    assert out1.strip() == r"\A -> \f -> f (next (f (dfix 0 x. f x)))"


def test_consecutive_calls_share_no_options(capsys, corpus_dir, tmp_path):
    """The argument parser is built once per process; what one call passes
    is not seen by the next."""
    assert build_arg_parser() is build_arg_parser()
    code, out, _ = run(capsys, "normalize", "--expr", "<i> 0", "--at", "i=0")
    assert code == 0 and out.strip() == "<i> 0"
    code, _, err = run(capsys, "normalize", str(corpus_dir / "funext.gctt"),
                       "funext")
    assert code == 0 and err == ""
    parse = build_arg_parser().parse_args
    assert parse(["check", "--search-path", str(tmp_path), "f.gctt"]
                 ).search_path == [str(tmp_path)]
    assert parse(["check", "f.gctt"]).search_path == []


def test_normalize_at_needs_an_interval_name(capsys):
    expr = r"\(p : Path N 0 0) -> p @ x"
    for bad in ("=1", "1=0", "x=j", r"x=0/\1"):
        code, out, err = run(capsys, "normalize", "--expr", expr, "--at", bad)
        assert (code, out) == (2, ""), bad
        assert "--at" in err, bad
    code, out, _ = run(capsys, "normalize", "--expr", expr, "--at", "x=1")
    assert code == 0 and out.strip() == r"\p -> 0"


def test_normalize_at_names_each_interval_once(capsys):
    expr = "comp k N [ (i=1) -> 0 ] 0"
    code, out, _ = run(capsys, "normalize", "--expr", expr, "--at", "i=0")
    assert code == 0 and out.strip() == "0"
    for second in ("i=1", "i=0"):
        code, out, err = run(capsys, "normalize", "--expr", expr,
                             "--at", "i=0", "--at", second)
        assert (code, out) == (2, ""), second
        assert "--at: i is given twice" in err, second


def test_an_at_name_hides_a_declaration_of_that_name(capsys, tmp_path):
    """An `--at` name is an interval bound around the term, which hides a
    declaration named like it; the normal form's binders still avoid the
    declaration's name."""
    path = write_module(tmp_path, "ati",
                        "i : N = 2\n\nf : N -> N = \\x -> suc x")
    for expr, want in ((r"\(q : Path N 0 0) -> <k> q @ i", r"\q -> <k> 0"),
                       (r"\(p : Path N 0 0) -> <i> p @ i",
                        r"\p -> <i1> p @ i1")):
        code, out, err = run(capsys, "normalize", path, "--expr", expr,
                             "--at", "i=0")
        assert (code, err, out.strip()) == (0, "", want), expr
    code, out, _ = run(capsys, "normalize", path, "--expr", "f i")
    assert (code, out.strip()) == (0, "3")
    code, out, err = run(capsys, "normalize", path, "--expr", "f i",
                         "--at", "i=0")
    assert (code, out) == (1, "")
    assert err == "<expr>:1:3: [unbound] unbound variable i\n"


def test_a_tube_face_may_not_name_its_compositions_binder(capsys):
    # the binder shadows the outer j, and the message names neither
    code, out, err = run(capsys, "normalize", "--expr",
                         "<j> comp j N [ (j=0) -> 0 ] 0")
    assert (code, out) == (1, "")
    assert err == ("<expr>:1:5: [unbound] a tube face names the"
                   " composition's own binder\n")


# a glue element whose face is not its type's, under `--at i=0`
GLUE_MISMATCH = (
    r"\(e : (f : N -> N) * ((a : N) -> (c : (t : N) * Path N a (f t))"
    r" * ((c1 : (t : N) * Path N a (f t)) -> Path ((t : N) * Path N a (f t))"
    r" c c1))) -> (\(g : Glue [ (i=0) -> N, e ] N) -> g)"
    " (glue [ (i=1) -> 0 ] 0)")


@pytest.mark.parametrize("expr, at, col, message", [
    ("(0).1", [], 4, "projection from a non-pair"),
    ("(0).2", [], 4, "projection from a non-pair"),
    ("unglue 0", [], 1, "unglue of a non-glue term"),
    ("(0, 0)", [], 1, "cannot infer the type of (0, 0)"),
    (GLUE_MISMATCH, ["--at", "i=0"], GLUE_MISMATCH.index("(glue") + 1,
     "glue face (i=1) differs from the type's face (i=0)"),
])
def test_a_term_the_checker_rejects_is_reported_where_it_fails(
        capsys, expr, at, col, message):
    code, out, err = run(capsys, "normalize", "--expr", expr, *at)
    assert (code, out) == (1, "")
    assert err == f"<expr>:1:{col}: [mismatch] {message}\n"


def test_a_delayed_fixed_point_is_not_checked_at_a_delayed_substitution(
        capsys, tmp_path):
    path = write_module(
        tmp_path, "dfixds", "f : (l : |> N) -> |> [x <- l] Path N x x"
        r" = \l -> dfix 0 y. next [x <- l] (<i> x)")
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (1, "")
    assert err == (f"{path}:3:50: [mismatch] delayed fixed point needs a"
                   " later type without a delayed substitution\n")


def test_natrec_checks_with_a_motive_that_is_a_variable(capsys, tmp_path):
    path = write_module(
        tmp_path, "motive", "f : (m : N -> U) -> m 0"
        r" -> ((x : N) -> m x -> m (suc x)) -> m 2 = \m z s -> natrec m z s 2")
    assert run(capsys, "check", path) == (0, f"{path}: ok (1 declarations)\n",
                                          "")
    assert run(capsys, "normalize", path, "f") == (
        0, "\\m -> \\z -> \\s -> s 1 (s 0 z)\n", "")


def test_normalize_at_needs_an_expr(capsys, corpus_dir):
    # a declaration's value is closed: no interval substitution can act on it
    code, out, err = run(capsys, "normalize", str(corpus_dir / "streams.gctt"),
                         "headOfCons", "--at", "i=0")
    assert (code, out) == (2, "")
    assert "--at" in err


def test_normalize_takes_a_name_or_an_expr_not_both(capsys, corpus_dir):
    # the name would be ignored, even an unknown one
    for name in ("headOfCons", "nosuch"):
        code, out, err = run(capsys, "normalize",
                             str(corpus_dir / "streams.gctt"), name,
                             "--expr", "suc 0")
        assert (code, out) == (2, "")
        assert "--expr" in err


def test_normalize_ill_typed_expr(capsys, corpus_dir):
    code, _, err = run(capsys, "normalize", str(corpus_dir / "funext.gctt"),
                       "--expr", "funext 0")
    assert code == 1


def test_a_delayed_fixed_point_is_not_inferred_alone(capsys):
    code, out, err = run(capsys, "normalize", "--expr", "dfix 0 x. x")
    assert (code, out) == (1, "")
    assert "cannot infer the type of a delayed fixed point" in err


def test_normalize_expr_respects_fuel(capsys):
    expr = r"(\(A : U) -> \(x : A) -> x) N 0"
    code, out, err = run(capsys, "normalize", "--fuel", "1", "--expr", expr)
    assert code == 1 and out == ""
    assert err.strip() == ("<expr>:1:1: [mismatch] conversion fuel exhausted"
                           " (see --fuel)")
    code, out, _ = run(capsys, "normalize", "--expr", expr)
    assert code == 0 and out.strip() == "0"


LATER_SHARING = (r"\(s : |> N) -> next [x <- s, y <- next [z <- s] (suc z)]"
                 " (suc y)")


def test_normalize_fuel_bounds_evaluation_and_readback(capsys, tmp_path):
    # inference makes five conversion steps, readback the sixth
    code, out, err = run(capsys, "normalize", "--fuel", "5",
                         "--expr", LATER_SHARING)
    assert (code, out) == (1, "")
    assert err == ("<expr>:1:1: [mismatch] conversion fuel exhausted"
                   " (see --fuel)\n")
    code, out, _ = run(capsys, "normalize", "--fuel", "6",
                       "--expr", LATER_SHARING)
    assert (code, out) == (0, "\\s -> next [x <- s] (suc (suc x))\n")
    # checking d spends all nine steps; its readback has a budget of its own
    p = tmp_path / "m.gctt"
    p.write_text(f"module m where\n\nd : (s : |> N) -> |> N ="
                 f" {LATER_SHARING.replace('(s : |> N)', 's')}\n")
    code, out, _ = run(capsys, "normalize", "--fuel", "9", str(p), "d")
    assert (code, out) == (0, "\\s -> next [x <- s] (suc (suc x))\n")
    code, _, err = run(capsys, "normalize", "--fuel", "8", str(p), "d")
    assert code == 1 and err.startswith(f"{p}:3:1: [mismatch] conversion fuel")


def test_normalize_expr_sees_imported_declarations(capsys, tmp_path):
    (tmp_path / "a.gctt").write_text("module a where\n\nza : N = 0\n")
    b = tmp_path / "b.gctt"
    b.write_text("module b where\n\nimport a\n")
    assert run(capsys, "normalize", str(b), "--expr", "suc za") == (0, "1\n",
                                                                   "")
    assert run(capsys, "normalize", str(b), "za") == (0, "0\n", "")


def test_fuel_error_carries_the_declaration_span(capsys, corpus_dir):
    path = corpus_dir / "funext.gctt"
    code, _, err = run(capsys, "check", "--fuel", "1", str(path))
    assert code == 1
    # the first declaration, funext, starts on line 4
    assert err.startswith(f"{path}:4:1: [mismatch] conversion fuel exhausted")


class _ClosedPipe:
    """A standard output whose reader has gone."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("argv", [["parse", "{corpus}/streams.gctt"],
                                  ["check", "--report", "{corpus}/streams.gctt"],
                                  ["normalize", "--expr", "0"]])
def test_output_to_a_closed_pipe_ends_quietly(capsys, monkeypatch, corpus_dir,
                                              argv):
    monkeypatch.setattr("sys.stdout", _ClosedPipe())
    code = main([a.format(corpus=corpus_dir) for a in argv])
    assert code == 141
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_leaves_no_traceback_at_exit(corpus_dir):
    # the output is block-buffered, as in a shell pipeline, so the pipe is
    # found closed when the output is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gctt.__file__).parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gctt.cli", "parse",
         str(corpus_dir / "streams.gctt")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    assert proc.wait(timeout=60) == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def test_deeply_nested_terms_check_without_a_crash(tmp_path):
    """The largest numeral and a 30000-deep chain of applications check in a
    fresh process. Each nesting level of a substitution or renaming must be
    one Python call that uses no C stack: the recursion limit `main` sets
    lets the C stack overflow first, which kills the process (SIGSEGV)."""
    chain = "f (" * 30000 + "0" + ")" * 30000
    (tmp_path / "numeral.gctt").write_text(
        f"module numeral where\nx : N = {MAX_NUMERAL}\n")
    (tmp_path / "chain.gctt").write_text(
        "module chain where\n"
        f"y : N = (\\(f : N -> N) -> {chain}) (\\(x : N) -> suc x)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(gctt.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "gctt.cli", "check",
         str(tmp_path / "numeral.gctt"), str(tmp_path / "chain.gctt")],
        capture_output=True, env=env, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, b"")


@pytest.mark.parametrize("command", ["check", "normalize"])
@pytest.mark.parametrize("fuel", ["-1", "x"])
def test_a_fuel_that_is_not_a_count_is_a_usage_error(capsys, corpus_dir,
                                                      command, fuel):
    with pytest.raises(SystemExit) as exc:
        main([command, "--fuel", fuel, str(corpus_dir / "funext.gctt")])
    assert exc.value.code == 2
    assert ("argument --fuel: expected a non-negative integer, found"
            f" {fuel!r}") in capsys.readouterr().err


def test_zero_fuel_allows_no_conversion_step(capsys):
    assert run(capsys, "normalize", "--fuel", "0", "--expr", "0") == (
        0, "0\n", "")
    # checking the argument of `suc` against N is one step
    code, out, err = run(capsys, "normalize", "--fuel", "0", "--expr", "1")
    assert (code, out) == (1, "")
    assert "conversion fuel exhausted" in err


def test_zipwith_checks_within_a_fuel_bound(capsys, corpus_dir):
    # a deterministic work bound: comparing closures built alike without
    # applying them takes zipwith from 2087 conversion steps to 865,
    # evaluating each application once per declaration to 557, sharing
    # the values without fields to 541, and, at the least `--fuel` that
    # passes, keeping declarations' applications folded and comparing them
    # by head from 435 to 326
    code, out, err = run(capsys, "check", "--fuel", "1200",
                         str(corpus_dir / "zipwith.gctt"))
    assert (code, err) == (0, "") and "ok" in out


def check_by_main(capsys, path):
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (0, "")


def check_by_library(capsys, path):
    """Parse and check `path` with a fresh checker, its imports first."""
    module = parse_module(path.read_text())
    imports = [check_by_library(capsys, path.parent / f"{name}.gctt")
               for name in module.imports]
    return Checker().check_module(module, imports)


@pytest.mark.parametrize("check", [check_by_main, check_by_library],
                         ids=["main", "library"])
def test_in_process_checks_keep_the_heap_flat(capsys, corpus_dir, check):
    """What a check builds dies with its syntax tree, the fixed-point types
    registered on its nodes included, so repeated checks in one process do
    not grow the heap, through `main` or not (0.33 MB a pass while a
    module-level registry outlived each check)."""
    files = [corpus_dir / f"{name}.gctt"
             for name in ("zipwith", "unique_fix", "y_combinator")]

    def one_pass():
        for path in files:
            check(capsys, path)

    one_pass()  # warm-up
    passes = 5
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(passes):
            one_pass()
        gc.collect()
        growth = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert growth / passes < 0.05e6


def test_transport_through_a_composed_universe_line(capsys, corpus_dir):
    # the contraction of the identity equivalence's fibers is a path
    code, out, err = run(capsys, "normalize", str(corpus_dir / "funext.gctt"),
                         "--expr",
                         "transp i ((comp j U [ (i=0) -> N ] N) * N) (1, 2)")
    assert (code, err) == (0, "")
    assert out.strip() == "(glue [] 1, 2)"


def write_module(tmp_path, name, text):
    path = tmp_path / f"{name}.gctt"
    path.write_text(f"module {name} where\n\n{text}\n")
    return str(path)


SHADOW = """z : |> N = next 0

f : (a : |> N) -> N -> |> N = \\a c -> next [{b} <- z, b <- a] b"""


@pytest.mark.parametrize("binder", ["a", "a2"])
def test_delayed_substitution_entries_lie_outside_its_binders(
        capsys, tmp_path, binder):
    # the entry `b <- a` refers to the lambda's a, not to the binder before it
    path = write_module(tmp_path, "shadow", SHADOW.format(b=binder))
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (2 declarations)\n")
    code, out, _ = run(capsys, "normalize", path, "--expr", "f (next 5) 0")
    assert (code, out.strip()) == (0, "next 5")
    code, out, _ = run(capsys, "normalize", path, "f")
    assert (code, out.strip()) == (0, r"\a -> \c -> a")


def test_fix_sugar_over_unglue(capsys, tmp_path):
    path = write_module(tmp_path, "ung",
                        r"k : (Glue [] N) -> N = \g -> fix 0 x. unglue g")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (1 declarations)\n")


def _unfolded_body(path):
    """The body of the module's one declaration, a binder over a fixed
    point, with the fixed point unfolded."""
    (decl,) = parse_module(Path(path).read_text()).declarations
    binder = decl.body
    return term_str(type(binder)(*binder.field_values[:-1],
                                 unfold_fix(binder.body)))


def test_fix_sugar_does_not_capture_its_clock(tmp_path):
    # the fixed point's clock i is the outer i: the inner binder is renamed
    path = write_module(tmp_path, "capt", "c : N = <i> fix i x. <i> x")
    assert _unfolded_body(path) == "<i> <i1> dfix i x. <i> x"


def test_fix_sugar_renames_apart_nested_binders(tmp_path):
    # the inner y is renamed to y1 for the outer y; the binder already named
    # y1 is renamed to y2, so the last y still refers to the middle binder
    path = write_module(
        tmp_path, "nest",
        r"g : N -> N = \y -> fix 0 x. (y, \(y : N) -> \(y1 : N) -> (x, y))")
    assert _unfolded_body(path) == (
        r"\y -> (y, \(y1 : N) -> \(y2 : N) -> "
        r"(dfix 0 x. (y, \(y : N) -> \(y1 : N) -> (x, y)), y1))")


def test_fixed_point_clock_is_checked_when_the_body_ignores_it(capsys,
                                                               tmp_path):
    path = write_module(tmp_path, "c", "c : N = fix i x. 0")
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert err.strip() == f"{path}:3:9: [unbound] interval name i not in scope"


def test_an_inferred_fixed_point_clock_is_checked_when_the_body_ignores_it(
        capsys):
    code, out, err = run(capsys, "normalize", "--expr", "fix i x. 0")
    assert (code, out) == (1, "")
    assert err.strip() == "<expr>:1:1: [unbound] interval name i not in scope"


def test_loeb_induction_failure_names_the_failure_in_its_body(capsys,
                                                              tmp_path,
                                                              corpus_dir):
    # the statement's right side made equal to its left: the comp's base no
    # longer agrees with the swapped tube at (i=1), a failure inside the fix
    (tmp_path / "streams.gctt").write_text(
        (corpus_dir / "streams.gctt").read_text())
    path = tmp_path / "zipwith.gctt"
    path.write_text((corpus_dir / "zipwith.gctt").read_text().replace(
        "(zipWith A A B f s2 s1)", "(zipWith A A B f s1 s2)"))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert err.startswith(f"{path}:29:7: [mismatch] ")
    assert "30:9: [boundary-violation]" in err


def test_next_is_eta_equal_to_a_neutral(capsys, tmp_path):
    path = write_module(
        tmp_path, "eta",
        "e : (t : |> N) -> Path (|> N) (next [x <- t] ((\\(y : N) -> y) x)) t"
        " = \\t -> <i> t")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (1 declarations)\n")


def test_composition_in_the_universe_prints_its_glue_type(capsys):
    # the equivalence is the identity equivalence of N transported along
    # the constant line: its binders print as the kernel names them
    code, out, err = run(capsys, "normalize", "--expr",
                         "<i> comp j U [ (i=0) -> N ] N")
    assert (code, err) == (0, "")
    golden = Path(__file__).resolve().parent / "golden" / "univ_comp.txt"
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("expr, normal_form", [
    # the inner x is printed x1, which the inferred type mentions
    (r"(\(x : N) -> \(x : N) -> \(y : Path N x x) -> y) 0 1",
     r"\y -> <i> y @ i"),
    (r"\(x : |> N) -> next [x <- x] (<j> x)",
     r"\x -> next [x1 <- x] (<j> x1)"),
])
def test_inferred_types_mention_the_printed_names(capsys, expr, normal_form):
    code, out, err = run(capsys, "normalize", "--expr", expr)
    assert (code, err, out.strip()) == (0, "", normal_form)


def test_the_type_inferred_for_a_next_is_weakened(capsys):
    # the inner next is typed |> N, not |> [z <- t] N, so it is a binding
    # whose later type needs no preceding binding
    code, out, err = run(capsys, "normalize", "--expr",
                         r"\(t : |> N) -> next [y <- next [z <- t] (suc z)] y")
    assert (code, err, out) == (0, "", "\\t -> next [z <- t] (suc z)\n")


def test_inferred_type_keeps_a_shadowed_variable(capsys, tmp_path):
    # p's type names the outer x, which the inner x shadows
    path = write_module(
        tmp_path, "shadowed",
        r"h : Path N 0 0 = (\(x : N) -> \(p : Path N x x) -> \(x : N) -> p)"
        r" 0 (<i> 0) 1")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (1 declarations)\n")


def test_path_abstraction_over_a_type_under_a_binder(capsys, tmp_path):
    # the lambda's inferred type mentions i, so it depends on i
    path = write_module(
        tmp_path, "dep",
        "g : (q : Path N 0 1) -> (x : N) -> Path N (q @ 0) (q @ 0)"
        r" = \q -> (<i> \(x : N) -> <j> q @ i) @ 1")
    code, _, err = run(capsys, "check", path)
    assert code == 1
    assert err.endswith("[mismatch] path abstraction over a dependent type\n")


def test_next_substitution_in_the_terms_delayed_substitution(
        capsys, tmp_path):
    # y's binding is inlined by next-substitution, so in the body y is suc w
    path = write_module(
        tmp_path, "nextsub",
        "bad : (t : |> N) -> |> [w <- t, y <- next [z <- t] (suc z)]"
        " (Path N y y) = \\t -> next [w <- t, y <- next [z <- t] (suc z)]"
        " (<k> y)")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (1 declarations)\n")
    code, out, _ = run(capsys, "normalize", path, "bad")
    assert (code, out.strip()) == (0, r"\t -> next [w <- t] (<k> suc w)")


def test_normalize_unknown_declaration(capsys, corpus_dir):
    code, _, err = run(capsys, "normalize", str(corpus_dir / "funext.gctt"),
                       "missing")
    assert code == 1 and "unknown declaration" in err


# ---------------------------------------------------------------------------
# parse


def test_parse_prints_round_trippable_module(capsys, corpus_dir):
    code, out, _ = run(capsys, "parse", str(corpus_dir / "unique_fix.gctt"))
    assert code == 0
    from gctt.parser import parse_module

    first = parse_module(out)
    code2, out2, _ = run_parse_text(capsys, out)
    assert code2 == 0
    assert parse_module(out2) == first


def run_parse_text(capsys, text):
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as d:
        p = Path(d) / "m.gctt"
        text = text.replace("module unique_fix", "module m")
        p.write_text(text)
        code = main(["parse", str(p)])
    captured = capsys.readouterr()
    return code, captured.out.replace("module m", "module unique_fix"), captured.err


@pytest.mark.parametrize("argv", [
    ["parse", "--search-path", "lib", "m.gctt"],
    ["parse", "--fuel", "10", "m.gctt"],
    ["parse", "--report", "m.gctt"],
    ["parse", "--no-corpus-cache", "m.gctt"],
    ["normalize", "--report", "--expr", "0"],
])
def test_options_a_subcommand_would_ignore_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_parse_garbage_exit_2(capsys, tmp_path):
    p = tmp_path / "g.gctt"
    p.write_text("module g where\n= : =")
    code, _, err = run(capsys, "parse", str(p))
    assert code == 2 and "expected" in err


def test_a_digit_that_is_not_decimal_is_an_illegal_character(capsys,
                                                             tmp_path):
    # '²' passes str.isdigit but not int(); '١' is a decimal digit
    p = tmp_path / "sup.gctt"
    p.write_text("module sup where\n\nx : N = ²\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(p))
    assert (code, out) == (2, "")
    assert err.strip() == f"{p}:3:9: expected a token, found '²'"
    code, out, err = run(capsys, "normalize", "--expr", "²")
    assert (code, out) == (2, "")
    assert err.strip() == "--expr: 1:1: expected a token, found '²'"
    code, out, _ = run(capsys, "normalize", "--expr", "١٢")
    assert code == 0 and out.strip() == "12"


def test_a_numeral_too_large_is_a_parse_error(capsys):
    # int() refuses more than 4300 digits; the bound is checked first
    code, out, err = run(capsys, "normalize", "--expr", "1" * 4301)
    assert (code, out) == (2, "")
    assert err == ("--expr: 1:1: expected a numeral up to 100000,"
                   " found 111111111111...\n")


# ---------------------------------------------------------------------------
# determinism


def test_outputs_are_deterministic(capsys, corpus_dir):
    args = ("normalize", str(corpus_dir / "y_combinator.gctt"), "Y")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
