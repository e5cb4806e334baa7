"""Command-line interface tests: exit codes, reports, determinism."""

import json

import pytest

from gctt.cli import main


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


def test_no_corpus_cache_still_checks(capsys, corpus_dir):
    code, _, _ = run(capsys, "check", "--no-corpus-cache",
                     str(corpus_dir / "streams.gctt"),
                     str(corpus_dir / "zipwith.gctt"))
    assert code == 0


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


def test_normalize_expr_with_at(capsys, corpus_dir):
    args = ["normalize", str(corpus_dir / "unfold_lemma.gctt"),
            "--expr",
            r"\(A : U) -> \(f : (|> A) -> A) -> (unfold_path A f) @ i"]
    code0, out0, _ = run(capsys, *args, "--at", "i=0")
    code1, out1, _ = run(capsys, *args, "--at", "i=1")
    assert code0 == code1 == 0
    assert out0.strip() == r"\A -> \f -> f (dfix 0 x. f x)"
    assert out1.strip() == r"\A -> \f -> f (next (f (dfix 0 x. f x)))"


def test_normalize_ill_typed_expr(capsys, corpus_dir):
    code, _, err = run(capsys, "normalize", str(corpus_dir / "funext.gctt"),
                       "--expr", "funext 0")
    assert code == 1


def test_normalize_expr_respects_fuel(capsys):
    expr = r"(\(A : U) -> \(x : A) -> x) N 0"
    code, out, err = run(capsys, "normalize", "--fuel", "1", "--expr", expr)
    assert code == 1 and out == ""
    assert err.strip() == ("<expr>:1:1: [mismatch] conversion fuel exhausted"
                           " (see --fuel)")
    code, out, _ = run(capsys, "normalize", "--expr", expr)
    assert code == 0 and out.strip() == "0"


def test_fuel_error_carries_the_declaration_span(capsys, corpus_dir):
    path = corpus_dir / "funext.gctt"
    code, _, err = run(capsys, "check", "--fuel", "1", str(path))
    assert code == 1
    # the first declaration, funext, starts on line 4
    assert err.startswith(f"{path}:4:1: [mismatch] conversion fuel exhausted")


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


def test_fix_sugar_does_not_capture_its_clock(capsys, tmp_path):
    # the fixed point's clock i is the outer i: the inner binder is renamed
    path = write_module(tmp_path, "capt", "c : N = <i> fix i x. <i> x")
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    assert "c : N = <i> <i1> dfix i x. <i> x" in out.splitlines()


def test_fix_sugar_renames_apart_nested_binders(capsys, tmp_path):
    # the inner y is renamed to y1 for the outer y; the binder already named
    # y1 is renamed to y2, so the last y still refers to the middle binder
    path = write_module(
        tmp_path, "nest",
        r"g : N -> N = \y -> fix 0 x. (y, \(y : N) -> \(y1 : N) -> (x, y))")
    code, out, _ = run(capsys, "parse", path)
    assert code == 0
    assert (r"g : N -> N = \y -> (y, \(y1 : N) -> \(y2 : N) -> "
            r"(dfix 0 x. (y, \(y : N) -> \(y1 : N) -> (x, y)), y1))"
            in out.splitlines())


def test_next_is_eta_equal_to_a_neutral(capsys, tmp_path):
    path = write_module(
        tmp_path, "eta",
        "e : (t : |> N) -> Path (|> N) (next [x <- t] ((\\(y : N) -> y) x)) t"
        " = \\t -> <i> t")
    code, out, err = run(capsys, "check", path)
    assert (code, err) == (0, "") and out.endswith(": ok (1 declarations)\n")


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


# ---------------------------------------------------------------------------
# determinism


def test_outputs_are_deterministic(capsys, corpus_dir):
    args = ("normalize", str(corpus_dir / "y_combinator.gctt"), "Y")
    first = run(capsys, *args)
    second = run(capsys, *args)
    assert first == second and first[0] == 0
