import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circletree
from circletree.cli import main


def _env_with_src() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(circletree.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_shuffle_command(capsys):
    code, out, _ = run_cli(capsys, "shuffle", "0.1", "2", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["0.1.2 1", "0.2.1 1", "2.0.1 1"]


def test_degree_commands(capsys):
    code, out, _ = run_cli(capsys, "degree", "--word", "0.1")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run_cli(capsys, "degree", "--rct", "1:0.0", "--m", "1")
    assert code == 0
    assert out.splitlines() == ["degree 5", "weight 3"]


def test_subsets_and_extractions(capsys):
    code, out, _ = run_cli(capsys, "subsets", "--rct", "1:1.0.2.0", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["{2}", "{2,3}", "{2,3,4}", "{2,4}", "{4}"]
    code, out, _ = run_cli(capsys, "extractions", "--rct", "1:1.0.2.0", "--m", "2")
    assert code == 0
    assert len(out.splitlines()) == 7
    code, out, _ = run_cli(capsys, "extractions", "--rct", "1:0.0.0", "--m", "1", "--all")
    assert code == 0
    assert len(out.splitlines()) == 26
    assert out.splitlines()[0] == "empty"
    code, out, _ = run_cli(capsys, "extractions", "--rct", "1:0.0", "--m", "1",
                           "--include-trivial")
    lines = out.splitlines()
    assert lines[0] == "empty" and lines[-1] == "total"


def test_coproduct_command(capsys):
    code, out, _ = run_cli(capsys, "coproduct", "--rct", "1:0", "--m", "1")
    assert code == 0
    assert out.splitlines() == [
        "1 | 1:0 1",
        "1:0 | 1 1",
        "1:1 | 1:e 1",
    ]


def test_antipode_command_all_methods(capsys):
    results = []
    for method in ("left", "right", "forest"):
        code, out, _ = run_cli(capsys, "antipode", "--rct", "1:0.0", "--m", "1",
                               "--method", method)
        assert code == 0
        results.append(out)
    assert results[0] == results[1] == results[2]
    assert results[0].splitlines()[0] == "1:0.0 -1"
    assert len(results[0].splitlines()) == 6


def test_antipode_default_method_prints_the_left_bytes(capsys):
    _, default, _ = run_cli(capsys, "antipode", "--rct", "1:0.0.1", "--m", "2")
    _, left, _ = run_cli(capsys, "antipode", "--rct", "1:0.0.1", "--m", "2",
                         "--method", "left")
    assert default == left


def test_cli_import_leaves_numpy_unloaded():
    """`import circletree.cli` loads no numpy and none of the heavy stdlib
    modules; only what the import adds counts, not what `site` loaded."""
    probe = ("import sys; before = set(sys.modules); import circletree.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    result = subprocess.run([sys.executable, "-c", probe], env=_env_with_src(),
                            capture_output=True, text=True, check=True)
    added = set(result.stdout.split())
    assert "circletree.cli" in added
    assert not added & {"numpy", "dataclasses", "inspect", "json"}


def test_stats_and_table1(capsys):
    code, out, _ = run_cli(capsys, "stats", "--rct", "1:0.0", "--m", "1")
    assert code == 0
    assert out.splitlines() == [
        "degree,method,generated,distinct,cancelled_mass",
        "5,recursive_left,8,6,2",
    ]
    code, out, _ = run_cli(capsys, "table1", "--max-degree", "13")
    assert code == 0
    assert out.splitlines() == [
        "degree,distinct_terms",
        "3,2", "5,6", "7,17", "9,50", "11,139", "13,390",
    ]


def test_table1_rejects_a_table_without_rows(capsys):
    for max_degree in ("2", "-5"):
        code, out, err = run_cli(capsys, "table1", "--max-degree", max_degree)
        assert (code, out) == (2, "")
        assert "below 3" in err
    code, out, _ = run_cli(capsys, "table1", "--max-degree", "3")
    assert (code, out.splitlines()) == (0, ["degree,distinct_terms", "3,2"])


@pytest.mark.parametrize("command, flags, refusal", [
    ("extractions", ["--all", "--include-trivial"], "not allowed with argument --all"),
    ("coproduct", ["--reduced", "--linearized"], "not allowed with argument --reduced"),
], ids=["extractions", "coproduct"])
def test_extractions_all_and_include_trivial_are_exclusive(capsys, command, flags, refusal):
    with pytest.raises(SystemExit) as exc:
        main([command, "--rct", "1:0.0", "--m", "1", *flags])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert refusal in captured.err


def test_prelie_command(capsys):
    code, out, _ = run_cli(capsys, "prelie", "--left", "2:1", "--right", "1:e", "--m", "2")
    assert code == 0
    assert out.splitlines() == ["2:0 1"]


def test_series_pipeline(tmp_path, capsys):
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text("1 2 1\n2 e 0\n")
    b.write_text("2 1 1\n")
    code, out, _ = run_cli(capsys, "group", str(a), str(b),
                           "--ell", "2", "--m", "2", "--maxlen", "4")
    assert code == 0
    assert out.splitlines() == ["1 2 1", "1 0.1 1", "2 1 1"]


def test_json_roundtrip_through_cli(tmp_path, capsys):
    doc = {
        "ell": 2, "m": 2, "max_len": 4,
        "terms": [{"channel": 1, "word": "2", "coeff": "1"}],
    }
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps(doc))
    doc_b = dict(doc, terms=[{"channel": 2, "word": "1", "coeff": "1"}])
    b.write_text(json.dumps(doc_b))
    code, out, _ = run_cli(capsys, "group", str(a), str(b), "--format", "json")
    assert code == 0
    result = json.loads(out)
    assert result["terms"] == [
        {"channel": 1, "word": "2", "coeff": "1"},
        {"channel": 1, "word": "0.1", "coeff": "1"},
        {"channel": 2, "word": "1", "coeff": "1"},
    ]


@pytest.mark.parametrize("text, message", [
    ("[]", "series document must be a JSON object, not list"),
    ('{"ell": 1, "m": 1, "max_len": 1, "terms": [{"channel": 1, "word": "1", "coeff": 2}]}',
     "field 'coeff' must be a JSON string, not 2"),
])
def test_wrongly_typed_json_is_a_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "j.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "invert", str(path), "--format", "json")
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse series {path}: {message}\n"


def test_json_shape_below_one_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "j.json"
    path.write_text('{"ell": 0, "m": 0, "max_len": 2, "terms": []}')
    for argv in (("invert", str(path)), ("group", str(path), str(path))):
        code, out, err = run_cli(capsys, *argv, "--format", "json")
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: cannot parse series {path}: series shape ell=0"), argv


def _json_pair(tmp_path) -> list[str]:
    """Two m=2 JSON documents known to length 3, with words of every length."""
    paths = []
    for name, terms in (("a", [(1, "2", "1"), (1, "0.1", "1/2"), (2, "1.2.1", "-1")]),
                        ("b", [(2, "1", "1"), (1, "2.2", "3"), (2, "0.1.2", "1/3")])):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"ell": 2, "m": 2, "max_len": 3, "terms": [
            {"channel": ch, "word": word, "coeff": k} for ch, word, k in terms]}))
        paths.append(str(path))
    return paths


@pytest.mark.parametrize("product", ["compose", "modcompose", "hatcompose", "group"])
def test_maxlen_truncates_json_input(tmp_path, capsys, product):
    """A JSON document read with --maxlen is cut there, as a text file is, and
    the product is the full one's terms up to that length."""
    a, b = _json_pair(tmp_path)
    code, out, err = run_cli(capsys, product, a, b, "--format", "json", "--maxlen", "2")
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert result["max_len"] == 2
    _, full, _ = run_cli(capsys, product, a, b, "--format", "json")
    terms = json.loads(full)["terms"]
    assert result["terms"] == [term for term in terms
                               if term["word"] == "e" or term["word"].count(".") < 2]


def test_maxlen_above_a_json_document_is_refused(tmp_path, capsys):
    a, b = _json_pair(tmp_path)
    for argv in (("group", a, b), ("convolve", a, b, "--coordmap", "a[1;1]"), ("invert", a)):
        code, out, err = run_cli(capsys, *argv, "--format", "json", "--maxlen", "4")
        assert (code, out) == (3, ""), argv
        assert err == f"error: --maxlen 4 is outside 0..3, the word lengths {a} is known to\n"


def test_ell_or_m_other_than_a_json_document_is_refused(tmp_path, capsys):
    """--ell and --m shape a text file; a JSON document states its own shape,
    so a flag that differs from it is refused and an equal one passes."""
    a, b = _json_pair(tmp_path)
    _, full, _ = run_cli(capsys, "group", a, b, "--format", "json")
    for flag, value, name in (("--ell", "7", "ell"), ("--m", "5", "m")):
        code, out, err = run_cli(capsys, "group", a, b, "--format", "json", flag, value)
        assert (code, out) == (3, ""), flag
        assert err == f"error: {flag} {value} differs from {a}, whose document has {name} 2\n"
    code, out, err = run_cli(capsys, "group", a, b, "--format", "json", "--ell", "2", "--m", "2")
    assert (code, out, err) == (0, full, "")


def test_convolve_past_the_json_maxlen_is_refused(tmp_path, capsys):
    a, b = _json_pair(tmp_path)
    argv = ("convolve", a, b, "--format", "json", "--coordmap", "a[2;1.2.1]")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    code, out, err = run_cli(capsys, *argv, "--maxlen", "2")
    assert (code, out) == (3, "")
    assert "exceeds the series truncation 2" in err


def test_invert_command(tmp_path, capsys):
    a = tmp_path / "a.series"
    a.write_text("1 1 1\n2 2 1\n")
    code, out, _ = run_cli(capsys, "invert", str(a),
                           "--ell", "2", "--m", "2", "--maxlen", "3")
    assert code == 0
    assert "1 1 -1" in out.splitlines()
    code, out, err = run_cli(capsys, "invert", str(a), "--maxlen", "-1")
    assert (code, out) == (2, "")
    assert err == "error: --maxlen -1 is below 0, the shortest word length\n"


def test_invert_reads_a_series_from_stdin(tmp_path, capsys, monkeypatch):
    text = "1 1 1\n2 0.2 -1/2\n"
    a = tmp_path / "a.series"
    a.write_text(text)
    from_file = run_cli(capsys, "invert", str(a), "--maxlen", "2")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run_cli(capsys, "invert", "-", "--maxlen", "2") == from_file
    assert from_file[0] == 0 and from_file[1]


def test_convolve_command(tmp_path, capsys):
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text("1 2 1\n")
    b.write_text("2 1 1\n")
    code, out, _ = run_cli(capsys, "convolve", str(a), str(b),
                           "--coordmap", "a[1;0.1]",
                           "--ell", "2", "--m", "2", "--maxlen", "4")
    assert code == 0
    assert out.strip() == "1"


def test_convolve_rejects_a_map_outside_the_alphabet(tmp_path, capsys):
    sq = tmp_path / "sq.series"
    sq.write_text("1 e 2\n1 0 1\n")  # m inferred as 1
    code, out, err = run_cli(capsys, "convolve", str(sq), str(sq), "--coordmap", "a[1;5]")
    assert (code, out) == (3, "")
    assert "above m=1" in err


def test_convolve_reports_the_tilde_terms_before_the_right_primitive_one(tmp_path, capsys):
    """The right factor is known to length 1 only: the first word past it is
    met in a tilde term, a[1;1.2], before the right-primitive a[1;0.1.2]."""
    long_series = tmp_path / "A.series"
    short_series = tmp_path / "short.series"
    long_series.write_text("1 1 1\n1 0.1.2 1\n")  # natural length 3
    short_series.write_text("1 1 1\n")  # natural length 1
    code, out, err = run_cli(capsys, "convolve", str(long_series), str(short_series),
                             "--ell", "2", "--m", "2", "--coordmap", "a[1;0.1.2]")
    assert (code, out) == (3, "")
    assert err == "error: word (1, 2) exceeds the series truncation 1\n"


def test_numcheck_command(capsys):
    code, out, _ = run_cli(capsys, "numcheck", "--kind", "shuffle", "--N", "400")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind,case,N,deviation"
    assert lines[-1].startswith("max deviation at N=400:")


def test_numcheck_needs_at_least_eight_intervals(capsys):
    for n in ("-1", "0", "7"):
        code, out, err = run_cli(capsys, "numcheck", "--kind", "shuffle", "--N", n)
        assert (code, out) == (2, "")
        assert "below 8" in err
    code, out, _ = run_cli(capsys, "numcheck", "--kind", "shuffle", "--N", "8")
    assert code == 0
    assert out.splitlines()[-1].startswith("max deviation at N=8:")


def test_numcheck_needs_a_positive_horizon(capsys):
    for t in ("0", "-1", "inf", "nan"):
        code, out, err = run_cli(capsys, "numcheck", "--kind", "shuffle", "--N", "8", "--T", t)
        assert (code, out) == (2, "")
        assert "--T" in err


def test_axioms_command(capsys):
    code, out, _ = run_cli(capsys, "axioms", "--max-degree", "4", "--m", "1")
    assert code == 0
    assert out.splitlines()[-1] == "OK"
    assert all(": OK (" in line for line in out.splitlines()[:-1])


def test_a_failed_check_exits_1(capsys, monkeypatch):
    from circletree import checks

    def failing(max_degree, m):
        raise AssertionError("coassociativity fails at 1:0")

    monkeypatch.setattr(checks, "run_axioms", failing)
    assert run_cli(capsys, "axioms", "--max-degree", "1", "--m", "1") == (
        1, "", "check failed: coassociativity fails at 1:0\n")


def test_axioms_rejects_an_empty_sweep(capsys):
    for argv in (("--max-degree", "3", "--m", "0"), ("--max-degree", "0"),
                 ("--max-degree", "-2", "--m", "1")):
        code, out, err = run_cli(capsys, "axioms", *argv)
        assert (code, out) == (2, "")
        assert "below 1" in err
    code, out, _ = run_cli(capsys, "axioms", "--max-degree", "1", "--m", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "OK"
    assert lines[0] == "coassociativity: OK (2 cases)"  # the two one-vertex trees


def test_axioms_reports_an_empty_suite_as_skipped(capsys):
    """The deshuffle suite needs a leading white vertex, so degree 3; below
    that it checks nothing and says so instead of reporting a pass."""
    for max_degree, m, cases in (("1", "1", 1), ("2", "1", 2), ("2", "2", 6)):
        code, out, err = run_cli(capsys, "axioms", "--max-degree", max_degree, "--m", m)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[0] == f"coassociativity: OK ({cases} cases)"
        assert lines[-2] == "deshuffle correspondence: skipped (0 cases)"
        assert lines[-1] == "OK"
        assert all(": OK (" in line for line in lines[:-2])
    _, out, _ = run_cli(capsys, "axioms", "--max-degree", "3", "--m", "1")
    assert "deshuffle correspondence: OK (1 cases)" in out.splitlines()
    assert "skipped" not in out


def test_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "antipode", "--rct", "1:0.0.1", "--m", "2")
    _, second, _ = run_cli(capsys, "antipode", "--rct", "1:0.0.1", "--m", "2")
    assert first == second


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "antipode", "--rct", "1:0.x", "--m", "1")
    assert code == 2
    assert "error:" in err
    code, _, err = run_cli(capsys, "subsets", "--rct", "3:0", "--m", "2")
    assert code == 2


def test_labels_below_one_without_m_are_parse_errors(tmp_path, capsys):
    code, out, err = run_cli(capsys, "degree", "--rct", "0:e")
    assert (code, out, err) == (2, "", "error: root label 0 must be >= 1\n")
    sq = tmp_path / "sq.series"
    sq.write_text("1 e 2\n1 1 1\n")
    code, out, err = run_cli(capsys, "convolve", str(sq), str(sq), "--coordmap", "a[0;1]")
    assert (code, out, err) == (2, "", "error: channel 0 must be >= 1\n")


def test_a_coordmap_channel_that_is_no_integer_is_a_parse_error(tmp_path, capsys):
    sq = tmp_path / "sq.series"
    sq.write_text("1 e 2\n1 1 1\n")
    code, out, err = run_cli(capsys, "convolve", str(sq), str(sq), "--coordmap", "a[x;1]")
    assert (code, out, err) == (2, "", "error: malformed channel in 'a[x;1]'\n")


def test_python_m_circletree_runs_the_cli():
    result = subprocess.run([sys.executable, "-m", "circletree", "shuffle", "0.1", "2", "--m", "2"],
                            env=_env_with_src(), capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines() == ["0.1.2 1", "0.2.1 1", "2.0.1 1"]


def test_a_closed_stdout_pipe_ends_the_run_quietly():
    """The reader takes one line of 230 kB and closes the pipe, whose buffer
    the rest overfills: the run ends with code 1 and nothing on stderr."""
    argv = ["extractions", "--rct", "1:0.0.0.0.0.0", "--m", "1", "--all"]
    proc = subprocess.Popen([sys.executable, "-m", "circletree", *argv], env=_env_with_src(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"empty\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (1, b"")


def test_semantic_error_exit_code(tmp_path, capsys):
    a = tmp_path / "a.series"
    b = tmp_path / "b.series"
    a.write_text("1 1 1\n")   # m inferred as 1
    b.write_text("2 2 1\n")   # m inferred as 2
    code, _, err = run_cli(capsys, "group", str(a), str(b))
    assert code == 3
    assert "error:" in err
