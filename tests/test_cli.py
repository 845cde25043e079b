"""Command-line interface: exit codes, output shapes, determinism."""

import json

import pytest

from prolite.cli import build_parser, main
from prolite.harness import load_problems

PUZZLE = """\
problem(Number) :-
    A #>= 1, A #=< 9,
    B #>= 0, B #=< 9,
    C #>= 0, C #=< 9,
    D #>= 0, D #=< 9,
    A + B + C + D #= 20,
    A #= B + 1,
    B #= C + 6,
    C #= D + 1,
    Number #= A * 1000 + B * 100 + C * 10 + D,
    label([A, B, C, D]).
"""


@pytest.fixture
def puzzle_file(tmp_path):
    path = tmp_path / "puzzle.pl"
    path.write_text(PUZZLE)
    return str(path)


def test_run_prints_solution_and_exits_zero(puzzle_file, capsys):
    code = main(["run", puzzle_file, "-q", "problem(N)"])
    out = capsys.readouterr().out
    assert code == 0
    assert "N = 9821" in out


def test_run_no_solutions_exits_one(tmp_path, capsys):
    path = tmp_path / "p.pl"
    path.write_text("p(1).\n")
    code = main(["run", str(path), "-q", "p(2)"])
    assert code == 1
    assert "no solutions" in capsys.readouterr().out


def test_run_unknown_predicate_exits_two(tmp_path, capsys):
    path = tmp_path / "p.pl"
    path.write_text("p(1).\n")
    code = main(["run", str(path), "-q", "missing(X)"])
    assert code == 2
    assert "ExistenceError" in capsys.readouterr().err


def test_run_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.pl"
    path.write_text("p(1\n")
    assert main(["run", str(path), "-q", "p(X)"]) == 2


def test_run_rejects_a_zero_step_budget(puzzle_file, capsys):
    code = main(["run", puzzle_file, "-q", "problem(N)",
                 "--max-inference-steps", "0"])
    assert code == 2
    assert "budget limits must be positive" in capsys.readouterr().err


def test_run_enumerates_multiple_solutions(tmp_path, capsys):
    path = tmp_path / "p.pl"
    path.write_text("p(1). p(2). p(3).\n")
    assert main(["run", str(path), "-q", "p(X)"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["X = 1", "X = 2", "X = 3"]
    assert main(["run", str(path), "-q", "p(X)",
                 "--max-solutions", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_oracle_sumitup(capsys):
    code = main(["oracle", "sumitup", "--squares",
                 "1,-2,3,0,4,0,-1,-1,0,0", "--waitlist", "7,3,-4,-2",
                 "--rule", "plain"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "8"


def test_oracle_cinema(capsys):
    assert main(["oracle", "cinema", "--rows", "3", "--cols", "4",
                 "--pre", "1:2"]) == 0
    assert capsys.readouterr().out.strip() == "6"


def test_oracle_navigate(capsys):
    assert main(["oracle", "navigate", "--plan",
                 "step 3 forward; turn left; step 4 forward"]) == 0
    assert capsys.readouterr().out.strip() == "5"


def test_oracle_linear(tmp_path, capsys):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"coefficients": [[1]], "constants": [1],
                                "names": ["x"]}))
    assert main(["oracle", "linear", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "x = 1"


def test_oracle_csp(tmp_path, capsys):
    path = tmp_path / "csp.json"
    path.write_text(json.dumps({
        "domains": [[1, 9], [0, 9], [0, 9], [0, 9]],
        "constraints": [
            {"coeffs": [1, 1, 1, 1], "rel": "=", "const": 20},
            {"coeffs": [1, -1, 0, 0], "rel": "=", "const": 1},
            {"coeffs": [0, 1, -1, 0], "rel": "=", "const": 6},
            {"coeffs": [0, 0, 1, -1], "rel": "=", "const": 1}],
        "value": [1000, 100, 10, 1]}))
    assert main(["oracle", "csp", "--file", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "9821"


def test_gen_navigate_writes_loadable_problems(tmp_path):
    out = tmp_path / "nav.json"
    assert main(["gen-navigate", "--seed", "1", "-n", "10",
                 "--out", str(out)]) == 0
    problems = load_problems(out, include_fixtures=False)
    assert len(problems) == 10
    assert all(p.category == "navigate" for p in problems)


def test_gen_navigate_same_seed_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen-navigate", "--seed", "9", "-n", "5", "--out", str(a)])
    main(["gen-navigate", "--seed", "9", "-n", "5", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_navigate_zero_count_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gen-navigate", "--seed", "1", "-n", "0"])
    assert exc.value.code == 2


def test_eval_scripted_reference_accuracy_one(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["eval", "--provider", "scripted:reference",
                 "--repeats", "1", "--out", str(out),
                 "--max-attempts", "3"])
    assert code == 0
    summary = capsys.readouterr().out
    assert "accuracy 1.000" in summary
    report = json.loads((out / "report.json").read_text())
    assert all(row["accuracy"] == 1.0 for row in report["problems"])
    assert (out / "report.csv").exists()
    assert (out / "report.md").exists()
    assert list((out / "transcripts").iterdir())


def test_eval_flaky_reports_identically_across_runs(tmp_path):
    outs = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert main(["eval", "--provider", "flaky:0.5:7", "--repeats", "2",
                     "--out", str(out), "--max-attempts", "10",
                     "--formats", "json"]) == 0
        outs.append((out / "report.json").read_text())
    assert outs[0] == outs[1]


def test_eval_live_without_credential_exits_two(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.delenv("PROLITE_API_KEY", raising=False)
    code = main(["eval", "--provider", "live", "--base-url",
                 "http://localhost:9", "--model", "m",
                 "--out", str(tmp_path / "o"), "--max-attempts", "1"])
    assert code == 2
    assert "missing credential" in capsys.readouterr().err


def test_eval_unknown_provider_exits_two(tmp_path, capsys):
    assert main(["eval", "--provider", "wat", "--out",
                 str(tmp_path / "o")]) == 2


def test_eval_config_file_overridden_by_flags(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"max_attempts": 2}))
    out = tmp_path / "out"
    assert main(["eval", "--provider", "scripted:reference", "--out",
                 str(out), "--config", str(config),
                 "--formats", "json"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["meta"]["max_attempts"] == 2
    out2 = tmp_path / "out2"
    assert main(["eval", "--provider", "scripted:reference", "--out",
                 str(out2), "--config", str(config),
                 "--max-attempts", "4", "--formats", "json"]) == 0
    report2 = json.loads((out2 / "report.json").read_text())
    assert report2["meta"]["max_attempts"] == 4


def test_eval_rejects_unknown_config_keys(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"api_key": "nope"}))
    assert main(["eval", "--provider", "scripted:reference", "--out",
                 str(tmp_path / "o"), "--config", str(config)]) == 2


def test_eval_dataset_file(tmp_path, capsys):
    dataset = tmp_path / "probs.json"
    dataset.write_text(json.dumps([{
        "id": "ext-1", "statement": "unused", "answer": 4,
        "category": "external"}]))
    out = tmp_path / "out"
    # flaky needs reference programs, so supply none and use max 1 attempt
    code = main(["eval", "--dataset", str(dataset), "--no-fixtures",
                 "--provider", "scripted:reference", "--out", str(out),
                 "--max-attempts", "1"])
    assert code == 2  # external problem has no reference program


def test_one_parser_per_process():
    assert build_parser() is build_parser()


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one call, a usage exit included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_reused_parser_answers_every_call_alike(puzzle_file, capsys):
    run = ["run", puzzle_file, "-q", "problem(N)"]
    calls = [run,
             ["gen-navigate", "--seed", "1", "-n", "0"],
             ["oracle", "navigate", "--plan", "step 3 forward"],
             ["--help"],
             run]
    first = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in first] == [0, 2, 0, 0, 0]
    assert first[0][1] == "N = 9821\n"
    assert "-n must be a positive integer" in first[1][2]
    assert first[2][1] == "3\n"
    assert first[3][1].startswith("usage: prolite ")
    assert first[4] == first[0]
    # the same calls again in this process, and each against a parser
    # built afresh, give the same exit codes and the same output
    assert [_outcome(argv, capsys) for argv in calls] == first
    for argv, outcome in zip(calls, first):
        build_parser.cache_clear()
        assert _outcome(argv, capsys) == outcome
