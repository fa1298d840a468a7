"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def test_attack_command(capsys):
    code = main(["attack", "--alpha", "0.25", "--ratio", "2:3",
                 "--model", "relative"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.2739" in out
    assert "advantage" in out


def test_attack_orphans_model(capsys):
    code = main(["attack", "--alpha", "0.01", "--ratio", "2:3",
                 "--model", "orphans"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.7746" in out


def test_attack_timeout(capsys):
    """A generous ``--timeout`` prints exactly what an unbounded run
    prints; one that cannot be met exits 2 with the typed error."""
    argv = ["attack", "--alpha", "0.25", "--ratio", "2:3"]
    assert main(argv) == 0
    unbounded = capsys.readouterr().out
    assert main(argv + ["--timeout", "600"]) == 0
    assert capsys.readouterr().out == unbounded
    assert main(argv + ["--timeout", "1e-9"]) == 2
    assert "error: wall-clock budget exhausted" in capsys.readouterr().err


def test_bad_ratio_reports_error(capsys):
    code = main(["attack", "--ratio", "nonsense"])
    err = capsys.readouterr().err
    assert code == 2
    assert "ratio" in err


def test_figures_command(capsys):
    code = main(["figures"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 1" in out and "Figure 3" in out


def test_games_command(capsys):
    code = main(["games"])
    out = capsys.readouterr().out
    assert code == 0
    assert "consensus equilibria -> True" in out
    assert "final MG 2.0 MB" in out


def test_latency_command(capsys):
    code = main(["latency", "--blocks", "300", "--delay", "30"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fork rate" in out


def test_validate_command(capsys):
    code = main(["validate", "--alpha", "0.10", "--ratio", "1:1",
                 "--steps", "8000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "exact utility" in out


def test_validate_command_multi_seed(capsys):
    code = main(["validate", "--alpha", "0.10", "--ratio", "1:1",
                 "--model", "relative", "--steps", "5000",
                 "--seeds", "2", "--trajectories", "4",
                 "--workers", "2", "--engine", "rollout"])
    out = capsys.readouterr().out
    assert code == 0
    assert "2 seeds x 4 trajectories" in out
    assert "99% CI" in out
    assert "z-score" in out
    assert "contains" in out


def test_tables_command_fast(capsys):
    code = main(["tables", "table4", "--fast"])
    out = capsys.readouterr().out
    assert code == 0
    assert "table4" in out


def test_race_command(capsys):
    code = main(["race", "--alpha", "0.10", "--ratio", "1:1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "P(chain 2 wins)" in out


def test_race_wait_strategy(capsys):
    code = main(["race", "--alpha", "0.01", "--ratio", "2:3",
                 "--strategy", "wait"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1.7746" in out


def test_deadline_command(capsys):
    code = main(["deadline", "--horizon", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "deadline efficiency" in out


def test_report_command(capsys, tmp_path):
    target = tmp_path / "r.md"
    code = main(["report", "--fast", "--output", str(target)])
    assert code == 0
    assert "table2" in target.read_text()


def test_qa_command(capsys, tmp_path):
    report = tmp_path / "qa.json"
    code = main(["qa", "--classes", "unichain", "--checks", "pi", "lp",
                 "--seeds", "0", "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "unichain" in out and "0 failures" in out
    assert '"all_passed": true' in report.read_text()


def test_qa_command_reports_failure(capsys, monkeypatch):
    from repro.qa import conformance

    def boom(_inst):
        raise RuntimeError("injected")

    monkeypatch.setitem(conformance._CHECK_FNS, "pi", boom)
    code = main(["qa", "--classes", "unichain", "--checks", "pi",
                 "--seeds", "0"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL pi on unichain" in out


def test_serve_command_batch(capsys, tmp_path):
    """Batch serving: first run solves and backfills the atlas, the
    second answers the same request from it."""
    import json

    requests = tmp_path / "requests.jsonl"
    requests.write_text(
        '{"alpha": 0.25, "ratio": "2:3", "model": "relative"}\n'
        '{"alpha": 0.25, "ratio": "2:3", "model": "relative"}\n')
    atlas = tmp_path / "atlas"

    code = main(["serve", "--atlas", str(atlas),
                 "--requests", str(requests)])
    captured = capsys.readouterr()
    assert code == 0
    first = [json.loads(line) for line in
             captured.out.strip().splitlines()]
    assert [r["ok"] for r in first] == [True, True]
    assert first[0]["utility"] == pytest.approx(first[1]["utility"])
    assert {r["coalesced"] for r in first} == {True, False}
    assert "coalesced: 1" in captured.err

    code = main(["serve", "--atlas", str(atlas),
                 "--requests", str(requests)])
    captured = capsys.readouterr()
    assert code == 0
    again = [json.loads(line) for line in
             captured.out.strip().splitlines()]
    assert all(r["source"] == "atlas" for r in again)
    assert again[0]["utility"] == pytest.approx(first[0]["utility"])


def test_serve_command_types_bad_requests(capsys, tmp_path):
    requests = tmp_path / "requests.jsonl"
    requests.write_text('{"alpha": 0.25, "ratio": "not-a-ratio"}\n')
    code = main(["serve", "--atlas", str(tmp_path / "atlas"),
                 "--requests", str(requests)])
    import json
    result = json.loads(capsys.readouterr().out.strip())
    assert code == 0  # the *request* failed, not the service
    assert result["ok"] is False
    assert "ratio" in result["message"]


def test_chaos_serve_command(capsys, tmp_path):
    code = main(["chaos", "--serve", "--steps", "30",
                 "--atlas", str(tmp_path / "atlas"), "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "invariants: ok" in out
    assert "requests answered" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_serve_without_a_mode_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["serve", "--atlas", str(tmp_path / "atlas")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage: repro serve" in err
    assert "--http PORT, --requests FILE or --warm" in err
    assert not (tmp_path / "atlas").exists()


def test_validate_method_flag(capsys):
    code = main(["validate", "--alpha", "0.3", "--ratio", "1:1",
                 "--engine", "rollout", "--method", "alias",
                 "--steps", "2000", "--seeds", "2",
                 "--trajectories", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "simulated utility" in out
