"""Tests for the top-level CLI (python -m repro)."""

import pytest

from repro.__main__ import main


def test_profiles_command(capsys):
    assert main(["profiles"]) == 0
    out = capsys.readouterr().out
    for name in ("tiny", "small", "medium", "paper"):
        assert name in out
    assert "6707" in out  # the paper scale is surfaced


def test_evaluate_command(capsys):
    assert main(["evaluate", "--pairs", "10"]) == 0
    out = capsys.readouterr().out
    assert "ROC AUC" in out
    assert "FPR" in out


def test_design_command(capsys, tmp_path):
    out_file = tmp_path / "design.json"
    assert (
        main(
            [
                "design",
                "YBL051C",
                "--generations",
                "2",
                "--scan",
                "3",
                "--out",
                str(out_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "anti-YBL051C" in out
    assert "Specificity scan" in out
    assert out_file.exists()

    from repro.io import load_design_result

    saved = load_design_result(out_file)
    assert saved.target == "YBL051C"


def test_design_with_telemetry(capsys, tmp_path, result_block_spans):
    metrics_file = tmp_path / "metrics.jsonl"
    assert (
        main(
            [
                "design",
                "YBL051C",
                "--generations",
                "2",
                "--telemetry",
                str(metrics_file),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "telemetry:" in out
    # The result blocks' spans of the route this process takes.
    for span in result_block_spans:
        assert span in out
    assert metrics_file.exists()

    from repro.telemetry import read_jsonl

    records = read_jsonl(metrics_file)
    assert any(r.get("event") == "ga.generation" for r in records)


def test_stats_command(capsys, tmp_path):
    out_file = tmp_path / "stats.jsonl"
    assert (
        main(["stats", "--generations", "2", "--out", str(out_file)]) == 0
    )
    out = capsys.readouterr().out
    assert "instrumented design" in out
    assert "ga.evaluate" in out
    assert "provider.cache" in out
    assert out_file.exists()
    sweep = next(line for line in out.splitlines() if line.startswith("sweep: "))
    assert sweep.startswith(("sweep: native (", "sweep: numpy ("))


def test_stats_command_csv(capsys, tmp_path):
    out_file = tmp_path / "stats.csv"
    assert (
        main(
            [
                "stats",
                "--generations",
                "2",
                "--format",
                "csv",
                "--out",
                str(out_file),
            ]
        )
        == 0
    )
    assert "CSV rows" in capsys.readouterr().out
    assert out_file.exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["design", "YBL051C", "--backend", "serial", "--degrade"], "--degrade"),
        (["design", "YBL051C", "--fail-fast"], "--fail-fast"),
    ],
)
def test_process_only_flags_rejected_for_other_backends(capsys, argv, flag):
    # Regression: these flags were silently dropped for non-process
    # backends; now they are named with exit code 2.
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert flag in err
    assert "process" in err


@pytest.mark.parametrize("command", ["design", "stats"])
def test_deleted_thread_backend_is_an_invalid_choice(capsys, command):
    with pytest.raises(SystemExit) as excinfo:
        main([command, "--backend", "thread"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'thread'" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["scaling", "min-workers", "max-workers"])
def test_deleted_pool_size_flags_are_unknown_arguments(capsys, flag):
    # The pool has one size (--workers); the resize flags are gone, and
    # argparse names whichever one is passed.
    with pytest.raises(SystemExit) as excinfo:
        main(["design", "YBL051C", "--workers", "2", f"--{flag}", "2"])
    assert excinfo.value.code == 2
    assert f"--{flag}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["design", "YBL051C", "--no-shm"], "unrecognized arguments: --no-shm"),
        (["stats", "--no-shm"], "unrecognized arguments: --no-shm"),
        (["design", "YBL051C", "--backend", "fabric"], "invalid choice: 'fabric'"),
        (["stats", "--backend", "fabric", "--workers", "2"],
         "invalid choice: 'fabric'"),
    ],
)
def test_deleted_shm_and_fabric_flags_are_rejected(capsys, argv, message):
    # The proteome is always shared and one campaign always takes the
    # process backend, so neither switch exists any more.
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["status", "result", "cancel"])
def test_jobs_cli_rejects_ids_that_leave_the_root(capsys, tmp_path, command):
    # Regression: an id was joined onto <root>/jobs unchecked, so
    # `jobs cancel ../../outside` wrote cancel.request outside the root
    # and `jobs status ../../outside` printed any status.json it reached.
    root = tmp_path / "svc"
    (root / "jobs").mkdir(parents=True)
    outside = tmp_path / "outside"
    outside.mkdir()
    (outside / "status.json").write_text('{"state": "DONE"}')
    (outside / "result.json").write_text('{"fitness": 1.0}')
    before = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*"))
    assert main(["jobs", command, "--root", str(root), "../../outside"]) == 2
    captured = capsys.readouterr()
    assert "job id must match" in captured.err
    assert captured.out == ""
    assert sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("*")) == before


def test_jobs_cli_round_trip(capsys, tmp_path):
    # submit -> serve (in-process, bounded) -> status/result/list: the
    # status and result schemas must round-trip through the CLI as JSON.
    import json

    root = tmp_path / "svc"
    assert (
        main(
            [
                "jobs", "submit", "--root", str(root), "YBL051C",
                "--tenant", "alice", "--generations", "2",
                "--population", "8", "--length", "20",
                "--job-id", "job-cli-1",
            ]
        )
        == 0
    )
    assert capsys.readouterr().out.strip() == "job-cli-1"

    assert (
        main(
            [
                "serve", "--root", str(root), "--workers", "1",
                "--max-concurrent", "1", "--poll-s", "0.05",
                "--idle-exit-s", "1",
            ]
        )
        == 0
    )
    assert "service stopped" in capsys.readouterr().out

    assert main(["jobs", "status", "--root", str(root), "job-cli-1"]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["format"] == "repro-job-status"
    assert status["state"] == "DONE"
    assert status["tenant"] == "alice"
    assert status["generations_done"] == 2

    assert main(["jobs", "result", "--root", str(root), "job-cli-1"]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["format"] == "repro-job-result"
    assert result["job_id"] == "job-cli-1"
    assert len(result["sequence"]) == 20
    assert result["history_digest"]

    assert main(["jobs", "list", "--root", str(root)]) == 0
    listing = capsys.readouterr().out
    assert "job-cli-1" in listing and "DONE" in listing


def test_jobs_cli_errors(capsys, tmp_path):
    root = tmp_path / "svc"
    assert main(["jobs", "status", "--root", str(root), "job-nope"]) == 2
    assert "not found" in capsys.readouterr().err
    assert main(["jobs", "cancel", "--root", str(root), "job-nope"]) == 2
    assert "no such job" in capsys.readouterr().err
    assert (
        main(
            ["jobs", "submit", "--root", str(root), "YBL051C",
             "--generations", "0"]
        )
        == 2
    )
    assert "generations" in capsys.readouterr().err
    assert main(["jobs", "list", "--root", str(root)]) == 0
    assert "no jobs" in capsys.readouterr().out
