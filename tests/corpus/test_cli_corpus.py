"""The ``repro corpus`` command family."""

import json

import pytest

from repro.cli import main

GEN_ARGS = ["--sizes", "30", "40", "--measurement-fraction", "0.4",
            "--rtus-per-bus", "0.1", "--scada-seed", "3"]


@pytest.fixture
def corpus_root(tmp_path):
    root = str(tmp_path / "corpus")
    assert main(["corpus", "generate", root] + GEN_ARGS) == 0
    return root


def test_generate_prints_fingerprints(tmp_path, capsys):
    root = str(tmp_path / "corpus")
    assert main(["corpus", "generate", root] + GEN_ARGS) == 0
    out = capsys.readouterr().out
    assert "2 grid recipe(s)" in out
    assert "30 buses" in out and "40 buses" in out


def test_run_exit_code_reflects_verdicts(corpus_root, capsys):
    # These grids have threats at k>=1, so the sweep exits 1 — the
    # same convention as verify.
    code = main(["corpus", "run", corpus_root, "--ks", "0", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "4 cell(s)" in out and "0 resumed" in out


def test_resumed_run_skips_and_agrees(corpus_root, capsys):
    main(["corpus", "run", corpus_root, "--ks", "0", "1", "--json"])
    cold = json.loads(capsys.readouterr().out)
    code = main(["corpus", "run", corpus_root, "--ks", "0", "1",
                 "--json"])
    resumed = json.loads(capsys.readouterr().out)
    assert code == 1
    assert resumed["skipped"] == 4
    assert resumed["solved"] == resumed["screened"] == 0
    assert resumed["verdicts"] == cold["verdicts"]


def test_unknown_cells_exit_3_even_when_resumed(corpus_root, capsys,
                                                monkeypatch):
    import repro.corpus.runner as runner_mod

    monkeypatch.setattr(runner_mod, "_screen_cell",
                        lambda engine, spec: None)
    code = main(["corpus", "run", corpus_root, "--ks", "1",
                 "--max-conflicts", "0"])
    capsys.readouterr()
    assert code == 3
    # The stored UNKNOWN still gates the exit code on resume: the
    # sweep as a whole proved less than was asked of it.
    assert main(["corpus", "run", corpus_root, "--ks", "1",
                 "--max-conflicts", "0"]) == 3


def test_status_command(corpus_root, capsys):
    main(["corpus", "run", corpus_root, "--ks", "0"])
    capsys.readouterr()
    assert main(["corpus", "status", corpus_root]) == 0
    out = capsys.readouterr().out
    assert "2 grid(s)" in out and "2 stored cell(s)" in out
    assert main(["corpus", "status", corpus_root, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["records"] == 2


def test_missing_corpus_exits_2(tmp_path, capsys):
    code = main(["corpus", "run", str(tmp_path / "nowhere")])
    err = capsys.readouterr().err
    assert code == 2
    assert "corpus generate" in err


def test_run_trace_covers_parallel_sweep(corpus_root, tmp_path, capsys,
                                        monkeypatch):
    import repro.corpus.runner as runner_mod
    from repro.obs.schema import load_trace, validate_trace

    # Unscreened cells are solved, so the workers have spans to ship
    # (forked workers inherit the patch).
    monkeypatch.setattr(runner_mod, "_screen_cell",
                        lambda engine, spec: None)
    trace = str(tmp_path / "sweep.jsonl")
    main(["corpus", "run", corpus_root, "--ks", "0", "--jobs", "2",
          "--trace", trace])
    capsys.readouterr()
    records = load_trace(trace)
    assert validate_trace(records) == []
    tasks = [r for r in records
             if r["type"] == "event" and r["name"] == "sweep.task"]
    assert len(tasks) == 2  # one task per grid
    assert all(isinstance(t["attrs"].get("worker"), int) for t in tasks)
    # Worker-side query spans were replayed with pid attribution.
    queries = [r for r in records
               if r["type"] == "span" and r["name"] == "query"]
    assert queries and all("worker" in q for q in queries)


def test_run_with_trace_feeds_stats(corpus_root, tmp_path, capsys):
    trace = str(tmp_path / "trace.jsonl")
    main(["corpus", "run", corpus_root, "--ks", "0", "--trace", trace])
    capsys.readouterr()
    assert main(["stats", trace]) == 0
    out = capsys.readouterr().out
    assert "corpus: 2 cell(s)" in out
    assert "record(s) appended" in out
