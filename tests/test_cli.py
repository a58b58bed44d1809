"""End-to-end CLI tests."""

import pytest

from repro.cli import main


def test_case5bus_command(capsys):
    assert main(["case5bus"]) == 0
    out = capsys.readouterr().out
    assert "fig3" in out and "fig4" in out
    assert "HOLDS" in out and "VIOLATED" in out


def test_generate_verify_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    assert main(["generate", "--buses", "14", "--seed", "5",
                 "--out", path]) == 0
    code = main(["verify", path, "--k", "0"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "observability" in out


def test_generate_to_stdout(capsys):
    assert main(["generate", "--buses", "14", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "[system]" in out and "[links]" in out


def test_verify_with_split_budget(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k1", "1", "--k2", "0",
                 "--property", "secured-observability"])
    out = capsys.readouterr().out
    assert "secured-observability" in out
    assert code in (0, 1)


def test_verify_threat_details_printed(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "5"])
    out = capsys.readouterr().out
    if code == 1:
        assert "failed devices" in out


def test_enumerate_command(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["enumerate", path, "--k", "2", "--limit", "5"])
    out = capsys.readouterr().out
    assert "threat vector" in out
    assert code in (0, 1)


def test_missing_requirement_errors(tmp_path):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    with pytest.raises(SystemExit):
        main(["verify", path])


def test_harden_command(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["harden", path, "--k", "0", "--max-repairs", "1"])
    out = capsys.readouterr().out
    assert "observability" in out
    assert code in (0, 1)


def test_max_resiliency_command(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    assert main(["max-resiliency", path]) == 0
    out = capsys.readouterr().out
    assert "maximal resiliency" in out
    assert "IEDs only" in out


def test_verify_with_link_budget(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "0", "--link-k", "1"])
    out = capsys.readouterr().out
    assert "link failures" in out
    assert code in (0, 1)


def test_verify_command_deliverability(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k2", "1", "--k1", "0",
                 "--property", "command-deliverability"])
    out = capsys.readouterr().out
    assert "command-deliverability" in out
    assert code in (0, 1)


def test_verify_certify_flag(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "0", "--certify"])
    out = capsys.readouterr().out
    if code == 0:
        assert "independently checked: True" in out


def test_verify_conflict_budget_returns_unknown(tmp_path, capsys):
    from repro.cli import EXIT_UNKNOWN

    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "30", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "3", "--max-conflicts", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_UNKNOWN == 3
    assert "UNKNOWN" in out and "conflicts limit" in out


def test_verify_timeout_flag_never_lies(tmp_path, capsys):
    # A generous timeout must not change the verdict of an easy query.
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "0", "--timeout", "60"])
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert "UNKNOWN" not in out


def test_enumerate_budget_marks_incomplete(tmp_path, capsys):
    from repro.cli import EXIT_UNKNOWN

    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "30", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["enumerate", path, "--k", "2", "--limit", "50",
                 "--max-conflicts", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_UNKNOWN
    assert "incomplete" in out


def test_verify_trace_roundtrip_through_stats(tmp_path, capsys):
    import json

    from repro.obs.schema import load_trace, validate_trace
    from repro.obs.tracer import current_tracer

    path = str(tmp_path / "system.scada")
    trace = str(tmp_path / "t.jsonl")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["verify", path, "--k", "1", "--trace", trace])
    assert code in (0, 1)
    # The tracer was uninstalled and the trace validates end to end.
    assert current_tracer() is None
    records = load_trace(trace)
    assert validate_trace(records) == []
    span_names = {r["name"] for r in records if r["type"] == "span"}
    assert {"query", "encode", "solve"} <= span_names
    capsys.readouterr()
    assert main(["stats", trace]) == 0
    out = capsys.readouterr().out
    assert "phase timings" in out and "queries: 1" in out
    assert main(["stats", trace, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["traces"] == 1
    assert payload["queries"]["count"] == 1
    assert payload["problems"] == []


def test_stats_rejects_missing_file(tmp_path, capsys):
    code = main(["stats", str(tmp_path / "nope.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert "error" in err


def test_stats_flags_malformed_trace(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"type": "span", "name": "solve"}\n')
    code = main(["stats", str(bad)])
    out = capsys.readouterr().out
    assert code == 2
    assert "schema problems" in out


def test_audit_builtin_case(capsys):
    assert main(["audit", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "agreement" in out
    assert "security indices" in out


def test_audit_json_format(capsys):
    import json

    assert main(["audit", "fig4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["disagreements"] == []
    assert payload["checks"] > 0


def test_audit_generated_config(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    assert main(["audit", path, "--property", "observability"]) == 0
    assert "agreement" in capsys.readouterr().out


def test_audit_unparseable_config(tmp_path, capsys):
    assert main(["audit", str(tmp_path / "nope.scada")]) == 2
    assert "error" in capsys.readouterr().err


def test_max_resiliency_no_screen_agrees(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    assert main(["max-resiliency", path]) == 0
    screened = capsys.readouterr().out
    assert main(["max-resiliency", path, "--no-screen"]) == 0
    unscreened = capsys.readouterr().out
    assert screened == unscreened


def test_enumerate_screened_empty_space(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["enumerate", path, "--k", "0"])
    out = capsys.readouterr().out
    if "structurally screened" in out:
        assert code == 0
    else:
        assert code in (0, 1)


def test_emulate_is_deterministic_jsonl(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    first = str(tmp_path / "a.jsonl")
    second = str(tmp_path / "b.jsonl")
    assert main(["emulate", path, "--events", "10", "--seed", "3",
                 "--out", first]) == 0
    assert main(["emulate", path, "--events", "10", "--seed", "3",
                 "--out", second]) == 0
    with open(first, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 10
    import json as _json
    records = [_json.loads(line) for line in lines]
    assert [r["seq"] for r in records] == list(range(1, 11))
    with open(second, encoding="utf-8") as handle:
        assert handle.read().splitlines() == lines


def test_emulate_rejects_unknown_scenario(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    assert main(["emulate", path, "--scenarios", "zero-day"]) == 2
    assert "error" in capsys.readouterr().err


def test_watch_selfcheck_over_events_file(tmp_path, capsys):
    path = str(tmp_path / "system.scada")
    events = str(tmp_path / "events.jsonl")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    main(["emulate", path, "--events", "6", "--seed", "3",
          "--out", events])
    capsys.readouterr()
    code = main(["watch", path, "--events-file", events,
                 "--selfcheck", "--k", "0"])
    out = capsys.readouterr()
    assert code in (0, 1)
    assert "baseline" in out.out
    assert "watched 6 event(s)" in out.out
    assert "SELFCHECK MISMATCH" not in out.err


def test_watch_json_stream_and_trace(tmp_path, capsys):
    import json as _json

    from repro.obs.schema import validate_trace

    path = str(tmp_path / "system.scada")
    trace = str(tmp_path / "watch.jsonl")
    main(["generate", "--buses", "14", "--seed", "5", "--out", path])
    capsys.readouterr()
    code = main(["watch", path, "--emulate", "4", "--seed", "1",
                 "--k", "0", "--json", "--trace", trace])
    out = capsys.readouterr().out
    assert code in (0, 1)
    records = [_json.loads(line) for line in out.splitlines()]
    assert sum(1 for r in records if "event" in r) == 4
    assert "final" in records[-1]
    with open(trace, encoding="utf-8") as handle:
        trace_records = [_json.loads(line) for line in handle
                         if line.strip()]
    assert validate_trace(trace_records) == []
    counters = trace_records[-1]["counters"]
    assert counters.get("stream.events") == 4
