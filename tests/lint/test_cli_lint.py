"""The ``repro lint`` subcommand and the verify-time lint gate."""

import json

import pytest

from repro.cli import main

BAD_CONFIG = """\
[system]
states = 2

[jacobian]
1 0
0 1

[devices]
ied = 1 2
rtu = 3
mtu = 4

[links]
1 3
2 3
3 4

[measurements]
1: 1
99: 2
"""

GOOD_CONFIG = BAD_CONFIG.replace("99: 2", "2: 2")


@pytest.fixture
def bad_cfg(tmp_path):
    path = tmp_path / "bad.scada"
    path.write_text(BAD_CONFIG)
    return str(path)


@pytest.fixture
def good_cfg(tmp_path):
    path = tmp_path / "good.scada"
    path.write_text(GOOD_CONFIG)
    return str(path)


def test_lint_dangling_mapping_text(bad_cfg, capsys):
    assert main(["lint", bad_cfg]) == 1
    out = capsys.readouterr().out
    assert "error[SCADA001]" in out
    assert "device 99" in out


def test_lint_dangling_mapping_json(bad_cfg, capsys):
    assert main(["lint", bad_cfg, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert any(d["code"] == "SCADA001" for d in payload["diagnostics"])


def test_lint_clean_config_exits_zero(good_cfg, capsys):
    assert main(["lint", good_cfg]) == 0
    out = capsys.readouterr().out
    assert "0 errors" not in out  # summary counts only non-zero buckets
    assert "error[" not in out


def test_lint_builtin_case_study_exits_zero(capsys):
    """Acceptance criterion: the paper's 5-bus case lints clean."""
    assert main(["lint", "fig3"]) == 0
    out = capsys.readouterr().out
    assert "SCADA009" in out  # the two hmac-128 IEDs are warnings
    assert main(["lint", "fig4"]) == 0
    capsys.readouterr()


def test_lint_with_spec_can_upgrade_to_error(capsys):
    code = main(["lint", "fig3", "--property", "secured-observability",
                 "--k", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "error[SCADA009]" in out


def test_lint_unparseable_config(tmp_path, capsys):
    path = tmp_path / "broken.scada"
    path.write_text("[nonsense]\nstuff\n")
    assert main(["lint", str(path)]) == 2
    out = capsys.readouterr().out
    assert "CONFIG001" in out


def test_lint_missing_file(capsys):
    assert main(["lint", "/does/not/exist.scada"]) == 2
    assert "CONFIG001" in capsys.readouterr().out


def test_lint_dimacs_file(tmp_path, capsys):
    path = tmp_path / "formula.cnf"
    path.write_text("p cnf 4 2\n1 -2 0\n1 2 0\n")
    assert main(["lint", str(path)]) == 0
    out = capsys.readouterr().out
    assert "CNF001" in out  # vars 3 and 4 unconstrained
    assert "CNF004" in out  # var 1 is pure


def test_lint_bad_dimacs_file(tmp_path, capsys):
    path = tmp_path / "broken.cnf"
    path.write_text("p cnf x y\n")
    assert main(["lint", str(path)]) == 2
    assert "CONFIG001" in capsys.readouterr().out


def test_lint_encoding_flag(good_cfg, capsys):
    assert main(["lint", good_cfg, "--encoding", "--k", "1"]) in (0, 1)
    out = capsys.readouterr().out
    assert "good" in out or "scada" in out


def test_verify_refuses_bad_config(bad_cfg, capsys):
    code = main(["verify", bad_cfg, "--k", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "SCADA001" in err
    assert "--no-lint" in err


def test_verify_no_lint_overrides(bad_cfg, capsys):
    code = main(["verify", bad_cfg, "--k", "1", "--no-lint"])
    capsys.readouterr()
    assert code in (0, 1)
