"""Tests for the command-line interface."""

import pytest

from repro import SystemConfig
from repro.attacks import ATTACKS
from repro.cli import build_parser, main


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table2_command(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "DDR4-2400" in out


def test_covert_command_single_attack(capsys):
    assert main(["covert", "--attack", "impact-pnm", "--bits", "64"]) == 0
    out = capsys.readouterr().out
    assert "impact-pnm" in out
    assert "Mb/s" in out


def test_covert_command_rejects_unknown_attack():
    with pytest.raises(SystemExit):
        main(["covert", "--attack", "rowhammer"])


def test_covert_eviction_switches_to_xor_mapping(capsys):
    assert main(["covert", "--attack", "drama-eviction", "--bits", "16"]) == 0
    assert "drama-eviction" in capsys.readouterr().out


def test_sidechannel_command(capsys):
    assert main(["sidechannel", "--banks", "64", "--rounds", "10"]) == 0
    out = capsys.readouterr().out
    assert "64 banks" in out
    assert "leaked" in out


def test_sidechannel_noise_defaults_to_the_fig10_rate():
    from repro.exp.figures import FIG10_NOISE_RATE

    parser = build_parser()
    assert parser.parse_args(["sidechannel"]).noise == FIG10_NOISE_RATE
    assert parser.parse_args(["sidechannel", "--noise", "0"]).noise == 0.0


def test_sidechannel_point_passes_the_noise_rate_through():
    """``--noise 0`` turns noise off: the attacker then decodes every
    probe and nothing else.  The default keeps the Fig. 10 rate."""
    from repro.exp.figures import sidechannel_point

    def outcome(**kwargs):
        payload = sidechannel_point(1024, rounds=100, **kwargs)
        return tuple(payload[key] for key in
                     ("correct", "missed", "false_positives", "cycles"))

    assert outcome(noise=0.0) == (100, 0, 0, 359102)
    assert outcome() == (100, 0, 3, 359102)


def test_recon_command(capsys):
    assert main(["recon", "--mapping", "row"]) == 0
    out = capsys.readouterr().out
    assert "bank bits" in out
    assert "'row'" in out


def test_detect_command(capsys):
    assert main(["detect", "--bits", "48"]) == 0
    out = capsys.readouterr().out
    assert "impact-pnm" in out
    assert "no cache activity" in out


def test_defenses_command_security_only(capsys):
    assert main(["defenses", "--bits", "64"]) == 0
    out = capsys.readouterr().out
    assert "mpr" in out
    assert "eliminated" in out


def test_report_command_writes_markdown_and_json(tmp_path, capsys):
    import json

    assert main(["report", "fig8", "--llc-mb", "8", "--bits", "64",
                 "--attacks", "impact-pnm", "impact-pum", "--jobs", "1",
                 "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "report written" in out

    md = (tmp_path / "fig8.md").read_text()
    assert "# Run report: fig8" in md
    assert "IMPACT-PnM" in md and "IMPACT-PuM" in md
    for column in ("BER 95% CI", "Capacity Mb/s", "Leakage t"):
        assert column in md
    assert "Trace summary" in md and "Sweep totals" in md
    assert "| Empties |" in md

    report = json.loads((tmp_path / "fig8.json").read_text())
    assert report["experiment"] == "fig8"
    point = report["points"][0]
    quality = point["payload"]["attacks"]["IMPACT-PnM"]
    for key in ("throughput_mbps", "ber", "ber_ci95", "capacity_mbps",
                "leakage_t", "eye_gap"):
        assert key in quality
    summary = point["trace_summary"]
    assert summary["events"] > 0 and summary["provenance"]["wall_s"] > 0
    assert report["totals"]["counts"]["RD"] > 0
    for rows in (summary["per_requestor"],
                 report["totals"]["per_requestor"]):
        assert {"sender", "receiver"} <= set(rows)
        for row in rows.values():
            assert row["hits"] + row["empties"] + row["conflicts"] == \
                row["operations"]


@pytest.mark.parametrize("argv", [
    ["table2", "--llc-mb", "0"],
    ["covert", "--llc-mb", "0"],
    ["covert", "--bits", "-4"],
    ["covert", "--bits", "0"],
    ["covert", "--noise", "-1"],
    ["sidechannel", "--rounds", "0"],
    ["sidechannel", "--banks", "64", "0"],
    ["sidechannel", "--noise", "-0.5"],
    ["defenses", "--max-refs", "0"],
    ["trace", "impact-pnm", "--bits", "0"],
    ["report", "fig8", "--llc-mb", "8", "0"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_size_flags_reject_values_out_of_range(argv, capsys):
    """A size of 0 or less (a noise rate below 0) is a usage error, not a
    silent default run, a 0.00 Mb/s row or a traceback."""
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_llc_size_is_applied_whenever_given(capsys):
    """``cli_config``, shared by the CLI and its sweep points, tests
    ``llc_mb is not None``: a size is never mistaken for "unset"."""
    from repro.exp.figures import cli_config, covert_point

    assert cli_config(4).hierarchy.llc_size_mb == 4.0
    assert cli_config().hierarchy.llc_size_mb == \
        SystemConfig.paper_default().hierarchy.llc_size_mb
    with pytest.raises(ValueError):
        covert_point("impact-pnm", bits=16, llc_mb=0)
    assert main(["table2", "--llc-mb", "4"]) == 0
    assert "1 MB/core" in capsys.readouterr().out


def test_report_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["report", "fig99"])


def test_trace_summary_of_existing_file(tmp_path, capsys):
    out_path = str(tmp_path / "t.trace.json")
    assert main(["trace", "impact-pnm", "--bits", "16",
                 "--out", out_path]) == 0
    capsys.readouterr()
    assert main(["trace", "impact-pnm", "--summary",
                 "--out", out_path]) == 0
    out = capsys.readouterr().out
    assert "events" in out
    assert "receiver" in out and "sender" in out
    # No cycle span: a point's transmissions each start at cycle 0.
    assert "empty" in out and "cycle span" not in out


@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_trace_runs_every_attack(attack, tmp_path, capsys):
    """Each channel runs under the mapping it needs: DRAMA-eviction
    builds its eviction sets only under the xor mapping."""
    out_path = tmp_path / "t.trace.json"
    assert main(["trace", attack, "--bits", "16",
                 "--out", str(out_path)]) == 0
    assert f"{attack}: 16 bits" in capsys.readouterr().out
    assert out_path.stat().st_size > 0


def test_trace_summary_missing_file(tmp_path, capsys):
    assert main(["trace", "impact-pnm", "--summary",
                 "--out", str(tmp_path / "absent.json")]) == 2
    assert "no trace file" in capsys.readouterr().err
