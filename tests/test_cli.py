"""End-to-end checks for the command-line interface."""

from pathlib import Path

import pytest

from diarkit.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_synth_diarize_score_report_flow(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    rc, out, err = run_cli(
        capsys,
        "synth",
        "--output",
        str(corpus),
        "--recordings",
        "2",
        "--duration",
        "30",
        "--seed",
        "5",
    )
    assert rc == 0
    assert "synthetic corpus" in out
    config = corpus / "config.yaml"
    assert config.is_file()

    run_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys, "diarize", "--config", str(config), "--output", str(run_dir)
    )
    assert rc == 0
    assert "2/2 recordings diarized" in out
    assert sorted(p.name for p in (run_dir / "hyp").glob("*.rttm")) == [
        "rec000.rttm",
        "rec001.rttm",
    ]
    assert (run_dir / "manifest.txt").is_file()
    assert (run_dir / "report.txt").is_file()

    rc, out, err = run_cli(capsys, "score", "--config", str(config), "--output", str(run_dir))
    assert rc == 0
    assert "ALL" in out
    assert "recording" in out

    (run_dir / "report.txt").unlink()
    (run_dir / "report.tsv").unlink()
    rc, out, err = run_cli(capsys, "report", "--config", str(config), "--output", str(run_dir))
    assert rc == 0
    assert (run_dir / "report.txt").is_file()
    first_line = (run_dir / "report.tsv").read_text().splitlines()[0]
    assert first_line.split("\t") == ["recording", "scored", "miss", "fa", "conf", "der", "jer"]


def test_report_reproduces_diarize_report_with_empty_hypothesis(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run_cli(
        capsys, "synth", "--output", str(corpus), "--recordings", "2", "--duration", "30", "--seed", "5"
    )[0] == 0
    # move rec001's speech 1000 s past the end of the recording: no window is
    # kept, so its hypothesis comes out empty
    sad = corpus / "sad.rttm"
    lines = []
    for line in sad.read_text().splitlines():
        fields = line.split()
        if fields[1] == "rec001":
            fields[3] = f"{float(fields[3]) + 1000.0:.3f}"
        lines.append(" ".join(fields))
    sad.write_text("\n".join(lines) + "\n")

    config, run_dir = corpus / "config.yaml", tmp_path / "run"
    assert run_cli(capsys, "diarize", "--config", str(config), "--output", str(run_dir))[0] == 0
    assert (run_dir / "hyp" / "rec001.rttm").read_text() == ""
    tsv, txt = (run_dir / "report.tsv").read_bytes(), (run_dir / "report.txt").read_bytes()
    rec001 = next(row for row in tsv.decode().splitlines() if row.startswith("rec001\t"))
    assert rec001.split("\t")[-2:] == ["1.0000", "1.0000"]

    (run_dir / "report.txt").unlink()
    (run_dir / "report.tsv").unlink()
    assert run_cli(capsys, "report", "--config", str(config), "--output", str(run_dir))[0] == 0
    assert (run_dir / "report.tsv").read_bytes() == tsv
    assert (run_dir / "report.txt").read_bytes() == txt
    rc, out, err = run_cli(capsys, "score", "--config", str(config), "--output", str(run_dir))
    assert rc == 0
    assert out.encode() == txt


def test_route_prints_one_line_per_recording(synthetic_corpus, tmp_path, capsys):
    out_dir = tmp_path / "routes"
    rc, out, err = run_cli(
        capsys, "route", "--config", str(synthetic_corpus), "--output", str(out_dir)
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines == ["rec000\twideband", "rec001\twideband", "rec002\twideband"]
    assert (out_dir / "routes.txt").read_text() == out


def test_missing_config_file_exits_one(tmp_path, capsys):
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(tmp_path / "absent.yaml"),
        "--output",
        str(tmp_path / "run"),
    )
    assert rc == 1
    assert err.startswith("config error:")
    assert "not found" in err


def test_diarize_requires_output(synthetic_corpus, capsys):
    rc, out, err = run_cli(capsys, "diarize", "--config", str(synthetic_corpus))
    assert rc == 1
    assert "config error:" in err
    assert "--output" in err


def test_core_subset_limits_processing(synthetic_corpus, tmp_path, capsys):
    core_file = tmp_path / "core.txt"
    core_file.write_text("# core recordings\nrec000\n")
    run_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(run_dir),
        "--subset",
        "core",
        "--core-list",
        str(core_file),
    )
    assert rc == 0
    assert "1/1 recordings diarized" in out
    assert [p.name for p in (run_dir / "hyp").glob("*.rttm")] == ["rec000.rttm"]


def test_core_subset_without_list_is_config_error(synthetic_corpus, tmp_path, capsys):
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(tmp_path / "run"),
        "--subset",
        "core",
    )
    assert rc == 1
    assert "--core-list" in err


def test_empty_core_list_is_config_error(synthetic_corpus, tmp_path, capsys):
    core_file = tmp_path / "core.txt"
    core_file.write_text("# nothing here\n\n")
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(tmp_path / "run"),
        "--subset",
        "core",
        "--core-list",
        str(core_file),
    )
    assert rc == 1
    assert "core list is empty" in err


def test_core_list_line_with_two_fields_is_config_error(synthetic_corpus, tmp_path, capsys):
    # one id per line: "rec000 extra" is not the id "rec000 extra"
    core_file = tmp_path / "core.txt"
    core_file.write_text("# core\nrec001\nrec000 extra\n")
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(tmp_path / "run"),
        "--subset",
        "core",
        "--core-list",
        str(core_file),
    )
    assert rc == 1
    assert f"{core_file}:3: expected one recording id per line" in err


def test_full_run_with_core_list_adds_core_row(synthetic_corpus, tmp_path, capsys):
    core_file = tmp_path / "core.txt"
    core_file.write_text("rec001\nrec002\n")
    run_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(run_dir),
        "--core-list",
        str(core_file),
    )
    assert rc == 0
    report = (run_dir / "report.txt").read_text()
    rows = [line.split()[0] for line in report.splitlines() if line.strip()]
    assert "ALL" in rows
    assert "CORE" in rows


def test_domain_map_adds_domain_table(synthetic_corpus, tmp_path, capsys):
    domain_file = tmp_path / "domains.txt"
    domain_file.write_text("rec000 tel\nrec001 tel\nrec002 web\n")
    run_dir = tmp_path / "run"
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(run_dir),
        "--domain-map",
        str(domain_file),
    )
    assert rc == 0
    report = (run_dir / "report.txt").read_text()
    assert "domain\trecordings\tmean_der\tmean_jer" in report
    assert any(line.startswith("tel\t2\t") for line in report.splitlines())
    assert any(line.startswith("web\t1\t") for line in report.splitlines())


def test_malformed_domain_map_is_config_error(synthetic_corpus, tmp_path, capsys):
    domain_file = tmp_path / "domains.txt"
    domain_file.write_text("rec000 tel extra\n")
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(tmp_path / "run"),
        "--domain-map",
        str(domain_file),
    )
    assert rc == 1
    assert f"{domain_file}:1: expected 'recording domain'" in err


def test_seed_override_is_recorded_in_manifest(synthetic_corpus, tmp_path, capsys):
    base, seeded = tmp_path / "base", tmp_path / "seeded"
    assert run_cli(capsys, "diarize", "--config", str(synthetic_corpus), "--output", str(base))[0] == 0
    rc, out, err = run_cli(
        capsys,
        "diarize",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(seeded),
        "--seed",
        "42",
    )
    assert rc == 0

    def manifest_hash(path: Path) -> str:
        for line in (path / "manifest.txt").read_text().splitlines():
            if line.startswith("config_hash:"):
                return line.split()[1]
        raise AssertionError("manifest has no config_hash line")

    assert manifest_hash(base) != manifest_hash(seeded)


def test_score_without_hypotheses_is_config_error(synthetic_corpus, tmp_path, capsys):
    rc, out, err = run_cli(
        capsys,
        "score",
        "--config",
        str(synthetic_corpus),
        "--output",
        str(tmp_path / "never_ran"),
    )
    assert rc == 1
    assert "run diarize first" in err


def test_synth_requires_output(capsys):
    rc, out, err = run_cli(capsys, "synth")
    assert rc == 1
    assert "--output" in err


def test_workers_flag_gives_identical_rttms(synthetic_corpus, tmp_path, capsys):
    one, many = tmp_path / "w1", tmp_path / "w4"
    for out_dir, workers in ((one, "1"), (many, "4")):
        rc, _, _ = run_cli(
            capsys,
            "diarize",
            "--config",
            str(synthetic_corpus),
            "--output",
            str(out_dir),
            "--workers",
            workers,
        )
        assert rc == 0
    for rec in ("rec000", "rec001", "rec002"):
        assert (one / "hyp" / f"{rec}.rttm").read_bytes() == (
            many / "hyp" / f"{rec}.rttm"
        ).read_bytes()
    assert (one / "report.tsv").read_bytes() == (many / "report.tsv").read_bytes()
