"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "mrscan" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_generate_binary(tmp_path, capsys):
    out = tmp_path / "pts.bin"
    assert main(["generate", "twitter", "500", str(out), "--seed", "3"]) == 0
    assert out.exists()
    assert "500" in capsys.readouterr().out


def test_generate_text_roundtrip(tmp_path):
    out = tmp_path / "pts.txt"
    main(["generate", "blobs", "100", str(out), "--format", "text"])
    from repro.io.formats import read_points_text

    assert len(read_points_text(out)) == 100


def test_cluster_command(tmp_path, capsys):
    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "800", str(data), "--seed", "1"])
    labels = tmp_path / "labels.txt"
    rc = main(
        [
            "cluster",
            str(data),
            "--eps",
            "0.5",
            "--minpts",
            "5",
            "--leaves",
            "3",
            "--output",
            str(labels),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "clusters" in out
    lines = labels.read_text().strip().splitlines()
    assert len(lines) == 800
    pid, lab = lines[0].split()
    int(pid), int(lab)


def test_cluster_json_report(tmp_path, capsys):
    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "400", str(data)])
    capsys.readouterr()  # drop the generate banner
    main(["cluster", str(data), "--eps", "0.5", "--minpts", "5", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["n_points"] == 400
    assert "timings" in report


def test_quality_command(tmp_path, capsys):
    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "600", str(data), "--seed", "2"])
    rc = main(["quality", str(data), "--eps", "0.5", "--minpts", "5", "--leaves", "2"])
    assert rc == 0
    assert "DBDC quality" in capsys.readouterr().out


def test_analyze_command(tmp_path, capsys):
    data = tmp_path / "pts.bin"
    labels = tmp_path / "labels.txt"
    main(["generate", "blobs", "500", str(data), "--seed", "9"])
    main(
        [
            "cluster", str(data), "--eps", "0.5", "--minpts", "5",
            "--output", str(labels),
        ]
    )
    capsys.readouterr()
    rc = main(["analyze", str(data), str(labels), "--top", "3"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "clusters" in out and "noise" in out


def test_analyze_json(tmp_path, capsys):
    data = tmp_path / "pts.bin"
    labels = tmp_path / "labels.txt"
    main(["generate", "blobs", "300", str(data)])
    main(["cluster", str(data), "--eps", "0.5", "--minpts", "5", "--output", str(labels)])
    capsys.readouterr()
    main(["analyze", str(data), str(labels), "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert "clusters" in payload and "noise" in payload


def test_cluster_algorithm_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", str(tmp_path / "pts.bin"), "--eps", "0.5", "--minpts", "5",
              "--algorithm", "cuda-dclust"])
    assert exc.value.code == 2
    assert "--algorithm" in capsys.readouterr().err


def test_cluster_verbose_logs(tmp_path, capsys, caplog):
    import logging

    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "300", str(data)])
    with caplog.at_level(logging.INFO, logger="repro.pipeline"):
        main(["cluster", str(data), "--eps", "0.5", "--minpts", "5", "--verbose"])
    messages = " ".join(r.message for r in caplog.records)
    assert "partition:" in messages and "merge:" in messages


def test_simulate_table1(capsys):
    assert main(["simulate", "table1"]) == 0
    out = capsys.readouterr().out
    assert "8192" in out or "8,192" in out


def test_simulate_json(capsys):
    main(["simulate", "table1", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["figure"] == "Table 1"
    assert len(payload["x"]) == 8


def test_parser_rejects_unknown_figure():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "fig99"])


def test_cluster_missing_file_raises(tmp_path):
    from repro.errors import MrScanError

    with pytest.raises((MrScanError, FileNotFoundError)):
        main(["cluster", str(tmp_path / "absent.bin"), "--eps", "1", "--minpts", "2"])


def test_analyze_bad_labels_file(tmp_path):
    from repro.errors import FormatError

    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "50", str(data)])
    bad = tmp_path / "labels.txt"
    bad.write_text("not a label line\n")
    with pytest.raises(FormatError):
        main(["analyze", str(data), str(bad)])


def test_analyze_missing_point_id(tmp_path):
    from repro.errors import FormatError

    data = tmp_path / "pts.bin"
    main(["generate", "blobs", "50", str(data)])
    partial = tmp_path / "labels.txt"
    partial.write_text("0 1\n")  # only one of fifty points
    with pytest.raises(FormatError, match="missing point id"):
        main(["analyze", str(data), str(partial)])


# ---------------------------------------------------------------------- #
# One harness, one engine: the retired surfaces are gone, not hidden
# ---------------------------------------------------------------------- #


def test_subcommand_set_is_exactly_the_seven():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == {
        "generate", "cluster", "analyze", "quality",
        "serve", "worker", "simulate",
    }


def test_fuzz_subcommand_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["fuzz"])
    assert exc.value.code == 2


_CLUSTER = ["cluster", "pts.bin", "--eps", "0.5", "--minpts", "5"]


@pytest.mark.parametrize("removed, argv", [
    ("tune", ["tune", "pts.bin", "--eps", "0.5", "--minpts", "5"]),
    ("--auto-tune", [*_CLUSTER, "--auto-tune"]),
    ("--tune-plan", [*_CLUSTER, "--tune-plan", "plan.json"]),
    ("--tune-record", [*_CLUSTER, "--tune-record"]),
    ("--tune-dir", [*_CLUSTER, "--tune-dir", "profiles"]),
])
def test_tuner_subcommand_and_flags_are_gone(removed, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert removed in capsys.readouterr().err


def test_cluster_engine_flag_is_gone(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cluster", str(tmp_path / "pts.bin"), "--eps", "0.5", "--minpts", "5",
              "--cluster-engine", "csr"])
    assert exc.value.code == 2
    assert "--cluster-engine" in capsys.readouterr().err


def test_config_has_no_cluster_engine_field():
    from repro.core.config import MrScanConfig

    with pytest.raises(TypeError):
        MrScanConfig(eps=0.5, minpts=5, n_leaves=2, cluster_engine="block")


def test_cluster_engine_env_var_is_not_read(monkeypatch):
    from repro.core import mrscan
    from repro.data import gaussian_blobs

    points = gaussian_blobs(600, centers=3, spread=0.2, seed=4)
    monkeypatch.delenv("MRSCAN_CLUSTER_ENGINE", raising=False)
    want = mrscan(points, 0.2, 5, n_leaves=3)
    monkeypatch.setenv("MRSCAN_CLUSTER_ENGINE", "block")
    got = mrscan(points, 0.2, 5, n_leaves=3)
    assert [s.engine for s in got.gpu_stats] == ["csr"] * 3
    assert got.labels.tobytes() == want.labels.tobytes()


_SERVE = ["serve", "pts.bin", "--eps", "0.5", "--minpts", "5"]


@pytest.mark.parametrize("removed, argv", [
    ("process", [*_CLUSTER, "--transport", "process"]),
    ("process", [*_SERVE, "--transport", "process"]),
    ("--checkpoint-dir", [*_CLUSTER, "--checkpoint-dir", "x"]),
])
def test_process_transport_and_checkpoint_dir_flag_are_gone(removed, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert removed in capsys.readouterr().err


def test_process_transport_env_var_names_the_three(monkeypatch):
    from repro.core.config import MrScanConfig
    from repro.errors import ConfigError

    monkeypatch.setenv("MRSCAN_TRANSPORT", "process")
    config = MrScanConfig(eps=0.5, minpts=5, n_leaves=2)
    with pytest.raises(ConfigError, match="'local', 'shm', 'tcp'"):
        config.resolved_transport()


def test_removed_keywords_raise():
    from repro.core.config import MrScanConfig
    from repro.errors import ConfigError
    from repro.mrnet import Network, Topology

    with pytest.raises(TypeError):
        MrScanConfig(eps=0.5, minpts=5, n_leaves=2, checkpoint_dir="x")
    with pytest.raises(TypeError):
        Network(Topology.flat(2), retries=1)
    with pytest.raises(ConfigError):
        Network(Topology.flat(2), fault_injector=lambda n, p: False)
