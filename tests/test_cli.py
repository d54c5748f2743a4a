"""Command-line verbs, exercised end to end where practical."""

from __future__ import annotations

import re
import shlex
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest

from ctlab import aes
from ctlab import attack as atk
from ctlab import harness as hn
from ctlab.channel import ChannelConfig, UdpOracle, start_server_thread
from ctlab.cli import build_parser, main

STUDY_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
ATTACK_KEY = "8e73b0f7da0e6452c810f32b809079e5"

TINY_CONFIG = f"""
# small, fast experiment used by the CLI tests
study_key = {STUDY_KEY}
attack_key = {ATTACK_KEY}
line_size = 16
num_sets = 256
assoc = 2
cold_flush = false
scratch_lines = 32
samples_study = 800
samples_attack = 800
runs = 1
seed = 5
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return path


def test_parser_rejects_bad_values():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["collect", "--endpoint", "nocolon", "--samples", "1",
                           "--out", "x.csv"])
    with pytest.raises(SystemExit):
        parser.parse_args(["search", "--candidates", "c.csv", "--pair", "0011"])
    with pytest.raises(SystemExit):
        parser.parse_args(["definitely-not-a-verb"])


@pytest.mark.parametrize("argv", [
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--retries", "-1"],
    ["collect", "--endpoint", "h:1", "--samples", "0", "--out", "x.csv"],
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--packet-size", "16"],
    ["search", "--candidates", "c.csv", "--pair", "00" * 16 + ":" + "00" * 16, "--threads", "0"],
    ["search", "--candidates", "c.csv", "--pair", "00" * 16 + ":" + "00" * 16, "--chunk", "0"],
    ["bench-rate", "--threads", "0"],
    ["bench-rate", "--threads", "two"],
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--timeout", "0"],
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--timeout", "-1"],
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--timeout", "nan"],
    ["serve", "--config", "c.cfg", "--port", "70000"],
    ["serve", "--config", "c.cfg", "--port", "-5"],
    ["collect", "--endpoint", "127.0.0.1:70000", "--samples", "1", "--out", "x.csv"],
    ["collect", "--endpoint", "127.0.0.1:-1", "--samples", "1", "--out", "x.csv"],
    ["collect", "--endpoint", "127.0.0.1:0", "--samples", "1", "--out", "x.csv"],
    ["correlate", "--study", "s.csv", "--attack", "a.csv", "--out", "c.csv", "--study-key", "zz"],
    ["correlate", "--study", "s.csv", "--attack", "a.csv", "--out", "c.csv",
     "--study-key", "00" * 15],
    ["correlate", "--study", "s.csv", "--attack", "a.csv", "--out", "c.csv",
     "--study-key", "00" * 16, "--retention", "-1"],
    ["correlate", "--study", "s.csv", "--attack", "a.csv", "--out", "c.csv",
     "--study-key", "00" * 16, "--retention", "nan"],
    ["bench-rate", "--sizes", "0"],
    ["bench-rate", "--sizes", "1e4,-5"],
    ["bench-rate", "--fit-min", "nan"],
], ids=["retries", "samples", "packet-size", "search-threads", "chunk", "bench-threads", "not-int",
        "timeout-zero", "timeout-negative", "timeout-nan", "serve-port-high", "serve-port-negative",
        "endpoint-port-high", "endpoint-port-negative", "endpoint-port-zero",
        "study-key-not-hex", "study-key-short",
        "retention-negative", "retention-nan", "sizes-zero", "sizes-negative", "fit-min-nan"])
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["layout = packed", "warp_drive = on"])
def test_unknown_config_key_is_a_usage_error(tmp_path, line):
    path = tmp_path / "stale.cfg"
    path.write_text(TINY_CONFIG + line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(path)])
    assert f"unknown config key {line.split()[0]!r}" in str(exc.value.code)


def test_collect_failure_saves_partial_profile_and_exits_nonzero(tmp_path, capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    out = tmp_path / "partial.csv"
    rc = main(["collect", "--endpoint", f"127.0.0.1:{port}", "--samples", "1",
               "--timeout", "0.01", "--retries", "0", "--out", str(out)])
    assert rc != 0
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "0/1 collected" in err[0] and str(out) in err[0]
    assert atk.load_profile(out).total_samples == 0


def test_unresolvable_endpoint_fails_in_one_line(tmp_path, capsys, monkeypatch):
    def no_such_host(*args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "getaddrinfo", no_such_host)
    out = tmp_path / "x.csv"
    rc = main(["collect", "--endpoint", "nosuchhost.invalid:1", "--samples", "1",
               "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("collect failed: ")
    assert "nosuchhost.invalid" in err[0]
    assert not out.exists()


def test_collect_and_correlate_verbs(tmp_path, config_file):
    cfg = hn.config_from_mapping(hn.load_config_file(config_file))
    servers = []
    try:
        for key in (cfg.study_key, cfg.attack_key):
            servers.append(start_server_thread(cfg.channel_config(key, run=0)))
        outs = []
        for (server, _), name, seed in zip(
            servers, ("study.csv", "attack.csv"), ("11", "22")
        ):
            out = tmp_path / name
            outs.append(out)
            host, port = server.address
            rc = main([
                "collect", "--endpoint", f"{host}:{port}", "--samples", "500",
                "--seed", seed, "--out", str(out), "--packet-size", "256",
            ])
            assert rc == 0
            assert atk.load_profile(out).total_samples == 500
        cands = tmp_path / "cands.csv"
        rc = main([
            "correlate", "--study", str(outs[0]), "--attack", str(outs[1]),
            "--study-key", STUDY_KEY, "--retention", "1.0", "--out", str(cands),
        ])
        assert rc == 0
        assert atk.load_candidates(cands).keyspace_size >= 1
    finally:
        for server, thread in servers:
            server.close()
            thread.join(timeout=2)


def test_search_verb_exit_codes(tmp_path):
    key = bytes.fromhex(ATTACK_KEY)
    rk = aes.expand_key(key)
    pt = bytes(range(16))
    pair = f"{pt.hex()}:{aes.encrypt(pt, rk).hex()}"

    hit = tmp_path / "hit.csv"
    atk.save_candidates(
        atk.CandidateReport(tuple((key[j],) for j in range(16)),
                            tuple((1.0,) for _ in range(16))),
        hit,
    )
    assert main(["search", "--candidates", str(hit), "--pair", pair]) == 0

    miss = tmp_path / "miss.csv"
    atk.save_candidates(
        atk.CandidateReport(tuple(((key[j] + 1) % 256,) for j in range(16)),
                            tuple((1.0,) for _ in range(16))),
        miss,
    )
    assert main(["search", "--candidates", str(miss), "--pair", pair]) == 1


def test_experiment_verb_writes_csv(tmp_path, config_file):
    out = tmp_path / "report.csv"
    rc = main([
        "experiment", "--config", str(config_file), "--set", "samples_study=600",
        "--set", "samples_attack=600", "--format", "csv", "--out", str(out),
    ])
    assert rc == 0
    rows = hn.parse_report_csv(out.read_text())
    assert rows[0].countermeasure == "none"
    assert rows[0].s == 1.0


def test_report_verb_rerenders(tmp_path):
    src = tmp_path / "in.csv"
    src.write_text(hn.emit_report(hn.REFERENCE_ROWS, "csv"))
    out = tmp_path / "out.txt"
    assert main(["report", "--in", str(src), "--format", "table",
                 "--out", str(out)]) == 0
    assert "cache_partition" in out.read_text()


def test_bench_rate_verb(capsys):
    rc = main(["bench-rate", "--sizes", "1e4,1e5", "--fit-min", "1e4"])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "alpha=" in printed and "size=10000" in printed


def test_unshapeable_bench_size_fails_in_one_line(capsys):
    assert main(["bench-rate", "--sizes", "257"]) == 1  # a prime above 256
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and "257" in err[0]


def test_readme_commands_parse():
    # every ctlab line in README's code blocks, continuations joined
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    commands = [
        re.sub(r"<[^>]*>", "0" * 32, line.strip())
        for block in text.split("```")[1::2]
        for line in block.replace("\\\n", " ").splitlines()
        if line.strip().startswith("ctlab ")
    ]
    assert len(commands) >= 10
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])


def test_serve_subprocess_roundtrip(tmp_path, config_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctlab.cli", "serve", "--config", str(config_file),
         "--port", "0"],
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        port = int(banner.rsplit(":", 1)[1])
        with UdpOracle(("127.0.0.1", port), timeout=2.0, retries=0) as oracle:
            assert oracle(bytes(16)) > 0
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    # the served=N dropped=M prefix is what scripts parse; new counters follow it
    assert proc.stdout.read().splitlines()[-1] == "served=1 dropped=0 errors=0"
