"""Command-line verbs, exercised end to end where practical."""

from __future__ import annotations

import functools
import importlib
import os
import pkgutil
import re
import shlex
import signal
import socket
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

from loopback import start_server_thread

import ctlab
from ctlab import aes
from ctlab import attack as atk
from ctlab import harness as hn
from ctlab import keysearch
from ctlab.channel import ChannelConfig, UdpOracle
from ctlab.cli import build_parser, main

STUDY_KEY = "2b7e151628aed2a6abf7158809cf4f3c"
ATTACK_KEY = "8e73b0f7da0e6452c810f32b809079e5"
SRC = Path(__file__).resolve().parent.parent / "src"  # where a child process imports ctlab

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
    ["collect", "--endpoint", "h:1", "--samples", "1", "--out", "x.csv", "--packet-size", "65508"],
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
    ["bench-rate", "--sizes", "1.5"],
    ["bench-rate", "--fit-min", "nan"],
], ids=["retries", "samples", "packet-size", "packet-size-max", "search-threads", "chunk", "bench-threads", "not-int",
        "timeout-zero", "timeout-negative", "timeout-nan", "serve-port-high", "serve-port-negative",
        "endpoint-port-high", "endpoint-port-negative", "endpoint-port-zero",
        "study-key-not-hex", "study-key-short",
        "retention-negative", "retention-nan", "sizes-zero", "sizes-negative", "sizes-fraction",
        "fit-min-nan"])
def test_out_of_range_numbers_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["layout = packed", "warp_drive = on", "backend = simulated",
                                  "backend = native"])
def test_unknown_config_key_is_a_usage_error(tmp_path, line):
    path = tmp_path / "stale.cfg"
    path.write_text(TINY_CONFIG + line + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["experiment", "--config", str(path)])
    assert f"unknown config key {line.split()[0]!r}" in str(exc.value.code)


@pytest.mark.parametrize("named, argv", [
    ("attack", ["serve", "--config", "{attack}", "--set", "backend=nativ", "--port", "0"]),
    ("attack", ["experiment", "--config", "{attack}", "--set", "packet_size=3"]),
    ("attack", ["experiment", "--config", "{attack}", "--set", "packet_size=65508"]),
    ("attack", ["experiment", "--config", "{attack}", "--set", "line_size=64",
                "--set", "num_sets=65536"]),
    ("missing", ["experiment", "--config", "{missing}"]),
    ("missing", ["serve", "--config", "{missing}", "--port", "0"]),
    ("bad", ["experiment", "--config", "{bad}"]),
    ("bad", ["serve", "--config", "{bad}", "--port", "0"]),
    ("missing", ["correlate", "--study", "{missing}", "--attack", "{empty}",
                 "--study-key", STUDY_KEY, "--out", "{out}"]),
    ("bad", ["correlate", "--study", "{bad}", "--attack", "{empty}",
             "--study-key", STUDY_KEY, "--out", "{out}"]),
    ("empty", ["correlate", "--study", "{empty}", "--attack", "{empty}",
               "--study-key", STUDY_KEY, "--out", "{out}"]),
    ("huge", ["correlate", "--study", "{huge}", "--attack", "{empty}",
              "--study-key", STUDY_KEY, "--out", "{out}"]),
    ("bad", ["search", "--candidates", "{bad}", "--pair", "00" * 16 + ":" + "00" * 16]),
    ("missing", ["search", "--candidates", "{missing}", "--pair", "00" * 16 + ":" + "00" * 16]),
    ("bad", ["report", "--in", "{bad}"]),
    ("attack:num_sets", ["experiment", "--config", "{attack}", "--set", "num_sets=abc"]),
    ("attack:prng_seed", ["experiment", "--config", "{attack}", "--set", "prng_seed=none"]),
    ("attack:countermeasure", ["experiment", "--config", "{attack}",
                               "--set", "countermeasure=bogus"]),
    ("attack:study_key", ["experiment", "--config", "{attack}", "--set", "study_key=zz"]),
    ("attack:spread", ["serve", "--config", "{attack}", "--set", "spread=x", "--port", "0"]),
], ids=["backend", "packet-size", "packet-size-max", "address-map",
        "experiment-missing", "serve-missing", "experiment-malformed", "serve-malformed",
        "correlate-missing", "correlate-bad-header", "correlate-no-samples",
        "correlate-cell-too-large", "search-bad-csv", "search-missing", "report-bad-csv",
        "bad-int", "bad-int-none", "bad-kind", "bad-hex", "bad-float"])
def test_bad_input_fails_in_one_line_before_any_work(tmp_path, monkeypatch, named, argv):
    """A bad channel setting or an unreadable input file ends the command with
    one line naming the file, and a value that does not parse also names its
    config key (written after the colon in ``named``): Python prints a str
    exit code to stderr and exits with status 1."""
    named, _, key = named.partition(":")
    paths = {name: str(tmp_path / f"{name}.csv")
             for name in ("missing", "bad", "empty", "huge", "out")}
    paths["attack"] = str(Path(__file__).resolve().parent.parent / "configs" / "attack.cfg")
    Path(paths["bad"]).write_text("backend simulated\n")
    atk.save_profile(atk.TimingProfile(), paths["empty"])
    # a cell sum no float64 holds
    _save_one_cell_profile(paths["huge"], 1, 10**320)
    monkeypatch.setattr(hn, "run_experiment", None)  # no collection may start
    with pytest.raises(SystemExit) as exc:
        main([arg.format(**paths) for arg in argv])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert paths[named] in message
    if key:
        assert f"{key}: " in message
    assert not Path(paths["out"]).exists()


def _save_one_cell_profile(path, count: int, total: int) -> None:
    """A profile CSV of one 100-cycle sample, plus (position 0, value 1)
    holding ``count`` samples that sum to ``total``, written as text since a
    TimingProfile holds no position total of 2^63 or more."""
    profile = atk.TimingProfile()
    profile.add(bytes(16), [100])
    atk.save_profile(profile, path)
    lines = Path(path).read_text().splitlines()
    lines[2] = f"0,1,{count},{total},{-(-total * total // count)}"
    Path(path).write_text("\n".join(lines) + "\n")


def test_correlate_refuses_a_count_beyond_int64(tmp_path):
    """A cell count above 2**63 is refused at load, so it cannot wrap in int64."""
    path, out = tmp_path / "p.csv", tmp_path / "c.csv"
    _save_one_cell_profile(path, 10**30, 2 * 10**32)
    argv = ["correlate", "--study", str(path), "--attack", str(path), "--study-key", STUDY_KEY,
            "--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"cannot read {path}: line 3: ")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["collect", "correlate", "experiment", "report"])
def test_unwritable_out_fails_in_one_line_before_any_work(tmp_path, monkeypatch, config_file,
                                                          verb):
    out = str(tmp_path / "missing" / "x")
    profile = tmp_path / "profile.csv"
    sample = atk.TimingProfile()
    sample.add(bytes(16), [100])
    atk.save_profile(sample, profile)
    report = tmp_path / "report.csv"
    report.write_text(hn.emit_report(hn.REFERENCE_ROWS, "csv"))
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    argv = {
        "collect": ["collect", "--endpoint", f"127.0.0.1:{port}", "--samples", "1",
                    "--timeout", "0.01", "--retries", "0"],
        "correlate": ["correlate", "--study", str(profile), "--attack", str(profile),
                      "--study-key", STUDY_KEY],
        "experiment": ["experiment", "--config", str(config_file)],
        "report": ["report", "--in", str(report)],
    }[verb]
    monkeypatch.setattr(hn, "run_experiment", None)  # no collection may start
    monkeypatch.setattr(atk, "collect_profile", None)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", out])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith(f"cannot write {out}: ")


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


def test_collect_refused_reply_saves_partial_profile_in_one_line(tmp_path, capsys,
                                                                  monkeypatch):
    """A timing reply of 2^64 - 1, the largest 8 bytes carry, is refused by the
    profile: collect keeps what was binned before it and exits with status 1."""
    monkeypatch.setattr(UdpOracle, "__call__", lambda self, plaintext: 2**64 - 1)
    out = tmp_path / "partial.csv"
    rc = main(["collect", "--endpoint", "127.0.0.1:41717", "--samples", "3", "--out", str(out)])
    assert rc == 1
    line = _one_error_line(capsys, "collect failed: ")
    assert "0/3 collected" in line and "2^63" in line and str(out) in line
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


def _one_error_line(capsys, prefix: str) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(prefix)
    return err[0]


def test_serve_on_a_held_port_fails_in_one_line(config_file, capsys):
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as held:
        held.bind(("127.0.0.1", 0))
        port = held.getsockname()[1]
        rc = main(["serve", "--config", str(config_file), "--port", str(port)])
    assert rc == 1
    assert "in use" in _one_error_line(capsys, "serve failed: ")


def test_serve_on_an_unresolvable_host_closes_its_socket(config_file, capsys, monkeypatch):
    closed = []
    close = socket.socket.close

    def no_such_host(self, address):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    def counted_close(self):
        closed.append(self)
        close(self)

    monkeypatch.setattr(socket.socket, "bind", no_such_host)
    monkeypatch.setattr(socket.socket, "close", counted_close)
    rc = main(["serve", "--config", str(config_file), "--host", "nosuchhost.invalid"])
    assert rc == 1
    assert "not known" in _one_error_line(capsys, "serve failed: ")
    assert len(closed) == 1


def test_refused_send_fails_collect_in_one_line(tmp_path, capsys, monkeypatch):
    def refused(self, data, address):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr(socket.socket, "sendto", refused)
    out = tmp_path / "partial.csv"
    rc = main(["collect", "--endpoint", "127.0.0.1:41717", "--samples", "1",
               "--timeout", "0.05", "--retries", "0", "--out", str(out)])
    assert rc == 1
    line = _one_error_line(capsys, "collect failed: ")
    assert "0/1 collected" in line and "Permission denied" in line
    assert atk.load_profile(out).total_samples == 0


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


def test_search_above_enumeration_bound_fails_in_one_line(tmp_path, capsys):
    # 8 positions of 256 values: a 2^64 product, refused before any chunk runs
    huge = tmp_path / "huge.csv"
    atk.save_candidates(
        atk.CandidateReport(
            tuple(tuple(range(256)) if j < 8 else (0,) for j in range(16)),
            tuple((1.0,) * 256 if j < 8 else (1.0,) for j in range(16)),
        ),
        huge,
    )
    pair = "00" * 16 + ":" + "00" * 16
    rc = main(["search", "--candidates", str(huge), "--pair", pair, "--pair", pair])
    assert rc == 1
    _one_error_line(capsys, "search failed: ")


def test_search_on_an_oversized_csv_cell_fails_in_one_line(tmp_path, capsys, monkeypatch):
    # a quoted cell above the csv module's 131,072-character field limit;
    # a str exit code is printed to stderr as one line, with status 1
    monkeypatch.chdir(tmp_path)
    Path("big.csv").write_text('position,value,score\n0,"' + "1" * 200_000 + '",1.0\n')
    pair = "00" * 16 + ":" + "00" * 16
    with pytest.raises(SystemExit) as exc:
        main(["search", "--candidates", "big.csv", "--pair", pair])
    message = exc.value.code
    assert isinstance(message, str) and "\n" not in message
    assert message.startswith("cannot read big.csv: line 2: ")
    assert capsys.readouterr().out == ""


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


# primes above 256, and a shapeable size past the largest reference size
@pytest.mark.parametrize("size", [257, 2**61 - 1, 2**61])
def test_unshapeable_bench_size_fails_in_one_line(capsys, monkeypatch, size):
    def no_chunk(*args):
        raise AssertionError("a chunk was enumerated")

    monkeypatch.setattr(keysearch, "_chunk_keys", no_chunk)
    start = time.monotonic()
    assert main(["bench-rate", "--sizes", str(size)]) == 1
    assert time.monotonic() - start < 5
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and str(size) in err[0]


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


def test_readme_dotted_names_resolve():
    # every backticked dotted name in README whose first part is ctlab, a
    # ctlab module or a public name of one; a trailing call is allowed
    modules = {m.name: importlib.import_module(f"ctlab.{m.name}")
               for m in pkgutil.iter_modules(ctlab.__path__)}
    roots = {"ctlab": ctlab, **modules}
    for module in modules.values():
        for name, value in vars(module).items():
            if not name.startswith("_") and not isinstance(value, types.ModuleType):
                roots.setdefault(name, value)
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    names = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`", text)
    checked = [name for name in names if name.split(".")[0] in roots]
    assert len(checked) >= 20
    missing = []
    for name in checked:
        first, *rest = name.split(".")
        try:
            functools.reduce(getattr, rest, roots[first])
        except AttributeError:
            missing.append(name)
    assert not missing


def test_serve_subprocess_roundtrip(tmp_path, config_file):
    proc = subprocess.Popen(
        [sys.executable, "-m", "ctlab.cli", "serve", "--config", str(config_file),
         "--port", "0"],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert banner.startswith("serving none (attack key) on 127.0.0.1:")
        port = int(banner.rsplit(":", 1)[1])
        with UdpOracle(("127.0.0.1", port), timeout=2.0, retries=0) as oracle:
            assert oracle(bytes(16)) > 0
    finally:
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=5) == 0
    # the served=N dropped=M prefix is what scripts parse; new counters follow it
    with proc.stdout:
        assert proc.stdout.read().splitlines()[-1] == "served=1 dropped=0 errors=0"
