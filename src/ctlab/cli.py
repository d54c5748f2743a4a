"""Command-line front end for the lab: serve, measure, attack, report."""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path
from random import Random

from . import attack as atk
from . import harness, keysearch
from .channel import (DEFAULT_PACKET_SIZE, DEFAULT_PORT, HEADER_LEN, MAX_PACKET_SIZE, TimingServer,
                      UdpOracle)


def _integer(low: int, high: float = math.inf):
    """argparse type for an integer within low..high."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be within {low}..{high}, got {value}")
        return value
    return parse


def _number(low: float, *, above: bool = False):
    """argparse type for a finite number no smaller than ``low`` (or above it)."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (low < value if above else low <= value) or value == math.inf:
            bound = "above" if above else "at least"
            raise argparse.ArgumentTypeError(f"must be finite and {bound} {low:g}, got {text}")
        return value
    return parse


def _endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError("endpoint must be host:port")
    return host, _integer(1, 65535)(port)  # a datagram cannot be sent to port 0


def _block(text: str) -> bytes:
    """argparse type for one 16-byte block written as 32 hex digits."""
    try:
        value = bytes.fromhex(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not hex: {text!r}") from None
    if len(value) != 16:
        raise argparse.ArgumentTypeError(f"need 16 bytes of hex, got {len(value)}")
    return value


def _pair(text: str) -> tuple[bytes, bytes]:
    pt, sep, ct = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"pair must be PTHEX:CTHEX, got {text!r}")
    return _block(pt), _block(ct)


def _size(text: str) -> int:
    value = _number(1)(text)
    if not value.is_integer():
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
    # an integer stays exact: float() rounds any above 2**53
    return int(text) if text.strip().isdigit() else int(value)


def _sizes(text: str) -> list[int]:
    return [_size(part) for part in text.split(",") if part]


def _load_experiment(path: str, overrides: list[str]) -> harness.ExperimentConfig:
    try:
        mapping = harness.load_config_file(path)
        for item in overrides:
            if "=" not in item:
                raise SystemExit(f"--set expects key=value, got {item!r}")
            key, value = item.split("=", 1)
            mapping[key.strip()] = value.strip()
        return harness.config_from_mapping(mapping)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"bad config {path}: {exc}") from None


def _read(load, path: str):
    """load(path), exiting with one line that names path if it cannot be read."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:  # ProfileError is a ValueError
        raise SystemExit(f"cannot read {path}: {exc}") from None


def _writable(path: str | None) -> None:
    """Exit with one line naming path if it cannot be opened for writing."""
    if path:
        try:
            open(path, "a").close()
        except OSError as exc:
            raise SystemExit(f"cannot write {path}: {exc}") from None


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_serve(args) -> int:
    config = _load_experiment(args.config, args.set)
    key = config.study_key if args.role == "study" else config.attack_key
    try:
        server = TimingServer(config.channel_config(key, run=0), host=args.host, port=args.port)
    except OSError as exc:  # socket.gaierror is an OSError
        print(f"serve failed: {exc}", file=sys.stderr)
        return 1
    host, port = server.address
    # flushed so wrappers reading a pipe see the port immediately
    print(f"serving {config.countermeasure.value} ({args.role} key) on {host}:{port}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
        print(f"served={server.requests_served} dropped={server.dropped} errors={server.errors}")
    return 0


def cmd_collect(args) -> int:
    try:
        oracle = UdpOracle(
            args.endpoint,
            packet_size=args.packet_size,
            timeout=args.timeout,
            retries=args.retries,
        )
    except atk.ChannelError as exc:
        print(f"collect failed: {exc}", file=sys.stderr)
        return 1
    with oracle:
        _writable(args.out)
        try:
            profile = atk.collect_profile(oracle, args.samples, Random(args.seed))
        except atk.CollectionError as exc:
            atk.save_profile(exc.partial, args.out)
            print(f"collect failed: {exc}; partial profile -> {args.out}", file=sys.stderr)
            return 1
    atk.save_profile(profile, args.out)
    print(f"collected {profile.total_samples} samples -> {args.out}")
    return 0


def cmd_correlate(args) -> int:
    def signature(path):  # a profile with no samples is as unusable as a missing one
        return atk.signature(atk.load_profile(path))

    study = _read(signature, args.study)
    attacked = _read(signature, args.attack)
    _writable(args.out)
    corr = atk.correlate(study, args.study_key, attacked)
    report = atk.candidate_sets(corr, args.retention)
    atk.save_candidates(report, args.out)
    print(
        f"candidate sizes {list(report.sizes)} "
        f"keyspace 2^{report.keyspace_log2:.2f} -> {args.out}"
    )
    return 0


def cmd_search(args) -> int:
    report = _read(atk.load_candidates, args.candidates)
    try:
        outcome = keysearch.brute_force(report, args.pair, threads=args.threads)
    except keysearch.SearchError as exc:
        print(f"search failed: {exc}", file=sys.stderr)
        return 1
    found = outcome.found.hex() if outcome.found else "none"
    print(
        f"found={found} keys_tested={outcome.keys_tested} "
        f"elapsed={outcome.elapsed:.3f}s"
    )
    return 0 if outcome.found else 1


def cmd_experiment(args) -> int:
    config = _load_experiment(args.config, args.set)
    _writable(args.out)
    if args.sweep:
        reports = harness.run_sweep(config)
    else:
        reports = [harness.run_experiment(config)]
    _write(harness.emit_report(reports, args.format), args.out)
    failed = [r for r in reports if r.failed_stage]
    for r in reports:
        for note in (r.caveat, r.failed_stage):
            if note:
                print(f"note[{r.countermeasure}]: {note}", file=sys.stderr)
        if r.found_key is not None:
            print(
                f"search[{r.countermeasure}]: key={r.found_key} "
                f"recovered={r.recovered} keys_tested={r.keys_tested}",
                file=sys.stderr,
            )
    return 1 if failed else 0


def cmd_bench_rate(args) -> int:
    try:
        points = keysearch.measure_search_rate(args.sizes, threads=args.threads)
    except keysearch.SearchError as exc:
        print(f"bench-rate failed: {exc}", file=sys.stderr)
        return 1
    for size, seconds in points:
        print(f"size={size} seconds={seconds:.4f}")
    try:
        alpha = keysearch.fit_rate(points, args.fit_min)
    except keysearch.FitError:
        print(f"alpha=unfit (no sizes >= {args.fit_min:g})")
        return 0
    r2 = keysearch.fit_residual_r2(
        [p for p in points if p[0] >= args.fit_min], alpha
    )
    print(f"alpha={alpha:.6e} r2={r2:.6f}")
    print(f"full-keyspace estimate: {keysearch.estimate_search_time(2**128, alpha):.3e} s")
    return 0


def cmd_report(args) -> int:
    rows = _read(lambda path: harness.parse_report_csv(Path(path).read_text()), args.infile)
    _writable(args.out)
    _write(harness.emit_report(rows, args.format), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctlab",
        description="cache-timing attack laboratory: simulate, attack, defend, score",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("serve", help="run a timing server")
    p.add_argument("--config", required=True, help="flat key=value experiment config")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override a config entry")
    p.add_argument("--role", choices=("study", "attack"), default="attack",
                   help="which configured key the server loads")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=_integer(0, 65535), default=None,
                   help=f"UDP port, 0 for any free one (default {DEFAULT_PORT})")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("collect", help="collect a timing profile over UDP")
    p.add_argument("--endpoint", type=_endpoint, required=True, metavar="HOST:PORT")
    p.add_argument("--samples", type=_integer(1), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--packet-size", type=_integer(HEADER_LEN, MAX_PACKET_SIZE),
                   default=DEFAULT_PACKET_SIZE)
    p.add_argument("--timeout", type=_number(0, above=True), default=1.0,
                   help="seconds per attempt")
    p.add_argument("--retries", type=_integer(0), default=5)
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("correlate", help="profiles -> candidate key bytes")
    p.add_argument("--study", required=True, help="known-key profile CSV")
    p.add_argument("--attack", required=True, help="unknown-key profile CSV")
    p.add_argument("--study-key", type=_block, required=True, help="hex key of the study server")
    p.add_argument("--retention", type=_number(0), default=1.0,
                   help="keep scores within this many sigma of the peak")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_correlate)

    p = sub.add_parser("search", help="brute-force the candidate product")
    p.add_argument("--candidates", required=True)
    p.add_argument("--pair", type=_pair, action="append", required=True,
                   metavar="PTHEX:CTHEX")
    p.add_argument("--threads", type=_integer(1), default=1)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("experiment", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--sweep", action="store_true",
                   help="run every countermeasure at the configured budget")
    p.add_argument("--format", choices=("table", "csv", "plotdata"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("bench-rate", help="measure local brute-force speed")
    p.add_argument("--sizes", type=_sizes, default=[10**6, 3 * 10**6, 10**7],
                   metavar="N,N,...", help="key-space sizes (floats like 1e6 accepted)")
    p.add_argument("--threads", type=_integer(1), default=1)
    p.add_argument("--fit-min", type=_number(0), default=10**6,
                   help="smallest size included in the rate fit")
    p.set_defaults(func=cmd_bench_rate)

    p = sub.add_parser("report", help="re-render a stored report CSV")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=("table", "csv", "plotdata"), default="table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
