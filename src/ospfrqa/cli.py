"""Command-line pipeline: simulate, extract, params, detect.

Every command is deterministic given its inputs (seeds are explicit and
no output embeds a wall-clock timestamp), exits 0 on success, 2 on usage
or data errors, and 1 only for ``detect --fail-on-alert`` when alerts
exist.  Commands that produce an output directory echo their fully
resolved settings to ``run_config.cfg`` there; re-running with
``--config`` pointing at that echo reproduces the outputs byte for byte,
so they refuse a setting that would echo as another value.

One table per command in ``COMMANDS`` drives its flags, ``--config``
keys and echo.  The config file format is flat ``key = value`` lines
with ``#`` comments, using the same keys as the long option names
(underscored).  Flags override file values.  A key the command neither
reads nor echoes, a key set twice, or a value that does not parse as
its key's type (booleans are true/false/1/0/yes/no/on/off), is an error
naming the file, the line and the key.  Every float setting must be
finite, and some settings have a minimum; a flag or file value that
breaks this is an error naming the setting.  The OSPFRQA_OUT environment
variable supplies a default output directory.
"""

from __future__ import annotations

import argparse
import functools
import ipaddress
import json
import math
import os
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from . import detect as detect_mod
from . import ingest, rqa, sim

ENV_OUT = "OSPFRQA_OUT"


class CliError(Exception):
    """Usage or data error; maps to exit code 2."""


class Option(NamedTuple):
    """A setting: flag ``--<name with dashes>``, config and echo key ``name``."""

    name: str
    type: type
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    minimum: float | None = None


OUT_DIR_HELP = f"output dir (default ${ENV_OUT})"

# command -> (help, settings).  ``resolve_settings`` returns the resolved
# settings as attributes; a default of None means "not set".  A setting that
# is a field of DetectorConfig or EmbedParams takes that field's default.
COMMANDS = {
    "simulate": ("run the LSA-flooding simulator", (
        Option("topology", str,
               help=f"shipped name ({'/'.join(sim._SHIPPED_TOPOLOGIES)}) or file path"),
        Option("scenario", str, "quiet", f"{', '.join(sim.CANNED_SCENARIOS)}, or a JSON file"),
        Option("duration", float, help="simulated seconds", minimum=0.0),
        Option("seed", int, 0),
        Option("jitter", float, sim.REFRESH_JITTER_S, "refresh jitter in seconds", minimum=0.0),
        Option("out", str, help=OUT_DIR_HELP),
    )),
    "extract": ("bin an event log or pcap into a count series", (
        Option("log", str, help="JSON-lines LSA event log"),
        Option("pcap", str, help="classic pcap capture"),
        Option("monitor", str, help="monitor name filter (required for pcap)"),
        Option("origin", str, help="advertising router: dotted quad or node name"),
        Option("topology", str, help="topology for resolving origin names"),
        Option("include_acks", bool, False, "count acknowledgments too"),
        Option("bin", int, 10, "bin size in seconds", minimum=1),
        Option("t0", float, help="range start in seconds"),
        Option("t1", float, help="range end in seconds (exclusive)"),
        Option("out", str, help="output CSV path"),
    )),
    "params": ("estimate tau, m and check epsilon", (
        Option("tau_max", int, 20, minimum=1),
        Option("bins", int, 16),
        Option("m_max", int, 10, minimum=1),
        Option("r_tol", float, 15.0),
        Option("a_tol", float, 2.0),
        Option("drop_threshold", float, 0.01),
        Option("epsilon", float, rqa.EmbedParams.epsilon),
    )),
    "detect": ("sliding RQA plus change detection", (
        Option("window", int, detect_mod.DetectorConfig.window_bins),
        Option("step", int, detect_mod.DetectorConfig.step_bins),
        Option("baseline", int, detect_mod.DetectorConfig.baseline_bins),
        Option("k_mad", float, detect_mod.DetectorConfig.k_mad),
        Option("tau", int, rqa.EmbedParams.tau),
        Option("m", int, rqa.EmbedParams.m),
        Option("epsilon", float, rqa.EmbedParams.epsilon),
        Option("norm", str, rqa.EmbedParams.norm, choices=("euclidean", "maximum")),
        Option("measures", str, help="comma-separated subset of the nine measures"),
        Option("floor_scale", float, detect_mod.DetectorConfig.floor_scale),
        Option("fail_on_alert", bool, False, "exit 1 when alerts exist"),
        Option("out", str, help=OUT_DIR_HELP),
    )),
}


def read_config_file(path) -> dict[str, tuple[int, str]]:
    """``key -> (line number, raw value)`` for a flat ``key = value`` file."""
    values = {}
    # Split as text mode reads lines: at \n, \r and \r\n.
    for line_no, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            entry = _config_entry(raw)
        except ValueError as e:
            raise CliError(f"{path}:{line_no}: {e}") from None
        if entry is None:
            continue
        key, value = entry
        if key in values:
            raise CliError(f"{path}:{line_no}: {key}: duplicate key "
                           f"(first set on line {values[key][0]})")
        values[key] = (line_no, value)
    return values


def _config_entry(raw: bytes) -> tuple[str, str] | None:
    """``(key, value)`` of one config line; None for a blank or comment line."""
    line = ingest._utf8(raw).split("#", 1)[0].strip()
    if not line:
        return None
    if "=" not in line:
        raise ValueError("expected 'key = value'")
    key, _, value = line.partition("=")
    return key.strip(), value.strip()


def format_setting(value) -> str:
    """The echo form of a value, which ``parse_setting`` reads back exactly.

    A float takes its ``:g`` form only when that parses to the same number.
    """
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        short = f"{value:g}"
        return short if float(short) == value else repr(value)
    return str(value)


def config_echo(settings: SimpleNamespace, **resolved) -> str:
    """The ``run_config.cfg`` text of the settings, with ``resolved`` values in
    place (a key that is no setting is only echoed); a CliError names the flag
    of a setting, or the argument, whose value would not read back as itself."""
    values = {**vars(settings), **resolved}
    for key, value in values.items():
        text = format_setting(value)
        lines = f"{key} = {text}".encode("utf-8", "replace").splitlines()
        if len(lines) != 1 or _config_entry(lines[0]) != (key, text):
            name = f"--{key.replace('_', '-')}" if key in vars(settings) else key
            raise CliError(f"{name} {text!r}: run_config.cfg cannot echo "
                           "a value with '#', a line break or spaces at its edges")
    return "".join(f"{k} = {format_setting(values[k])}\n" for k in sorted(values))


BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
            "false": False, "0": False, "no": False, "off": False}


def parse_setting(raw: str, cast):
    if cast is bool:
        try:
            return BOOLEANS[raw.lower()]
        except KeyError:
            raise ValueError("expected one of " + "/".join(BOOLEANS)) from None
    return cast(raw)


def check_setting(opt: Option, value) -> None:
    """Raise ValueError if a parsed value is outside its option's range."""
    if opt.type is float and not math.isfinite(value):
        raise ValueError("not a finite number")
    if opt.minimum is not None and value < opt.minimum:
        raise ValueError(f"below the minimum {format_setting(opt.minimum)}")


def resolve_settings(args, echo_only=()) -> SimpleNamespace:
    """The settings of ``args.command``, each from its ``COMMANDS`` entry.

    Priority: explicit flag > ``--config`` file > default.  Every key of
    the file must be one the command reads or echoes (``echo_only``),
    and every value must parse as its key's type and pass
    ``check_setting``; otherwise a CliError names the file, the line and
    the key.  A flag value that fails ``check_setting`` is a CliError
    naming the flag.
    """
    options = {opt.name: opt for opt in COMMANDS[args.command][1]}
    config = read_config_file(args.config) if args.config else {}
    from_file = {}
    for key, (line_no, raw) in config.items():
        where = f"{args.config}:{line_no}: {key}"
        if key in echo_only:
            continue
        if key not in options:
            raise CliError(f"{where}: unknown key for '{args.command}' "
                           f"(known: {', '.join(sorted([*options, *echo_only]))})")
        try:
            from_file[key] = parse_setting(raw, options[key].type)
            check_setting(options[key], from_file[key])
        except ValueError as e:
            raise CliError(f"{where} = {raw!r}: {e}") from None
    values = {}
    for name, opt in options.items():
        flag_val = getattr(args, name)
        if flag_val is None:
            values[name] = from_file.get(name, opt.default)
            continue
        try:
            check_setting(opt, flag_val)
        except ValueError as e:
            raise CliError(f"--{name.replace('_', '-')} {format_setting(flag_val)}: {e}") from None
        values[name] = flag_val
    return SimpleNamespace(**values)


def resolve_out_dir(out: str | None) -> Path:
    """The output directory; the command creates it once it has output."""
    out = out or os.environ.get(ENV_OUT)
    if not out:
        raise CliError("no output directory: pass --out or set OSPFRQA_OUT")
    return Path(out)


def resolve_origin(origin: str | None, topology: sim.Topology | None) -> str | None:
    """Origins may be dotted-quad router ids or node names (with a topology)."""
    if origin is None:
        return None
    try:
        # Rejects leading zeros: router ids are matched as strings.
        ipaddress.IPv4Address(origin)
        return origin
    except ValueError:
        pass
    if topology is None:
        raise CliError(
            f"origin {origin!r} is not a dotted-quad router id; "
            "pass --topology to resolve node names"
        )
    try:
        return topology.router_id(origin)
    except KeyError:
        raise CliError(f"origin {origin!r} not present in topology") from None


def load_scenario(name_or_path: str) -> list[sim.ScenarioEvent]:
    if name_or_path in sim.CANNED_SCENARIOS:
        return sim.CANNED_SCENARIOS[name_or_path]()
    text = ingest._read_text(name_or_path)
    try:
        return sim.scenario_from_json(text)
    except sim.ScenarioError as e:
        raise sim.ScenarioError(f"{name_or_path}: {e}") from None


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    s = resolve_settings(args)
    if s.topology is None or s.duration is None:
        raise CliError("simulate requires --topology and --duration")
    out_dir = resolve_out_dir(s.out)
    echo = config_echo(s, out=out_dir)  # refuses a value it cannot echo before any output

    topo = sim.load_topology(s.topology)
    scenario = load_scenario(s.scenario)
    result = sim.run(topo, scenario, s.duration, s.seed, refresh_jitter_s=s.jitter)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    # The rows are written as they are; ``result.logs`` would build an LsaEvent per row.
    for monitor, rows in result.rows.items():
        ingest.write_lsa_log(out_dir / f"events_{monitor}.jsonl", rows)
    manifest = {
        "topology": s.topology,
        "scenario": s.scenario,
        "duration_s": s.duration,
        "seed": s.seed,
        "refresh_jitter_s": s.jitter,
        "monitor_totals": sim.total_event_counts(result.rows),
        "router_ids": {n: topo.router_id(n) for n in topo.nodes()},
        "warnings": result.warnings,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    (out_dir / "run_config.cfg").write_text(echo, encoding="utf-8")
    print(f"wrote {len(result.rows)} monitor logs to {out_dir}")
    return 0


# --- extract ----------------------------------------------------------------


def cmd_extract(args) -> int:
    s = resolve_settings(args)
    if (s.log is None) == (s.pcap is None):
        raise CliError("extract requires exactly one of --log or --pcap")
    if s.out is None:
        raise CliError("extract requires --out for the series CSV")
    topology = sim.load_topology(s.topology) if s.topology else None
    ls_types = frozenset(args.ls_type) if args.ls_type else None

    if s.log is not None:
        events = ingest.read_log_columns(s.log)
    else:
        if s.monitor is None:
            raise CliError("--monitor is required with --pcap (names the capture point)")
        events = ingest.read_pcap_columns(s.pcap, s.monitor)

    flt = ingest.EventFilter(
        monitor=s.monitor,
        origin=resolve_origin(s.origin, topology),
        ls_types=ls_types,
        include_acks=s.include_acks,
    )
    if s.t0 is None:
        first = int(events.ts_us.min()) if len(events) else 0
        t0_us = (first // (s.bin * 1_000_000)) * s.bin * 1_000_000
    else:
        t0_us = _microseconds("t0", s.t0)
    last = int(events.ts_us.max()) if len(events) else 0
    t1_us = _microseconds("t1", s.t1) if s.t1 is not None else last + 1

    series = ingest.bin_series(events, flt, s.bin, t0_us, t1_us)
    ingest.write_series_csv(s.out, series)
    kept = int(series.counts.sum())
    filtered_out = len(events) - kept - series.dropped
    print(f"{len(series)} bins ({len(events)} events read, {filtered_out} filtered out, "
          f"{kept} events kept, {series.dropped} outside range) -> {s.out}")
    return 0


def _microseconds(name: str, seconds: float) -> int:
    """A finite time setting in whole microseconds; a CliError names the
    flag when the time is too large for that."""
    try:
        return round(seconds * 1e6)
    except OverflowError:  # finite seconds past about 1.8e302 are infinite microseconds
        raise CliError(f"--{name} {format_setting(seconds)}: too large to count in "
                       f"microseconds") from None


# --- params -----------------------------------------------------------------


def cmd_params(args) -> int:
    s = resolve_settings(args)
    rqa.EmbedParams(epsilon=s.epsilon)  # rejects epsilon <= 0, as detect does
    series = ingest.read_series_csv(args.series)
    x = series.counts.astype(float)

    mi, degenerate = rqa.mutual_information(x, tau_max=s.tau_max, bins=s.bins)
    if degenerate:
        report = {"degenerate": True, "tau": 1, "m": 2,
                  "note": "constant series; defaults returned"}
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            print("series is constant: mutual information undefined, "
                  "returning defaults tau=1 m=2")
        return 0
    tau, tau_fallback = rqa.estimate_delay(mi)
    fnn = rqa.false_nearest_neighbors(x, tau=tau, m_max=s.m_max, r_tol=s.r_tol, a_tol=s.a_tol)
    m, saturated = rqa.estimate_dimension(fnn, drop_threshold=s.drop_threshold)
    z, _ = rqa.znormalize(x)
    traj = rqa.embed(z, tau, m)
    diameter = rqa.phase_space_diameter(traj)
    eps_ok = s.epsilon <= 0.1 * diameter

    report = {
        "degenerate": False,
        "mi": [round(float(v), 9) for v in mi],
        "tau": tau,
        "tau_fallback": tau_fallback,
        "fnn": [round(float(v), 9) for v in fnn],
        "m": m,
        "m_saturated": saturated,
        "phase_space_diameter": round(float(diameter), 9),
        "epsilon": s.epsilon,
        "epsilon_within_ten_percent_rule": bool(eps_ok),
    }
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        print("MI(tau):", " ".join(f"{v:.4f}" for v in mi))
        print(f"tau = {tau}" + (" (fallback: no interior minimum)" if tau_fallback else ""))
        print("FNN(m):", " ".join(f"{v:.4f}" for v in fnn))
        print(f"m = {m}" + (" (saturated at m_max)" if saturated else ""))
        print(f"phase-space diameter (z-scored, euclidean) = {diameter:.4f}")
        verdict = "respects" if eps_ok else "VIOLATES"
        print(f"epsilon {s.epsilon:g} {verdict} the 10%-of-diameter guideline")
    return 0


# --- detect -----------------------------------------------------------------


def cmd_detect(args) -> int:
    # The echo records the series path; replaying it takes the path from
    # the command line, so the file's ``series`` key is accepted and unused.
    s = resolve_settings(args, echo_only=("series",))
    series = ingest.read_series_csv(args.series)
    out_dir = resolve_out_dir(s.out)

    if s.measures == "":
        raise CliError(f"--measures '': name at least one of {','.join(rqa.MEASURE_NAMES)}")
    enabled = rqa.MEASURE_NAMES if s.measures is None else tuple(s.measures.split(","))
    cfg = detect_mod.DetectorConfig(
        window_bins=s.window, step_bins=s.step,
        embed=rqa.EmbedParams(tau=s.tau, m=s.m, epsilon=s.epsilon, norm=s.norm),
        baseline_bins=s.baseline, k_mad=s.k_mad,
        measures_enabled=enabled, floor_scale=s.floor_scale,
    )
    echo = config_echo(s, series=args.series, measures=",".join(enabled), out=out_dir)
    measure_series = detect_mod.sliding_rqa(series, cfg)
    alerts = detect_mod.detect(measure_series, cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    detect_mod.write_measures_csv(out_dir / "measures.csv", measure_series)
    detect_mod.write_alerts_jsonl(out_dir / "alerts.jsonl", alerts)
    (out_dir / "run_config.cfg").write_text(echo, encoding="utf-8")
    print(f"{len(measure_series)} windows analyzed, {len(alerts)} alerts "
          f"({measure_series.degenerate_windows} degenerate windows, "
          f"{measure_series.epsilon_warnings} epsilon warnings) -> {out_dir}")
    return 1 if alerts and s.fail_on_alert else 0


# --- wiring -----------------------------------------------------------------


@functools.cache  # built on the first call, then shared by every call of main
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospfrqa",
        description="OSPF anomaly detection via recurrence quantification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (command_help, options) in COMMANDS.items():
        p = sub.add_parser(command, help=command_help)
        for opt in options:
            help_text = opt.help
            if opt.default is not None and opt.type is not bool:
                help_text = f"{opt.help or ''} (default {format_setting(opt.default)})".lstrip()
            kind = ({"action": "store_const", "const": True} if opt.type is bool
                    else {"type": opt.type, "choices": opt.choices})
            p.add_argument("--" + opt.name.replace("_", "-"), dest=opt.name,
                           help=help_text, **kind)
        p.add_argument("--config", help="key=value settings file")

    sub.choices["extract"].add_argument(
        "--ls-type", dest="ls_type", type=int, action="append", choices=ingest.LS_TYPES,
        help="restrict to LSA type (repeatable)")
    sub.choices["params"].add_argument("--json", action="store_true",
                                       help="machine-readable output")
    for command in ("params", "detect"):
        sub.choices[command].add_argument("series", help="count-series CSV")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # Looked up at call time, so a replaced module attribute is used.
        return globals()[f"cmd_{args.command}"](args)
    except (CliError, OSError, ValueError) as e:
        # Every error class of the package subclasses ValueError.
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
