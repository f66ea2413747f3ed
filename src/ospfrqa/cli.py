"""Command-line pipeline: simulate, extract, params, detect.

Every command is deterministic given its inputs (seeds are explicit and
no output embeds a wall-clock timestamp), exits 0 on success, 2 on usage
or data errors, and 1 only for ``detect --fail-on-alert`` when alerts
exist.  Commands that produce an output directory echo their fully
resolved settings to ``run_config.cfg`` there; re-running with
``--config`` pointing at that echo reproduces the outputs byte for byte.

The config file format is flat ``key = value`` lines with ``#`` comments,
using the same keys as the long option names (underscored).  Flags
override file values.  A key the command neither reads nor echoes, or a
value that does not parse as its key's type (booleans are
true/false/1/0/yes/no/on/off), is an error naming the file, the line and
the key.  The OSPFRQA_OUT environment variable supplies a default output
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import detect as detect_mod
from . import ingest, rqa, sim

ENV_OUT = "OSPFRQA_OUT"


class CliError(Exception):
    """Usage or data error; maps to exit code 2."""


def read_config_file(path) -> dict[str, tuple[int, str]]:
    """``key -> (line number, raw value)`` for a flat ``key = value`` file."""
    values = {}
    with open(path, encoding="utf-8") as f:
        for line_no, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = (line_no, value.strip())
    return values


def write_config_echo(path, values: dict) -> None:
    lines = [f"{k} = {values[k]}" for k in sorted(values)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


BOOLEANS = {"true": True, "1": True, "yes": True, "on": True,
            "false": False, "0": False, "no": False, "off": False}


def parse_setting(raw: str, cast):
    if cast is bool:
        try:
            return BOOLEANS[raw.lower()]
        except KeyError:
            raise ValueError("expected one of " + "/".join(BOOLEANS)) from None
    return cast(raw)


def resolve_settings(args, spec: dict[str, tuple], echo_only=()) -> dict:
    """Each setting of ``spec`` (key -> (type, default)) for one command.

    Priority: explicit flag > ``--config`` file > default.  Every key of
    the file must be one the command reads (``spec``) or echoes
    (``echo_only``), and every value must parse as its key's type;
    otherwise a CliError names the file, the line and the key.
    """
    config = read_config_file(args.config) if args.config else {}
    from_file = {}
    for key, (line_no, raw) in config.items():
        where = f"{args.config}:{line_no}: {key}"
        if key in echo_only:
            continue
        if key not in spec:
            raise CliError(f"{where}: unknown key for '{args.command}' "
                           f"(known: {', '.join(sorted([*spec, *echo_only]))})")
        try:
            from_file[key] = parse_setting(raw, spec[key][0])
        except ValueError as e:
            raise CliError(f"{where} = {raw!r}: {e}") from None
    values = {}
    for key, (_, default) in spec.items():
        flag_val = getattr(args, key, None)
        values[key] = flag_val if flag_val is not None else from_file.get(key, default)
    return values


def resolve_out_dir(out: str | None) -> Path:
    out = out or os.environ.get(ENV_OUT)
    if not out:
        raise CliError("no output directory: pass --out or set OSPFRQA_OUT")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def resolve_origin(origin: str | None, topology: sim.Topology | None) -> str | None:
    """Origins may be dotted-quad router ids or node names (with a topology)."""
    if origin is None:
        return None
    parts = origin.split(".")
    if len(parts) == 4 and all(p.isdigit() and int(p) <= 255 for p in parts):
        return origin
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
    with open(name_or_path, encoding="utf-8") as f:
        return sim.scenario_from_json(f.read())


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args) -> int:
    s = resolve_settings(args, {
        "topology": (str, None), "scenario": (str, "quiet"), "duration": (float, None),
        "seed": (int, 0), "jitter": (float, sim.REFRESH_JITTER_S), "out": (str, None),
    })
    topology_name, scenario_name = s["topology"], s["scenario"]
    duration, seed, jitter = s["duration"], s["seed"], s["jitter"]
    if topology_name is None or duration is None:
        raise CliError("simulate requires --topology and --duration")
    out_dir = resolve_out_dir(s["out"])

    topo = sim.load_topology(topology_name)
    scenario = load_scenario(scenario_name)
    result = sim.run(topo, scenario, duration, seed, refresh_jitter_s=jitter)
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    for monitor, events in result.logs.items():
        ingest.write_lsa_log(out_dir / f"events_{monitor}.jsonl", events)
    manifest = {
        "topology": topology_name,
        "scenario": scenario_name,
        "duration_s": duration,
        "seed": seed,
        "refresh_jitter_s": jitter,
        "monitor_totals": sim.total_event_counts(result.logs),
        "router_ids": {n: topo.router_id(n) for n in topo.nodes()},
        "warnings": result.warnings,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    write_config_echo(out_dir / "run_config.cfg", {
        "topology": topology_name, "scenario": scenario_name,
        "duration": f"{duration:g}", "seed": str(seed),
        "jitter": f"{jitter:g}", "out": str(out_dir),
    })
    print(f"wrote {len(result.logs)} monitor logs to {out_dir}")
    return 0


# --- extract ----------------------------------------------------------------


def cmd_extract(args) -> int:
    s = resolve_settings(args, {
        "log": (str, None), "pcap": (str, None), "monitor": (str, None),
        "origin": (str, None), "topology": (str, None), "bin": (int, 10),
        "include_acks": (bool, False), "t0": (float, None), "t1": (float, None),
        "out": (str, None),
    })
    log_path, pcap_path, monitor, out = s["log"], s["pcap"], s["monitor"], s["out"]
    bin_size, t0, t1 = s["bin"], s["t0"], s["t1"]
    if (log_path is None) == (pcap_path is None):
        raise CliError("extract requires exactly one of --log or --pcap")
    if out is None:
        raise CliError("extract requires --out for the series CSV")
    topology = None
    if s["topology"]:
        topology = sim.load_topology(s["topology"])
    ls_types = frozenset(args.ls_type) if args.ls_type else None

    if log_path is not None:
        events = list(ingest.read_lsa_log(log_path))
    else:
        if monitor is None:
            raise CliError("--monitor is required with --pcap (names the capture point)")
        events = list(ingest.extract_pcap_events(pcap_path, monitor))

    flt = ingest.EventFilter(
        monitor=monitor,
        origin=resolve_origin(s["origin"], topology),
        ls_types=ls_types,
        include_acks=s["include_acks"],
    )
    if t0 is None:
        first = min((e.ts_us for e in events), default=0)
        t0_us = (first // (bin_size * 1_000_000)) * bin_size * 1_000_000
    else:
        t0_us = int(t0 * 1e6)
    t1_us = int(t1 * 1e6) if t1 is not None else max((e.ts_us for e in events), default=0) + 1

    series = ingest.bin_series(events, flt, bin_size, t0_us, t1_us)
    ingest.write_series_csv(out, series)
    print(f"{len(series)} bins ({series.counts.sum()} events kept, "
          f"{series.dropped} outside range) -> {out}")
    return 0


# --- params -----------------------------------------------------------------


def cmd_params(args) -> int:
    s = resolve_settings(args, {
        "tau_max": (int, 20), "bins": (int, 16), "m_max": (int, 10), "r_tol": (float, 15.0),
        "a_tol": (float, 2.0), "drop_threshold": (float, 0.01), "epsilon": (float, 0.2),
    })
    tau_max, bins, m_max = s["tau_max"], s["bins"], s["m_max"]
    r_tol, a_tol, drop, epsilon = s["r_tol"], s["a_tol"], s["drop_threshold"], s["epsilon"]
    series = ingest.read_series_csv(args.series)
    x = series.counts.astype(float)

    mi, degenerate = rqa.mutual_information(x, tau_max=tau_max, bins=bins)
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
    fnn = rqa.false_nearest_neighbors(x, tau=tau, m_max=m_max, r_tol=r_tol, a_tol=a_tol)
    m, saturated = rqa.estimate_dimension(fnn, drop_threshold=drop)
    z, _ = rqa.znormalize(x)
    traj = rqa.embed(z, tau, m)
    diameter = rqa.phase_space_diameter(traj)
    eps_ok = epsilon <= 0.1 * diameter

    report = {
        "degenerate": False,
        "mi": [round(float(v), 9) for v in mi],
        "tau": tau,
        "tau_fallback": tau_fallback,
        "fnn": [round(float(v), 9) for v in fnn],
        "m": m,
        "m_saturated": saturated,
        "phase_space_diameter": round(float(diameter), 9),
        "epsilon": epsilon,
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
        print(f"epsilon {epsilon:g} {verdict} the 10%-of-diameter guideline")
    return 0


# --- detect -----------------------------------------------------------------


def cmd_detect(args) -> int:
    # The echo records the series path; replaying it takes the path from
    # the command line, so the file's ``series`` key is accepted and unused.
    s = resolve_settings(args, {
        "window": (int, 200), "step": (int, 1), "baseline": (int, 60), "k_mad": (float, 6.0),
        "tau": (int, 1), "m": (int, 2), "epsilon": (float, 0.2), "norm": (str, "euclidean"),
        "floor_scale": (float, 1.0), "measures": (str, None), "fail_on_alert": (bool, False),
        "out": (str, None),
    }, echo_only=("series",))
    window, step, baseline, k_mad = s["window"], s["step"], s["baseline"], s["k_mad"]
    tau, m, epsilon, norm = s["tau"], s["m"], s["epsilon"], s["norm"]
    floor_scale, measures_opt, fail_on_alert = s["floor_scale"], s["measures"], s["fail_on_alert"]
    series = ingest.read_series_csv(args.series)
    out_dir = resolve_out_dir(s["out"])

    enabled = tuple(measures_opt.split(",")) if measures_opt else rqa.MEASURE_NAMES
    try:
        cfg = detect_mod.DetectorConfig(
            window_bins=window, step_bins=step,
            embed=rqa.EmbedParams(tau=tau, m=m, epsilon=epsilon, norm=norm),
            baseline_bins=baseline, k_mad=k_mad,
            measures_enabled=enabled, floor_scale=floor_scale,
        )
        measure_series = detect_mod.sliding_rqa(series, cfg)
    except (ValueError, rqa.SeriesTooShortError) as e:
        raise CliError(str(e)) from None
    alerts = detect_mod.detect(measure_series, cfg)

    detect_mod.write_measures_csv(out_dir / "measures.csv", measure_series)
    detect_mod.write_alerts_jsonl(out_dir / "alerts.jsonl", alerts)
    write_config_echo(out_dir / "run_config.cfg", {
        "series": str(args.series), "window": str(window), "step": str(step),
        "baseline": str(baseline), "k_mad": f"{k_mad:g}", "tau": str(tau),
        "m": str(m), "epsilon": f"{epsilon:g}", "norm": norm,
        "floor_scale": f"{floor_scale:g}",
        "measures": ",".join(enabled),
        "fail_on_alert": str(fail_on_alert).lower(), "out": str(out_dir),
    })
    print(f"{len(measure_series)} windows analyzed, {len(alerts)} alerts "
          f"({measure_series.degenerate_windows} degenerate windows) -> {out_dir}")
    if alerts and fail_on_alert:
        return 1
    return 0


# --- wiring -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ospfrqa",
        description="OSPF anomaly detection via recurrence quantification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run the LSA-flooding simulator")
    p_sim.add_argument("--topology", help="shipped name (paper16/topo20/topo35) or file path")
    p_sim.add_argument("--scenario", help="quiet, paper-failure, paper-attacks, or a JSON file")
    p_sim.add_argument("--duration", type=float, help="simulated seconds")
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--jitter", type=float, help="refresh jitter in seconds")
    p_sim.add_argument("--out", help=f"output dir (default ${ENV_OUT})")
    p_sim.add_argument("--config", help="key=value settings file")
    p_sim.set_defaults(func=cmd_simulate)

    p_ext = sub.add_parser("extract", help="bin an event log or pcap into a count series")
    p_ext.add_argument("--log", help="JSON-lines LSA event log")
    p_ext.add_argument("--pcap", help="classic pcap capture")
    p_ext.add_argument("--monitor", help="monitor name filter (required for pcap)")
    p_ext.add_argument("--origin", help="advertising router: dotted quad or node name")
    p_ext.add_argument("--topology", help="topology for resolving origin names")
    p_ext.add_argument("--ls-type", dest="ls_type", type=int, action="append",
                       choices=range(1, 6), help="restrict to LSA type (repeatable)")
    p_ext.add_argument("--include-acks", dest="include_acks", action="store_const",
                       const=True, help="count acknowledgments too")
    p_ext.add_argument("--bin", type=int, help="bin size in seconds (default 10)")
    p_ext.add_argument("--t0", type=float, help="range start in seconds")
    p_ext.add_argument("--t1", type=float, help="range end in seconds (exclusive)")
    p_ext.add_argument("--out", help="output CSV path")
    p_ext.add_argument("--config", help="key=value settings file")
    p_ext.set_defaults(func=cmd_extract)

    p_par = sub.add_parser("params", help="estimate tau, m and check epsilon")
    p_par.add_argument("series", help="count-series CSV")
    p_par.add_argument("--tau-max", dest="tau_max", type=int)
    p_par.add_argument("--bins", type=int)
    p_par.add_argument("--m-max", dest="m_max", type=int)
    p_par.add_argument("--r-tol", dest="r_tol", type=float)
    p_par.add_argument("--a-tol", dest="a_tol", type=float)
    p_par.add_argument("--drop-threshold", dest="drop_threshold", type=float)
    p_par.add_argument("--epsilon", type=float)
    p_par.add_argument("--json", action="store_true", help="machine-readable output")
    p_par.add_argument("--config", help="key=value settings file")
    p_par.set_defaults(func=cmd_params)

    p_det = sub.add_parser("detect", help="sliding RQA plus change detection")
    p_det.add_argument("series", help="count-series CSV")
    p_det.add_argument("--window", type=int)
    p_det.add_argument("--step", type=int)
    p_det.add_argument("--baseline", type=int)
    p_det.add_argument("--k-mad", dest="k_mad", type=float)
    p_det.add_argument("--tau", type=int)
    p_det.add_argument("--m", type=int)
    p_det.add_argument("--epsilon", type=float)
    p_det.add_argument("--norm", choices=("euclidean", "maximum"))
    p_det.add_argument("--measures", help="comma-separated subset of the nine measures")
    p_det.add_argument("--floor-scale", dest="floor_scale", type=float)
    p_det.add_argument("--fail-on-alert", dest="fail_on_alert", action="store_const",
                       const=True, help="exit 1 when alerts exist")
    p_det.add_argument("--out", help=f"output dir (default ${ENV_OUT})")
    p_det.add_argument("--config", help="key=value settings file")
    p_det.set_defaults(func=cmd_detect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ingest.UnsupportedFormatError, ingest.MalformedPacketError,
            ingest.TruncatedPcapError, ingest.LogFormatError,
            sim.TopologyError, sim.ScenarioError,
            rqa.SeriesTooShortError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
