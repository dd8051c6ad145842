"""Command-line front end emitting reproducible CSV/JSON artifacts.

Subcommands: analyze (expectation tables), mc (Monte Carlo vs recursion),
reconcile (end-to-end protocol run), netsim (network simulation sweep),
verify (acceptance suite).  Every command is deterministic under --seed;
analyze, mc, reconcile and netsim with --out also write <out>.manifest.json
recording parameters, seed, version, and output checksums.

Exit codes: 0 success, 2 usage error (an invalid argument, or a file that
cannot be read or written), 3 acceptance-check failure.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__, acceptance, netsim
from .analysis import expectation_tables, mc_sample_batch, write_metrics_csv
from .partition import (
    PartitionSchedule,
    fair_probs,
    schedule_from_strings,
)
from .protocol import (
    ProtocolConfig,
    load_fixture,
    make_loopback,
    reconcile,
)
from .sketch import wire_cost

_ANALYZE_CAP = 10_000


def _schedule_from_args(args) -> PartitionSchedule:
    if args.probs is not None:
        schedule = schedule_from_strings(args.probs.split(","))
        if args.c is not None and schedule.c != args.c:
            raise ValueError(f"--c {args.c} does not match {schedule.c} probabilities")
        return schedule
    return fair_probs(args.c if args.c is not None else 2)


def _dump(out, text: str, command: str, params: dict, seed) -> None:
    if not out:
        sys.stdout.write(text)
        return
    path = Path(out)
    path.write_text(text)
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "tool_version": __version__,
        "outputs": {path.name: hashlib.sha256(path.read_bytes()).hexdigest()},
    }
    manifest_path = path.with_name(path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def cmd_analyze(args) -> int:
    if args.delta_max > _ANALYZE_CAP:
        raise ValueError(f"--delta-max is capped at {_ANALYZE_CAP}")
    schedule = _schedule_from_args(args)
    buf = io.StringIO()
    write_metrics_csv(buf, args.delta_max, args.mbar, args.gamma, args.bits, schedule)
    params = {
        "mbar": args.mbar,
        "gamma": args.gamma,
        "bits": args.bits,
        "probs": [str(p) for p in schedule.probs],
        "delta_max": args.delta_max,
    }
    _dump(args.out, buf.getvalue(), "analyze", params, None)
    return 0


def cmd_mc(args) -> int:
    if args.samples < 100:
        raise ValueError("--samples must be at least 100")
    schedule = _schedule_from_args(args)
    deltas = _parse_int_list(args.delta)
    tables = expectation_tables(max(deltas), args.mbar, schedule)
    rng = np.random.default_rng(args.seed)
    results = []
    for delta in deltas:
        draws = mc_sample_batch(delta, args.mbar, schedule, args.samples, rng)
        entry: dict = {"delta": delta}
        for key, table in (("n", tables.n_bar), ("t", tables.t_bar), ("u", tables.u_bar)):
            arr = draws[key]
            stderr = float(arr.std(ddof=1) / np.sqrt(arr.size))
            expected = float(table[delta])
            mean = float(arr.mean())
            entry[key] = {
                "mean": mean,
                "stderr": stderr,
                "expected": expected,
                "z": (mean - expected) / stderr if stderr > 0 else 0.0,
            }
        entry["depth"] = {
            "mean": float(draws["depth"].mean()),
            "stderr": float(draws["depth"].std(ddof=1) / np.sqrt(args.samples)),
        }
        results.append(entry)
    payload = {
        "mbar": args.mbar,
        "probs": [str(p) for p in schedule.probs],
        "samples": args.samples,
        "seed": args.seed,
        "results": results,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _dump(args.out, text, "mc", payload | {"results": None}, args.seed)
    return 0


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None
    if any(v < 0 for v in values):
        raise ValueError("values must be nonnegative integers")
    return values


def cmd_reconcile(args) -> int:
    if args.fixture:
        fixture = load_fixture(args.fixture)
        protocol = args.protocol or fixture.config.protocol
        config = replace(fixture.config, protocol=protocol)
        set_a, set_b = a_only, b_only = fixture.set_a, fixture.set_b
    else:
        protocol = args.protocol or "psr"
        schedule = _schedule_from_args(args)
        if min(args.delta, args.shared) < 0:
            raise ValueError("--delta and --shared must be nonnegative")
        # made first, so the shift below only sees a width it accepts
        config = ProtocolConfig(
            args.mbar, args.gamma, args.bits, schedule,
            hash_seed=args.seed, protocol=protocol,
        )
        if args.delta + args.shared > (1 << args.bits):
            raise ValueError("delta plus shared exceeds the universe capacity")
        a_only, b_only, shared = acceptance.random_instance(
            random.Random(args.seed), args.delta, args.shared, args.bits
        )
        set_a, set_b = set(a_only) | shared, set(b_only) | shared
    trace = [] if args.trace else None
    result, metrics = reconcile(set_a, make_loopback(set_b, config, trace), config)
    if trace is not None:
        with open(args.trace, "w", encoding="utf-8") as fobj:
            fobj.writelines(line + "\n" for line in trace)
    payload = {
        "protocol": config.protocol,
        "fixture": args.fixture,
        "delta": len(a_only) + len(b_only),
        "mbar": config.mbar,
        "gamma": config.gamma,
        "bits": config.element_bits,
        "seed": args.seed,
        "metrics": asdict(metrics) | {
            "wire_cost_per_sketch": wire_cost(config.mbar, config.gamma, config.element_bits),
        },
        "correct": result.a_only == a_only and result.b_only == b_only,
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _dump(args.out, text, "reconcile", payload, args.seed)
    return 0


def cmd_netsim(args) -> int:
    scenario = netsim.load_scenario(args.scenario)
    deltas = _parse_int_list(args.delta)
    cores = [scenario.n_cores] if args.cores is None else _parse_int_list(args.cores)
    protocols = ("psr", "epsr") if args.protocol == "both" else (args.protocol,)
    rows = netsim.sweep(deltas, scenario, cores, protocols, args.seed, args.samples)
    buf = io.StringIO()
    netsim.write_sweep_csv(buf, rows)
    params = {
        "scenario": args.scenario,
        "deltas": deltas,
        "cores": cores,
        "protocols": list(protocols),
        "samples": args.samples,
    }
    _dump(args.out, buf.getvalue(), "netsim", params, args.seed)
    return 0


def cmd_verify(args) -> int:
    numbers = None if args.criteria is None else _parse_int_list(args.criteria)
    results = acceptance.run_criteria(numbers)
    if args.out:
        payload = [asdict(r) | {"seconds": round(r.seconds, 2)} for r in results]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 3


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=int, default=None, help="branching factor (fair split)")
    p.add_argument("--probs", default=None,
                   help="comma-separated child probabilities (fractions or decimals)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="setrecon",
        description="Set reconciliation toolkit: analysis tables, Monte Carlo "
                    "verification, protocol runs, and network simulation.",
    )
    parser.add_argument("--version", action="version", version=f"setrecon {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="emit expectation/redundancy table as CSV")
    p.add_argument("--mbar", type=int, default=25)
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--bits", type=int, default=64)
    _add_schedule_flags(p)
    p.add_argument("--delta-max", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("mc", help="Monte Carlo sampling vs the recursions (JSON)")
    p.add_argument("--mbar", type=int, default=25)
    _add_schedule_flags(p)
    p.add_argument("--delta", default="100,200,400,800,1600")
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_mc)

    p = sub.add_parser("reconcile", help="run one reconciliation over loopback (JSON)")
    p.add_argument("--protocol", choices=("psr", "epsr"), default=None)
    p.add_argument("--delta", type=int, default=100)
    p.add_argument("--shared", type=int, default=100,
                   help="elements present in both sets")
    p.add_argument("--mbar", type=int, default=10)
    p.add_argument("--gamma", type=int, default=2)
    p.add_argument("--bits", type=int, default=64)
    _add_schedule_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", choices=("fig2", "fig3"), default=None,
                   help="use a built-in worked-example placement")
    p.add_argument("--trace", default=None,
                   help="also write the wire trace to this file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_reconcile)

    p = sub.add_parser("netsim", help="network simulation sweep (CSV)")
    p.add_argument("--scenario", default="I",
                   help="preset I/II/III or a key=value scenario file")
    p.add_argument("--delta", default="1000")
    p.add_argument("--cores", default=None,
                   help="comma-separated core counts (default: the scenario's n_cores)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--protocol", choices=("psr", "epsr", "both"), default="both")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_netsim)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--criteria", default=None,
                   help="comma-separated criterion numbers (default: all)")
    p.add_argument("--out", default=None, help="also write a JSON report")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
