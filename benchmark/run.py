#!/usr/bin/env python3
"""setrecon benchmark: reconciliation latency, wire cost and model evaluators.

Run one workload from the root of a checkout:

    python3 benchmark/run.py --workload bulk-sync --seed 1 --seconds 40 --trace 0

`--trace 0` measures the end-to-end metrics.  `--trace 1` instead runs the
deterministic leading blocks twice, untraced and traced in alternating
order, and reports the per-layer metrics from the traced pass, each layer's
share of the traced wall time and the tracing overhead; the spans go to
`.bench_out/`.  The last line of standard output is the JSON result; the
lines before it are a readable report (environment, tail percentiles,
layer shares, failures).

Timings in the result are scaled to a machine of fixed speed (see
`speed.py`); the report keeps the raw wall-clock values next to them.

`--smoke` runs every workload at tiny size in its own process, in both
modes, and checks the result schema against BENCHMARK.json.

The program is imported from `src/` of the checkout; the benchmark exits
with an error and prints no result when it is not there.
"""

from __future__ import annotations

import os

# One thread for any BLAS numpy may load; must precede the numpy import.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402  (imports no setrecon module itself)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
WORKLOAD_NAMES = ("bulk-sync", "wide-field", "model-sweep")

END_TO_END = (
    ("psr.recon_ms_p50", "ms"),
    ("epsr.recon_ms_p50", "ms"),
    ("psr.recon_ms_tail", "ms"),
    ("epsr.recon_ms_tail", "ms"),
    ("recon_per_s", "1/s"),
    ("psr.bits_per_diff", "bits"),
    ("epsr.bits_per_diff", "bits"),
    ("table_s", "s"),
    ("mc_trees_per_s", "1/s"),
    ("ok_frac", "share"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("partition.word_calls", "count"),
    ("partition.busy_s", "s"),
    ("sketch.build_calls", "count"),
    ("sketch.build_elems", "count"),
    ("sketch.build_busy_s", "s"),
    ("sketch.subtract_calls", "count"),
    ("sketch.subtract_busy_s", "s"),
    ("sketch.codec_busy_s", "s"),
    ("sketch.wire_bytes", "bytes"),
    ("sketch.recover_calls", "count"),
    ("sketch.recover_ok_frac", "share"),
    ("sketch.recover_ok_busy_s", "s"),
    ("sketch.recover_fail_busy_s", "s"),
    ("sketch.recover_self_s", "s"),
    ("fieldmath.roots_calls", "count"),
    ("fieldmath.roots_busy_s", "s"),
    ("fieldmath.powmod_calls", "count"),
    ("fieldmath.powmod_busy_s", "s"),
    ("protocol.requests", "count"),
    ("protocol.reply_busy_s", "s"),
    ("protocol.engine_self_s", "s"),
    ("protocol.rounds", "count"),
    ("protocol.recoveries_per_diff", "ratio"),
    ("netsim.trees", "count"),
    ("netsim.sample_busy_s", "s"),
    ("netsim.trials", "count"),
    ("netsim.trial_busy_s", "s"),
    ("netsim.jobs", "count"),
    ("analysis.tables_busy_s", "s"),
    ("analysis.mc_trees", "count"),
    ("analysis.mc_busy_s", "s"),
) + tuple((f"{layer}.wall_share", "%") for layer in tracing.LAYERS) + (
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
)

WAIT_NOTE = ("no layer has wall-clock waiting to report: the benchmark is one "
             "thread and the loopback transport has no queue; netsim queueing "
             "is simulated time, not wall time")


# ---------------------------------------------------------------------------
# Running jobs.


class Record:
    """A job's time, its machine-speed scale and its outcome.  Neither the
    job, which holds its inputs, nor its result is kept, only the
    reconciliation samples, so memory does not grow with the number of jobs
    run."""

    __slots__ = ("kind", "block", "weight", "trees", "seconds", "scale",
                 "samples", "failed", "traced")

    def __init__(self, job, seconds, scale, samples, failed, traced):
        self.kind, self.block, self.weight, self.trees = (
            job.kind, job.block, job.weight, job.trees)
        self.seconds, self.scale, self.samples = seconds, scale, samples
        self.failed, self.traced = failed, traced


def _run_one(wl, job, traced, tracer=None, session=-1) -> Record:
    gc.collect()
    result = error = None
    kernel_before = speed.kernel_s()
    t0 = time.perf_counter()
    try:
        if tracer is not None and traced:
            with tracer.recording(session):
                result = job.run()
        else:
            result = job.run()
    except Exception as exc:  # one failed operation must not stop the run
        error = f"{job.kind} block {job.block}: {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    scale = speed.scale(kernel_before, speed.kernel_s())
    samples = []
    if error is None:
        try:
            failed = job.check(result)
            if job.kind == "recon":
                samples = job.samples(result)
        except Exception as exc:
            failed, error = job.weight, f"check of {job.kind}: {type(exc).__name__}: {exc}"
    else:
        failed = job.weight
    if error is not None:
        wl.errors.append(error)
    return Record(job, seconds, scale, samples, failed, traced)


def timed_run(wl, seconds: float) -> list[Record]:
    """Jobs in order until `seconds` have passed, but never fewer than the
    workload's leading `min_blocks`."""
    records: list[Record] = []
    start = time.perf_counter()
    for job in wl.jobs():
        if job.block >= wl.min_blocks and time.perf_counter() - start >= seconds:
            break
        records.append(_run_one(wl, job, traced=False))
    return records


def traced_run(wl, tracer) -> list[Record]:
    """Each job of the leading `trace_blocks` twice, untraced and traced,
    alternating the order so that warm-state effects cancel in the
    overhead estimate."""
    records: list[Record] = []
    for i, job in enumerate(wl.jobs()):
        if job.block >= wl.trace_blocks:
            break
        order = (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            records.append(_run_one(wl, job, traced, tracer, session=i))
    return records


# ---------------------------------------------------------------------------
# Metrics.


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value;
    with fewer than eleven samples, the maximum (percentile 100)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def _samples(records, prefix_blocks=None):
    out = []
    for r in records:
        if prefix_blocks is None or r.block < prefix_blocks:
            out.extend(r.samples)
    return out


def _timings(records, setups, scaled: bool) -> dict:
    """The timing metrics, scaled to the reference machine or raw."""
    def sec(seconds, scale):
        return seconds * scale if scaled else seconds

    def sample_s(r, s):
        return sec(s.seconds, r.scale if s.scale is None else s.scale)

    metrics = {}
    for proto in ("psr", "epsr"):
        ms = [1e3 * sample_s(r, s) for r in records for s in r.samples if s.protocol == proto]
        metrics[f"{proto}.recon_ms_p50"] = statistics.median(ms)
        metrics[f"{proto}.recon_ms_tail"] = _tail(ms)[1]
    # Time of the reconciliations themselves, plus that of reconciliation
    # jobs without samples (netsim tree sampling).
    recons = [r for r in records if r.kind == "recon"]
    busy = sum(sum(sample_s(r, s) * s.count for s in r.samples) if r.samples
               else sec(r.seconds, r.scale) for r in recons)
    metrics["recon_per_s"] = sum(s.count for r in recons for s in r.samples) / busy
    metrics["table_s"] = statistics.median(
        sec(r.seconds, r.scale) for r in records if r.kind == "tables")
    mc = [r for r in records if r.kind == "mc"]
    metrics["mc_trees_per_s"] = (sum(r.trees for r in mc)
                                 / sum(sec(r.seconds, r.scale) for r in mc))
    metrics["setup_s"] = statistics.median(sec(*setup) for setup in setups)
    return metrics


def end_to_end(wl, records, setups, report: dict):
    samples = _samples(records)
    metrics = _timings(records, setups, scaled=True)
    tails = {}
    for proto in ("psr", "epsr"):
        pct, _ = _tail([s.seconds for s in samples if s.protocol == proto])
        tails[proto] = {"percentile": round(pct, 2),
                        "samples": sum(s.protocol == proto for s in samples)}
        prefix = [s for s in _samples(records, wl.min_blocks) if s.protocol == proto]
        metrics[f"{proto}.bits_per_diff"] = (
            sum(s.bits for s in prefix) / sum(s.delta for s in prefix))
    checked, bad = wl.final_check(samples)
    attempted = sum(r.weight for r in records) + checked
    failed = sum(r.failed for r in records) + bad
    metrics["ok_frac"] = (attempted - failed) / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["tail"] = tails
    report["raw_wall_clock"] = _timings(records, setups, scaled=False)
    scales = [r.scale for r in records]
    report["speed_scale"] = {"median": statistics.median(scales),
                             "min": min(scales), "max": max(scales)}
    report["blocks"] = records[-1].block + 1 if records else 0
    report["timed_s"] = sum(r.seconds for r in records)
    return metrics, attempted, failed


def per_layer(wl, tracer, records, report: dict) -> dict:
    summary = tracer.summarize()

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    traced = [r for r in records if r.traced]
    wall = sum(r.seconds for r in traced)
    # Scaled, so that a change of machine speed between the two passes is
    # not taken for tracing cost.
    overhead = sum(r.seconds * r.scale for r in records if r.traced) - sum(
        r.seconds * r.scale for r in records if not r.traced)
    loopback = [] if wl.simulated else _samples(traced)
    diffs = sum(s.delta for s in loopback)
    recover_calls = get("recover", "calls")
    m = {
        "partition.word_calls": get("word_of_key", "calls"),
        "partition.busy_s": get("word_of_key", "top") + get("key_of", "top"),
        "sketch.build_calls": get("insert_set", "calls"),
        "sketch.build_elems": get("insert_set", "value"),
        "sketch.build_busy_s": get("insert_set", "busy"),
        "sketch.subtract_calls": get("subtract", "calls"),
        "sketch.subtract_busy_s": get("subtract", "busy"),
        "sketch.codec_busy_s": get("to_bytes", "busy") + get("from_bytes", "busy"),
        "sketch.wire_bytes": get("request", "value"),
        "sketch.recover_calls": recover_calls,
        "sketch.recover_ok_frac": get("recover", "value") / recover_calls if recover_calls else 0.0,
        "sketch.recover_ok_busy_s": get("recover", "busy_v1"),
        "sketch.recover_fail_busy_s": get("recover", "busy_v0"),
        "sketch.recover_self_s": get("recover", "self"),
        "fieldmath.roots_calls": get("find_distinct_roots", "calls"),
        "fieldmath.roots_busy_s": get("find_distinct_roots", "busy"),
        "fieldmath.powmod_calls": get("poly_pow_mod", "calls"),
        "fieldmath.powmod_busy_s": get("poly_pow_mod", "busy"),
        "protocol.requests": get("request", "calls"),
        "protocol.reply_busy_s": get("reply", "busy"),
        "protocol.engine_self_s": get("engine", "self"),
        "protocol.rounds": sum(s.rounds for s in loopback),
        "protocol.recoveries_per_diff": (
            sum(s.recoveries for s in loopback) / diffs if diffs else 0.0),
        "netsim.trees": get("sample_tree", "calls"),
        "netsim.sample_busy_s": get("sample_tree", "busy"),
        "netsim.trials": get("run_trial", "calls"),
        "netsim.trial_busy_s": get("run_trial", "busy"),
        "netsim.jobs": get("run_trial", "value"),
        "analysis.tables_busy_s": get("expectation_tables", "busy"),
        "analysis.mc_trees": get("mc_sample_batch", "value"),
        "analysis.mc_busy_s": get("mc_sample_batch", "busy"),
        "trace.overhead_s": overhead,
        "trace.overhead_pct": 100.0 * overhead / (wall - overhead) if wall > overhead else 0.0,
    }
    layer_self = {layer: 0.0 for layer in tracing.LAYERS}
    for name, row in summary.items():
        layer_self[tracer.layer_of[name]] += row["self"]
    for layer in tracing.LAYERS:
        m[f"{layer}.wall_share"] = 100.0 * layer_self[layer] / wall if wall else 0.0
    report["traced_wall_s"] = wall
    report["layer_share_pct"] = {k: round(m[f"{k}.wall_share"], 2) for k in tracing.LAYERS}
    report["layer_share_pct"]["outside_layers"] = round(
        100.0 - sum(report["layer_share_pct"].values()), 2)
    report["span_self_share_pct"] = {
        name: round(100.0 * row["self"] / wall, 2) for name, row in summary.items()} if wall else {}
    report["span_calls"] = {name: row["calls"] for name, row in summary.items()}
    accounted_bits = sum(s.bits for s in loopback)
    if accounted_bits:
        report["wire_bytes_per_accounted_byte"] = m["sketch.wire_bytes"] / (accounted_bits / 8)
    report["absent_layers"] = tracer.absent_layers()
    report["absent_hooks"] = tracer.absent_hooks
    report["span_value_errors"] = tracer.value_errors
    report["wait_time"] = WAIT_NOTE
    return m


# ---------------------------------------------------------------------------
# Environment and output.


def _environment() -> dict:
    import numpy

    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=20)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "git_commit": commit or "unknown (not a git checkout)"}


def _import_workloads():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import setrecon
    except ImportError as exc:
        raise SystemExit(f"error: cannot import setrecon from {src}: {exc}") from None
    if Path(setrecon.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: setrecon imported from {setrecon.__file__}, not {src}")
    import workloads

    return workloads


def run_workload(args) -> int:
    workloads = _import_workloads()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    setups = []
    for _ in range(SETUP_REPS):
        gc.collect()
        kernel_before = speed.kernel_s()
        t0 = time.perf_counter()
        wl.setup()
        seconds = time.perf_counter() - t0
        setups.append((seconds, speed.scale(kernel_before, speed.kernel_s())))
    report = {"workload": wl.name, "why": wl.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "size": args.size,
              "environment": _environment()}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            records = traced_run(wl, tracer)
        finally:
            tracer.uninstall()
        metrics = per_layer(wl, tracer, records, report)
        attempted = sum(r.weight for r in records)
        failed = sum(r.failed for r in records)
        units = dict(PER_LAYER)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.csv.gz"
        tracer.write_spans(spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        records = timed_run(wl, args.seconds)
        metrics, attempted, failed = end_to_end(wl, records, setups, report)
        units = dict(END_TO_END)
        report["setup_s_reps"] = [seconds for seconds, _ in setups]
    report["errors"] = wl.errors[:20]
    print(json.dumps(report, indent=1, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Smoke mode.


def _validate(line: str, expected: dict) -> list[str]:
    problems = []
    try:
        out = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(out)}")
    if out.get("correct") is not True or out.get("failed") != 0:
        problems.append(f"correct={out.get('correct')} failed={out.get('failed')}")
    if not isinstance(out.get("attempted"), int) or out["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    metrics = out.get("metrics", {})
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if not isinstance(entry.get("value"), (int, float)) or entry.get("unit") != unit:
            problems.append(f"{name}: {entry}")
    return problems


def smoke() -> int:
    """Every workload at tiny size, both modes, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    if declared[0] != dict(END_TO_END) or declared[1] != dict(PER_LAYER):
        print("BENCHMARK.json metrics differ from the ones this benchmark prints")
        ok = False
    if [w["name"] for w in spec["workloads"]] != list(WORKLOAD_NAMES):
        print("BENCHMARK.json workloads differ from the ones this benchmark runs")
        ok = False
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            lines = proc.stdout.strip().splitlines()
            problems = [] if proc.returncode == 0 else [f"exit code {proc.returncode}",
                                                        proc.stderr[-2000:]]
            if lines:
                problems += _validate(lines[-1], declared[trace])
            else:
                problems.append("no output")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{name} trace={trace}: {status} ({time.perf_counter() - t0:.1f} s)")
            ok = ok and not problems
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is tiny and runs in seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at smoke size and check the output schema")
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
