"""Set up, drive and measure one workload; build the result line.

One process, one closed-loop client calling `bosewit.cli.main(argv)` in
process. End-to-end metrics come from an untraced run. A traced run
(`--trace 1`) alternates untraced and traced segments and reports per-layer
metrics per operation, the tracing overhead, the overflow probes and a
scaling sweep.

Every latency and set-up time is scaled by the speed probe's kernel timings
around it (see speed.py); the raw wall times are kept in the detail.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import checks, sweep
from .speed import SpeedProbe
from .tracing import Tracer
from .workloads import WORKLOADS, overflow_probes

SEGMENTS = 5  # untraced: each segment is a fresh set-up, then seconds / SEGMENTS of requests
TRACE_SEGMENTS = 6  # traced: one set-up, then alternating untraced / traced segments
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
_MAX_PROBLEMS_REPORTED = 5


@dataclass
class Record:
    kind: str
    ops: int
    wall_s: float
    problems: list = field(default_factory=list)
    latency_s: float = 0.0  # wall_s scaled by the speed probe around it


class Client:
    """The one closed-loop client: sends a request, waits, checks its output."""

    def __init__(self):
        self.cli = importlib.import_module("bosewit.cli")
        witness_error = importlib.import_module("bosewit.errors").WitnessError
        self.error_names = set()
        pending = [witness_error]
        while pending:
            cls = pending.pop()
            self.error_names.add(cls.__name__)
            pending.extend(cls.__subclasses__())

    def send(self, request) -> Record:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                rc = self.cli.main(list(request.argv))
            except Exception:  # a crash is a failed operation, never a lost one
                rc = None
                crash = traceback.format_exc(limit=3)
            wall = perf_counter() - start
        if rc is None:
            problems = [f"uncaught exception: {crash}"]
        else:
            try:
                problems = checks.check(request.expect, rc, out.getvalue(), self.error_names)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:  # malformed output
                problems = [f"output could not be checked: {type(exc).__name__}: {exc}"]
        return Record(request.kind, request.ops, wall, problems)


def _purge_bosewit() -> None:
    for name in [n for n in sys.modules if n == "bosewit" or n.startswith("bosewit.")]:
        del sys.modules[name]


def setup(workload, seed: int, workdir: Path):
    """Import bosewit afresh, generate the inputs, send one untimed warm-up.
    Returns (client, stream, warm-up record, wall seconds)."""
    start = perf_counter()
    _purge_bosewit()
    client = Client()
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    stream, warmup = workload.generate(seed, workdir)
    warm = client.send(warmup)
    return client, stream, warm, perf_counter() - start


def measure(client: Client, stream, seconds: float, start: int, probe: SpeedProbe,
            tracer: Tracer | None = None):
    """Send stream[start:] (cycling) for `seconds`; returns (records, next index)."""
    records, timings = [], []
    deadline = perf_counter() + seconds
    index = start
    while True:
        timings.append(probe.refresh())
        if tracer is not None:
            tracer.request = index
        records.append(client.send(stream[index % len(stream)]))
        index += 1
        if perf_counter() >= deadline:
            break
    probe.refresh(force=True)
    for record, timing in zip(records, timings):
        record.latency_s = record.wall_s * probe.factor(timing)
    return records, index


def tail(latencies: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    keeps TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    index = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def _summary(records: list) -> dict:
    latencies = [r.latency_s for r in records]
    walls = [r.wall_s for r in records]
    tail_s, tail_pct, beyond = tail(latencies)
    attempted = sum(r.ops for r in records)
    failed = sum(r.ops for r in records if r.problems)
    by_kind = {}
    for r in records:
        row = by_kind.setdefault(r.kind, {"requests": 0, "ops": 0, "failed_ops": 0, "latencies": []})
        row["requests"] += 1
        row["ops"] += r.ops
        row["failed_ops"] += r.ops if r.problems else 0
        row["latencies"].append(r.latency_s)
    for row in by_kind.values():
        row["latency_p50_ms"] = 1e3 * statistics.median(row.pop("latencies"))
    return {
        "requests": len(records),
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        # every op completed over all (speed-scaled) program time of the requests
        "throughput_ops_s": attempted / sum(latencies),
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_tail_ms": 1e3 * tail_s,
        "latency_tail_percentile": tail_pct,
        "latency_tail_samples_beyond": beyond,
        "raw_wall": {
            "throughput_ops_s": attempted / sum(walls),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_ms": 1e3 * tail(walls)[0],
        },
        "wall_time_s": sum(walls),
        "by_kind": by_kind,
        "problems": [p for r in records for p in r.problems][:_MAX_PROBLEMS_REPORTED],
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def _layer_metrics(tracer: Tracer, phase: dict, overhead: float, probe_failed: int) -> dict:
    table = tracer.layer_table()
    ops = phase["attempted"]
    program_time = phase["wall_time_s"]

    def row(layer: str, key: str) -> float:
        return table.get(layer, {}).get(key, 0.0)

    def per_op(value: float, unit: str) -> dict:
        return {"value": value / ops, "unit": unit}

    def share(layer: str) -> dict:
        return {"value": row(layer, "busy_s") / program_time, "unit": "ratio"}

    metrics = {
        "witnesses.g2m.calls": per_op(row("witnesses.g2m", "calls"), "count/op"),
        "witnesses.g2m.busy_s": per_op(row("witnesses.g2m", "busy_s"), "s/op"),
        "witnesses.g2m.share": share("witnesses.g2m"),
        "factorials.falling_factorial.calls": per_op(row("factorials.falling_factorial", "calls"), "count/op"),
        "factorials.log_binomial.calls": per_op(row("factorials.log_binomial", "calls"), "count/op"),
        "separable.sample.busy_s": per_op(row("separable.sample", "busy_s"), "s/op"),
        "separable.build.busy_s": per_op(row("separable.build", "busy_s"), "s/op"),
        "separable.build.share": share("separable.build"),
        "separable.to_fock.calls": per_op(row("separable.to_fock", "calls"), "count/op"),
        "separable.to_fock.busy_s": per_op(row("separable.to_fock", "busy_s"), "s/op"),
        "separable.dense_bytes_computed": per_op(tracer.counts["separable.dense_bytes_computed"], "B/op"),
        "fock.eig.calls": per_op(row("fock.eig", "calls"), "count/op"),
        "fock.eig.busy_s": per_op(row("fock.eig", "busy_s"), "s/op"),
        "fock.eig.share": share("fock.eig"),
        "fock.eig.flops_computed": per_op(tracer.counts["fock.eig.flops_computed"], "flop/op"),
        "fock.generator.busy_s": per_op(row("fock.generator", "busy_s"), "s/op"),
        "fock.moments.busy_s": per_op(row("fock.moments", "busy_s"), "s/op"),
        "scan.self_s": per_op(row("scan", "self_s"), "s/op"),
        "witnesses.qfi.busy_s": per_op(row("witnesses.qfi", "busy_s"), "s/op"),
        "witnesses.xi2.busy_s": per_op(row("witnesses.xi2", "busy_s"), "s/op"),
        "witnesses.eta2.busy_s": per_op(row("witnesses.eta2", "busy_s"), "s/op"),
        "witnesses.errors": per_op(sum(tracer.errors.values()), "count/op"),
        "statespec.parse.calls": per_op(row("statespec.parse", "calls"), "count/op"),
        "statespec.parse.busy_s": per_op(row("statespec.parse", "busy_s"), "s/op"),
        "statespec.build.busy_s": per_op(row("statespec.build", "busy_s"), "s/op"),
        "cli.requests": per_op(row("cli", "calls"), "count/op"),
        "cli.self_s": per_op(row("cli", "self_s"), "s/op"),
        "trace.overhead": {"value": overhead, "unit": "ratio"},
        "checks.overflow_probe_failed": {"value": probe_failed, "unit": "count"},
    }
    return metrics, table


def run(root: Path, workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Returns (result line, detail) for one run.

    Untraced, the run is SEGMENTS segments, each a fresh set-up followed by
    an equal share of `seconds` of requests (the stream continues where the
    last segment stopped), so the set-ups sample the whole run. Traced, one
    set-up is followed by TRACE_SEGMENTS segments alternating untraced and
    traced, so the overhead compares the two under the same conditions.
    """
    from .env import describe

    workload = WORKLOADS[workload_name]
    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work-{workload_name}-{seed}"
    detail = {"env": describe(root, workload_name, seed, seconds, trace)}
    probe = SpeedProbe()
    warmups, setup_wall, setup_scaled, untraced_records, traced_records = [], [], [], [], []
    tracer = Tracer()
    index = 0
    try:
        for segment in range(TRACE_SEGMENTS if trace else SEGMENTS):
            if segment == 0 or not trace:
                timing = probe.refresh(force=True)
                client, stream, warm, wall = setup(workload, seed, workdir)
                probe.refresh(force=True)
                warmups.append(warm)
                setup_wall.append(wall)
                setup_scaled.append(wall * probe.factor(timing))
            share = seconds / (TRACE_SEGMENTS if trace else SEGMENTS)
            if trace and segment % 2:
                tracer.install()
                try:
                    records, index = measure(client, stream, share, index, probe, tracer)
                finally:
                    tracer.uninstall()
                traced_records += records
            else:
                records, index = measure(client, stream, share, index, probe)
                untraced_records += records
        if trace:
            probes = [(p.kind, client.send(p).problems) for p in overflow_probes(workdir)]
            detail["scaling_sweep_s"] = sweep.run_sweep(workdir, seed)
    finally:
        if workdir.exists():
            shutil.rmtree(workdir)

    untraced = _summary(untraced_records)
    detail["setup_s_wall"] = setup_wall
    detail["setup_s_scaled"] = setup_scaled
    detail["speed_probe_kernel_s"] = {
        "min": min(probe.kernel_s),
        "median": statistics.median(probe.kernel_s),
        "max": max(probe.kernel_s),
        "samples": len(probe.kernel_s),
    }
    detail["warmup_problems"] = [p for w in warmups for p in w.problems]
    detail["untraced"] = untraced
    attempted = untraced["attempted"] + sum(w.ops for w in warmups)
    failed = untraced["failed"] + sum(w.ops for w in warmups if w.problems)
    if not trace:
        metrics = {
            "throughput_ops_s": {"value": untraced["throughput_ops_s"], "unit": "1/s"},
            "latency_p50_ms": {"value": untraced["latency_p50_ms"], "unit": "ms"},
            "latency_tail_ms": {"value": untraced["latency_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_scaled), "unit": "s"},
        }
    else:
        traced = _summary(traced_records)
        attempted += traced["attempted"]
        failed += traced["failed"]
        overhead = 1.0 - traced["throughput_ops_s"] / untraced["throughput_ops_s"]
        probe_failed = sum(1 for _, problems in probes if problems)
        metrics, table = _layer_metrics(tracer, traced, overhead, probe_failed)
        detail["traced"] = traced
        detail["layers"] = table
        detail["witness_errors"] = dict(tracer.errors)
        detail["overflow_probes"] = {kind: problems for kind, problems in probes}
        tracer.write_spans(out_dir / f"spans-{workload_name}.jsonl")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, detail
