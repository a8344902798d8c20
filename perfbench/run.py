"""Seeded closed-loop benchmark for zfcantor.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  One client in this process sends one call at a time and waits
for it (closed loop); no threads run, and the only other processes are
the fresh interpreters that time set-up, one at a time.

Every workload runs all six stages (setup, census, verdict, large,
omega, formulas), interleaved: its own stages at full size for most of
``--seconds``, the others at a light size for a tenth each, so every
metric exists on every workload.  A metric compares only within one
workload.

``--trace 0`` times the stages untraced and reports the end-to-end
metrics, scaled to the reference machine's speed: every 20 ms a probe
(``probe.py``) times fixed work that never calls zfcantor, and each
sample is divided (a rate: multiplied) by how much slower than on the
reference machine the probes during it ran.  ``--trace 1`` runs a fixed
number of blocks per stage twice, untraced and then traced, and reports
per-layer self times and counts;
the difference of the two wall times is ``trace.overhead_s``.  The last
line of standard output is one JSON object; a fuller report, with
machine info and the ``src/`` line count, goes to ``.perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

STAGE_ORDER = ("setup", "census", "verdict", "large", "omega", "formulas")
# workload: {stage run at full size: share of --seconds}; every other
# stage runs at light size for its LIGHT_SHARE.
PRIMARY = {
    "census": {"census": 0.55},
    "verdict": {"verdict": 0.55},
    "large": {"large": 0.45, "omega": 0.2},
    "formulas": {"formulas": 0.55},
}
# A verdict pass takes about a second, the other stages' blocks 0.03-0.2 s;
# verdict's larger share gives it the two to four passes its per-digraph
# medians need.
LIGHT_SHARE = {"census": 0.08, "verdict": 0.16, "large": 0.08, "omega": 0.08, "formulas": 0.08}
MIN_BLOCKS = 2
# Set-up runs a fixed number of fresh interpreters, spread over the run.
SETUP_SHARE = 0.05
SETUP_BLOCKS = {"full": 9, "light": 9, "tiny": 1}
# Blocks per stage in a traced run, fixed so per-layer totals compare across commits.
TRACE_BLOCKS = {
    "setup": SETUP_BLOCKS,
    "census": {"full": 1, "light": 2, "tiny": 1},
    "verdict": {"full": 2, "light": 1, "tiny": 1},
    "large": {"full": 1, "light": 1, "tiny": 1},
    "omega": {"full": 5, "light": 1, "tiny": 1},
    "formulas": {"full": 20, "light": 4, "tiny": 1},
}
# Span names whose self time is a per-layer metric, as "<span>_s".
LAYER_SPANS = (
    "analysis.pair_table",
    "analysis.cantor_scan",
    "analysis.witness",
    "analysis.strongly_extensive",
    "analysis.omega_prefix",
    "analysis.extract_surjection",
    "digraphs.from_counter",
    "digraphs.load",
    "digraphs.dump",
    "semantics.evaluate",
    "formulas.tokenize",
    "formulas.parse",
    "formulas.render",
    "formulas.analyze",
    "schemes.parse_scheme",
    "schemes.expand",
    "schemes.instantiate",
    "substitution.sub",
)
LAYER_COUNTS = (
    "semantics.sentences",
    "formulas.tokens",
    "schemes.shortcuts",
    "substitution.calls",
    "verdict.digraphs",
    "census.total",
    "census.strongly_extensive",
    "census.cantor",
)


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no such percentile exists and the maximum
    is reported as the 100th.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def plan(workload: str, scale: str) -> list[tuple[str, str, float]]:
    """(stage, size, share of --seconds) in run order."""
    out = []
    for stage in STAGE_ORDER:
        share = SETUP_SHARE if stage == "setup" else PRIMARY[workload].get(stage)
        size = "light" if share is None else "full"
        out.append((stage, "tiny" if scale == "tiny" else size, share or LIGHT_SHARE[stage]))
    return out


def blocks_of(stage: str, size: str, seed: int, api, rec):
    import stages

    make_blocks, run_block = stages.STAGES[stage]
    return make_blocks(random.Random(f"{seed}:{stage}"), size, api, rec), run_block


def interleave(stage_plan, seed: int, seconds: float, api, rec):
    """Run every stage's blocks, interleaved, until each has used its share.

    Returns each stage's block times.

    The next block always comes from the stage that has used the least of
    its share, so each stage's samples spread over the whole run and see
    the same machine.  A stage stops once it has run MIN_BLOCKS blocks
    (set-up: its fixed count) and its next block would overrun its share.
    """
    times: dict[str, list[float]] = {}
    sources, budget, fixed = {}, {}, {}
    for stage, size, share in stage_plan:
        sources[stage] = blocks_of(stage, size, seed, api, rec)
        budget[stage] = share * seconds
        fixed[stage] = SETUP_BLOCKS[size] if stage == "setup" else None
        times[stage] = []
    active = [stage for stage, _, _ in stage_plan]
    gc.collect()
    while active:
        stage = min(active, key=lambda s: sum(times[s]) / budget[s])
        source, run_block = sources[stage]
        block = next(source)
        t0 = perf_counter()
        run_block(api, rec, block)
        done = times[stage]
        done.append(perf_counter() - t0)
        if fixed[stage] is not None:
            finished = len(done) >= fixed[stage]
        else:
            finished = len(done) >= MIN_BLOCKS and sum(done) + statistics.median(done) > budget[stage]
        if finished:
            active.remove(stage)
    return times


def drive(stage, size, seed, api, rec, blocks, tracer=None, layer_self=None) -> list[float]:
    """Run a fixed number of blocks of one stage; returns each block's wall time.

    When traced, the self times of the spans recorded inside the blocks
    are added to ``layer_self``.
    """
    source, run_block = blocks_of(stage, size, seed, api, rec)
    times: list[float] = []
    gc.collect()
    for block in source:
        first = len(tracer) if tracer is not None else 0
        t0 = perf_counter()
        with api.span(f"{stage}.block"):
            run_block(api, rec, block)
        times.append(perf_counter() - t0)
        if tracer is not None:
            for name, seconds in tracer.self_times(first).items():
                layer_self[name] = layer_self.get(name, 0.0) + seconds
        if len(times) >= blocks:
            return times


def run_untraced(workload, seed, seconds, scale):
    import stages
    from probe import REF_NS, Prober
    from tracing import Api

    rec = stages.Record()
    stage_plan = plan(workload, scale)
    prober = Prober()
    rec.prober, rec.now = prober, prober.now_ns
    prober.start()
    try:
        times = interleave(stage_plan, seed, seconds, Api(), rec)
    finally:
        prober.stop()
    stage_info = {
        stage: {"size": size, "budget_s": share * seconds, "blocks": len(times[stage]), "wall_s": sum(times[stage])}
        for stage, size, share in stage_plan
    }
    raw = end_to_end(rec, lambda start, end: 1.0)
    depths = rec.values("formula_depth")
    extra = {
        "machine_slowdown": statistics.median(prober.took) / REF_NS,
        "probes": {"count": len(prober.took), "spent_s": prober.spent_ns / 1e9},
        "raw_metrics": {name: m[0] for name, m in raw.items()},
        "stages": stage_info,
        "formula_depth": {"min": min(depths), "median": statistics.median(depths), "max": max(depths)},
    }
    return rec, end_to_end(rec, prober.slowdown), extra


def end_to_end(rec, slowdown) -> dict:
    """The end-to-end metrics, each sample scaled by ``slowdown(start, end)``.

    A metric over corpus items (the p50s, tails and ``large_s``) first
    takes each item's median over its passes.
    """

    def scaled(samples, rate=False):
        return [value * slowdown(t0, t1) if rate else value / slowdown(t0, t1) for t0, t1, value in samples]

    def median(key, unit, rate=False):
        values = scaled(rec.samples[key], rate)
        return statistics.median(values), unit, len(values)

    def item_medians(key):
        return [statistics.median(scaled(samples)) for samples in rec.per_item[key].values()]

    def median_item(key, unit):
        return statistics.median(item_medians(key)), unit, len(rec.per_item[key])

    def tail_item(key, unit):
        percentile, value = tail(item_medians(key))
        return value, unit, len(rec.per_item[key]), percentile

    return {
        "setup_s": median("setup_s", "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "census_digraphs_per_s": median("census_digraphs_per_s", "1/s", rate=True),
        "verdict_phi_ms_p50": median_item("verdict_phi_ms", "ms"),
        "verdict_phi_ms_tail": tail_item("verdict_phi_ms", "ms"),
        "verdict_semantic_us_p50": median_item("verdict_semantic_us", "us"),
        "verdict_semantic_us_tail": tail_item("verdict_semantic_us", "us"),
        "large_s": (sum(item_medians("large_s")), "s", len(rec.per_item["large_s"])),
        "omega_s": median("omega_s", "s"),
        "frontend_tokens_per_s": median("frontend_tokens_per_s", "1/s", rate=True),
        "scheme_expand_ms_p50": median_item("scheme_expand_ms", "ms"),
    }


def run_traced(workload, seed, scale):
    import stages
    from tracing import Api, Tracer

    rec, plain_rec = stages.Record(), stages.Record()  # traced pass, untraced pass
    tracer = Tracer()
    plain, traced = Api(), Api(tracer)
    layer_self: dict[str, float] = {}
    stage_info = {}
    for stage, size, _ in plan(workload, scale):
        blocks = TRACE_BLOCKS[stage][size]
        untraced = sum(drive(stage, size, seed, plain, plain_rec, blocks))
        if stage == "setup":  # fresh interpreters: nothing to trace in this process
            continue
        before = sum(layer_self.values())
        traced_s = sum(drive(stage, size, seed, traced, rec, blocks, tracer, layer_self))
        spans_s = sum(layer_self.values()) - before
        stage_info[stage] = {
            "size": size,
            "blocks": blocks,
            "untraced_s": untraced,
            "traced_s": traced_s,
            "span_self_sum_s": spans_s,
            "overhead_s": traced_s - untraced,
            # untraced time minus (span self times - overhead): near 0 when
            # the spans account for the traced wall time
            "residual_s": untraced - (spans_s - (traced_s - untraced)),
        }
    rec.attempted += plain_rec.attempted
    rec.failed += plain_rec.failed
    rec.errors += plain_rec.errors
    c = rec.counts
    metrics = {f"{name}_s": (layer_self.get(name, 0.0), "s") for name in LAYER_SPANS}
    metrics.update({name: (c[name], "count") for name in LAYER_COUNTS})
    metrics.update(
        {
            "census.census_s": (stage_info["census"]["untraced_s"], "s"),
            "census.self_s": (layer_self.get("census.replica", 0.0), "s"),
            "cantor.emit_phi_cold_s": (statistics.median(plain_rec.values("setup_emit_phi_s")), "s"),
            "setup.import_s": (statistics.median(plain_rec.values("setup_import_s")), "s"),
            "verdict.noncantor_ratio": (c["verdict.noncantor"] / c["verdict.digraphs"], "ratio"),
            "trace.overhead_s": (sum(i["overhead_s"] for i in stage_info.values()), "s"),
        }
    )
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans_{workload}.tsv")
    extra = {
        "stages": stage_info,
        "benchmark_self_s": {k: v for k, v in layer_self.items() if k.endswith(".block")},
        "spans": len(tracer),
        "span_counts": tracer.counts(),
    }
    return rec, metrics, extra


def pin_to_one_cpu() -> None:
    """Keep this process (and the set-up interpreters it starts) on one CPU.

    On a shared 2-CPU machine the two CPUs can differ in speed by tens of
    percent; a process that the scheduler happens to place on the slower
    one makes a whole run slow.  Always using the lowest-numbered usable
    CPU removes that run-to-run difference.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def machine_info() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def src_lines() -> dict:
    files = sorted(SRC.rglob("*.py"))
    return {
        "files": len(files),
        "lines": sum(len(f.read_text(encoding="utf-8").splitlines()) for f in files),
    }


def expected_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run one workload and return its full report."""
    if trace:
        rec, metrics, extra = run_traced(workload, seed, scale)
    else:
        rec, metrics, extra = run_untraced(workload, seed, seconds, scale)
    want = expected_metrics(trace)
    got = {name: m[1] for name, m in metrics.items()}
    if got != want:
        raise RuntimeError(f"metrics {sorted(got.items())} do not match BENCHMARK.json {sorted(want.items())}")
    detail = {}
    for name, m in metrics.items():
        detail[name] = {"value": m[0], "unit": m[1]}
        if len(m) > 2:
            detail[name]["samples"] = m[2]
        if len(m) > 3:
            detail[name]["percentile"] = m[3]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": scale,
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "fail_ratio": rec.failed / rec.attempted,
        "errors": rec.errors,
        "metrics": detail,
        "machine": machine_info(),
        "src": src_lines(),
        **extra,
    }


def emit(report: dict) -> None:
    """Print a table of the metrics, then the result line: the last line of stdout."""
    m, src = report["machine"], report["src"]
    print(f"nproc {m['nproc']}, cpus used {m['cpus_used']}, {m['cpu_model']}, Python {m['python']};"
          f" src/ {src['lines']} lines in {src['files']} files")
    if "machine_slowdown" in report:
        print(f"machine slowdown {report['machine_slowdown']:.4f} against the reference;"
              " times below are scaled to the reference, the report also has them unscaled")
    for name, m in report["metrics"].items():
        extra = f"  n={m['samples']}" if "samples" in m else ""
        if "percentile" in m:
            extra += f"  p{m['percentile']:.1f}"
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']:6s}{extra}")
    print(f"fail_ratio {report['fail_ratio']:.6g} ({report['failed']}/{report['attempted']})")
    for error in report["errors"]:
        print(f"FAILED {error}")
    result = {k: report[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {k: {"value": m["value"], "unit": m["unit"]} for k, m in report["metrics"].items()}
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zfcantor" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no zfcantor source checkout at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"BENCH_{args.workload}_trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"report {path.relative_to(ROOT)}")
    emit(report)
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
