"""KGLiDS benchmark: one closed-loop analyst per workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload discovery --seed 1 --seconds 8 --trace 0

A run sets up (Spark session, inputs generated from the seed, one cold
warm-up pass), then builds the workload's artefact from the generated
pandas inputs again and again until ``--seconds`` of build time have
elapsed, and sends its requests, one after the other, to the last
artefact or in blocks to each of them (see ``measure``). Answers are
checked outside the timed regions. The last line of stdout is one JSON
object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``; traced and untraced builds then alternate so the
untraced build time and the trace gap come from the same run). A report with the
environment, the input fingerprint, every span and every error is
written under ``.perfbench_out/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import traceback

import harness


def parse_args(argv, spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure(spark, args, wl_cls, tracer, report) -> dict:
    """Setup, the measured passes and the checks; returns the raw figures."""
    from workloads import GRAPH, LOOKUP, PassResult

    jobs = harness.JobCounter(spark, f"w{os.getpid()}")
    wl = wl_cls(spark, args.seed, tracer)

    # -- setup: inputs generated three times (median), one cold warm-up
    input_s = []
    for i in range(3):
        tracer.begin_pass(f"setup-{i}")
        t0 = time.perf_counter()
        wl.make_inputs()
        input_s.append(time.perf_counter() - t0)
    report["fingerprint"] = wl.describe_inputs()
    tracer.begin_pass("warmup")
    with jobs.group("setup") as gid:
        t0 = time.perf_counter()
        wl.warm_up()
        warmup_s = time.perf_counter() - t0
    for what, n in jobs.counts(gid).items():
        tracer.count(f"spark.setup.{what}", n)
    report["setup"]["persisted_by_warmup"] = harness.persisted_rdds(spark)
    harness.release_cache(spark)

    # -- builds, repeated until --seconds of build time have passed and the
    # workload's MIN_BUILDS untraced ones are done, or it has MAX_BUILDS;
    # each starts from the pandas inputs with nothing persisted. A traced run
    # alternates untraced builds (the gap's baseline) with traced ones and
    # ends on a traced one. What an untraced build leaves persisted is
    # counted before it is released; traced builds persist their boundaries
    # on purpose. The closed-loop requests go to the last artefact or, for a
    # workload with several builds a run (``REQUESTS_AFTER_EACH_BUILD``), a
    # block of them to every measured artefact, so that the samples span the
    # run and not one stretch of it. Traced runs time requests on traced
    # artefacts only.
    builds, stage_sums, persisted = [], [], []
    attempted = failed = 0
    build_time = 0.0
    result = PassResult()
    while True:
        traced = bool(args.trace) and len(builds) > len(stage_sums)
        tracer.enabled = traced
        tracer.begin_pass(f"build-{len(builds) + len(stage_sums)}")
        attempted += 1
        if not harness.cache_is_empty(spark):
            wl.errors.append("state persisted by an earlier build")
            failed += 1
            harness.release_cache(spark)
        harness.settle(spark)
        with jobs.group("build") as gid:
            with tracer.span("build"):
                t0 = time.perf_counter()
                art = wl.build(traced)
                build_s = time.perf_counter() - t0
        build_time += build_s
        if traced:
            stage_sums.append(tracer.child_sum("build")[-1])
            for what, n in jobs.counts(gid).items():
                tracer.count(f"spark.build.{what}", n)
        else:
            builds.append(build_s)
            persisted.append(harness.persisted_rdds(spark))
        enough = (build_time >= args.seconds and len(builds) >= wl.MIN_BUILDS
                  or len(builds) == wl.MAX_BUILDS)
        last = enough and (not args.trace or traced)
        if (last or wl.REQUESTS_AFTER_EACH_BUILD) and traced == bool(args.trace):
            harness.settle(spark)
            with jobs.group("requests") as gid:
                wl.requests(art, result)
            for what, n in jobs.counts(gid).items():
                tracer.count(f"spark.requests.{what}", n)
        if last:
            break
        harness.release_cache(spark)
        del art

    if args.trace:
        with jobs.group("traced_extras"):
            wl.traced_extras(art, result)
    sizes = wl.sizes(art)
    report["fingerprint"].update(sizes)
    for name, value in sizes.items():
        tracer.count(name, value)
    harness.release_cache(spark)
    attempted += len(result.outcomes)
    failed += sum(not o.ok for o in result.outcomes)
    latencies = {LOOKUP: [], GRAPH: []}
    wall = {LOOKUP: [], GRAPH: []}
    for o in result.outcomes:
        if o.seconds > 0:
            latencies[o.kind].append(1000.0 * o.seconds)
            wall[o.kind].append(1000.0 * o.wall)
    readings = [ms for _, ms in wl.gauge.readings]
    quality = sum(result.hits) / max(1, len(result.hits))

    tracer.enabled = bool(args.trace)
    session_s = report["setup"]["session_s"]
    setup_s = report["setup"]["import_s"] + session_s + harness.median(input_s) + warmup_s
    report["setup"].update(inputs_s=input_s, warmup_s=warmup_s)
    report["errors"] = wl.errors
    report["persisted_by_build"] = persisted
    report["build_times_s"] = builds
    report["fingerprint"]["answer_quality"] = quality
    report["wall_ms"] = {
        "lookup_p50": harness.percentile(wall[LOOKUP], 50),
        "lookup_p90": harness.percentile(wall[LOOKUP], 90),
        "graph_query_p50": harness.percentile(wall[GRAPH], 50),
    }
    report["gauge_ms"] = {
        "reference": wl.gauge.REFERENCE_MS,
        "readings": len(readings),
        "p10": harness.percentile(readings, 10),
        "p50": harness.percentile(readings, 50),
        "p90": harness.percentile(readings, 90),
        "series": wl.gauge.readings,
        "calls": wl.gauge.calls,
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "setup_s": setup_s,
            "build_s": harness.median(builds),
            "lookup_p50_ms": harness.percentile(latencies[LOOKUP], 50),
            "lookup_p90_ms": harness.percentile(latencies[LOOKUP], 90),
            "graph_query_p50_ms": harness.percentile(latencies[GRAPH], 50),
            "answer_quality": quality,
            "success_rate": 1.0 - failed / attempted,
            "driver_peak_rss_mb": harness.peak_rss_mb(),
        },
        "per_layer_extra": {
            "setup.session_s": session_s,
            "setup.warmup_s": warmup_s,
            "trace.untraced_gap_s": harness.median(builds) - harness.median(stage_sums),
            "trace.stage_sum_s": harness.median(stage_sums),
            "spark.persisted_by_build": harness.median(persisted),
            "requests.lookup_samples": len(latencies[LOOKUP]),
            "requests.graph_query_samples": len(latencies[GRAPH]),
        },
        "builds": len(builds) + len(stage_sums),
    }


def main(argv=None) -> int:
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not (os.path.isfile(os.path.join(root, "src", "repro", "__init__.py"))
            and os.path.isfile(spec_path)):
        print("perfbench: run from the root of a KGLiDS checkout "
              "(src/repro/ or BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)  # the metric names and units
    args = parse_args(argv, spec)
    out_dir = os.path.join(root, ".perfbench_out")
    run_dir = os.path.join(out_dir, f"run-{os.getpid()}")
    harness.configure_environment(root, run_dir)
    sys.path.insert(0, os.path.join(root, "src"))

    report = {"args": vars(args), "setup": {}}
    tracer = harness.Tracer(enabled=bool(args.trace))
    spark = None
    try:
        t0 = time.perf_counter()
        import workloads  # imports every layer of the program

        report["setup"]["import_s"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        spark = harness.start_session()
        report["setup"]["session_s"] = time.perf_counter() - t0
        report["environment"] = harness.environment(spark)
        figures = measure(spark, args, workloads.WORKLOADS[args.workload], tracer, report)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        if spark is not None:
            harness.stop_session(spark)
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        defs = spec["per_layer"]
        values = {m["name"]: tracer.value(m["name"]) for m in defs}
        values.update(figures["per_layer_extra"])
    else:
        defs = spec["end_to_end"]
        values = figures["end_to_end"]
    out = {
        "correct": figures["failed"] == 0,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in defs},
    }
    report.update(figures, spans=tracer.dump(), result=out)
    os.makedirs(os.path.join(out_dir, "results"), exist_ok=True)
    path = os.path.join(
        out_dir, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json",
    )
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    for line in report["errors"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
