"""Benchmark for spheredim: per-command wall time on a seeded corpus.

Run from the repository root:

    python3 bench/run.py --workload random-classes --seed 1 --seconds 30 --trace 0

One client runs ops in a closed loop, single-threaded, in this process: whole
passes over the workload's op list until ``--seconds`` have elapsed.  Every
op is checked (see ops.py).  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer breakdown instead.  The ``scale`` workload
runs each op once, each in its own child process.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines above it are a table of
every metric with its unit and sample count.  A detailed result file, and the
spans of a traced run, go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDENS = BENCH / "goldens"

OP_LIMIT_S = 30.0  # per op, in-process, steady workloads
SCALE_LIMIT_S = 60.0  # per op on scale; the child is killed after the grace
SCALE_GRACE_S = 120.0  # time a finished scale op may spend in its checks
SCALE_MEMORY_BYTES = 3 << 30  # address-space cap of a scale child
SETUP_REPEATS = 15
MIN_PASSES = 3
MIN_SAMPLES = 100  # so that at least 10 op samples lie beyond p90
DEADLINE_S = 150.0  # start no pass that would end after this

END_TO_END = ("setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb") + tuple(
    f"{c}_s" for c in corpus.COMMANDS
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    p.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-goldens", action="store_true",
                   help="run one pass and add its outputs to bench/goldens/")
    p.add_argument("--op", type=int, help=argparse.SUPPRESS)  # one op, for scale children
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup(args, workdir: Path):
    """Everything before the first timed op: import, corpus, goldens."""
    import ops

    wl = corpus.build(args.workload, args.seed)
    goldens = {} if args.record_goldens else ops.load_goldens(GOLDENS / f"{args.workload}.json")
    return wl, ops.Runner(wl.corpus, workdir, goldens)


def probe_setup(args) -> float:
    """Wall time of one fresh set-up in a new interpreter: process start,
    import, corpus generation and golden loading."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    start = time.perf_counter()
    child = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
    # a blocking wait: Popen.wait(timeout) polls, which quantizes the time
    killer = threading.Timer(60.0, child.kill)
    killer.start()
    code = child.wait()
    seconds = time.perf_counter() - start
    killer.cancel()
    if code != 0:
        raise RuntimeError(f"set-up probe exited {code}")
    return seconds


def run_pass(runner, ops_list, check: bool, tracer=None) -> list:
    results = []
    for i, op in enumerate(ops_list):
        if tracer is not None:
            tracer.begin_op(i)
        result = runner.run(op, OP_LIMIT_S)
        if tracer is not None:
            tracer.end_op()
        if check:
            runner.check(result)
        results.append(result)
    return results


def op_times(passes) -> dict[str, float]:
    """Each op's median time at reference speed over the passes."""
    times: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            times.setdefault(r.op.op_id, []).append(r.ref_seconds)
    return {k: statistics.median(v) for k, v in times.items()}


def should_stop(start: float, passes: list, seconds: float) -> bool:
    elapsed = time.perf_counter() - start
    if elapsed + elapsed / len(passes) > DEADLINE_S:
        return True
    samples = sum(len(p) for p in passes)
    return elapsed >= seconds and samples >= MIN_SAMPLES and len(passes) >= MIN_PASSES


# --- end-to-end metrics -----------------------------------------------------


def end_to_end(passes, setups, rss_mb) -> dict:
    """Metric name -> (value, unit, sample count).

    Each op's time is the median over the run's passes of its time at
    reference speed (see ops.reference_kernel and the README): on a shared
    VM the raw wall time of a whole run moves by 15-30% with the load of
    other tenants, and the reference kernel moves with it.
    """
    samples: dict[str, list] = {}
    for p in passes:
        for r in p:
            samples.setdefault(r.op.op_id, []).append(r)
    times = op_times(passes)
    command = {k: rs[0].op.command for k, rs in samples.items()}
    n = {k: len(rs) for k, rs in samples.items()}
    correct = sum(all(r.ok for r in rs) for rs in samples.values())
    latencies = sorted(times.values())
    total = sum(n.values())
    out = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "ops_per_s": (correct / sum(latencies), "1/s", total),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms", total),
        "op_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3
                      if len(latencies) > 1 else latencies[0] * 1e3, "ms", total),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    for c in corpus.COMMANDS:
        keys = [k for k in times if command[k] == c]
        if keys:
            out[f"{c}_s"] = (sum(times[k] for k in keys), "s", sum(n[k] for k in keys))
    failed = sum(not r.ok for rs in samples.values() for r in rs)
    out["fail_ratio"] = (failed / total, "1", total)
    return out


def print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:40} {value:14.6g} {unit:6} n={n}")


def summary(results, metrics: dict, names) -> dict:
    incorrect = [r for r in results if r.status not in ("ok", "timeout")]
    return {
        "correct": not incorrect,
        "attempted": len(results),
        "failed": sum(not r.ok for r in results),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    }


def failures(passes) -> list[dict]:
    return [
        {"pass": i, "op": r.op.op_id, "status": r.status, "detail": r.detail}
        for i, p in enumerate(passes) for r in p if not r.ok
    ]


def op_table(passes) -> list[dict]:
    rows: dict[str, dict] = {}
    for p in passes:
        for r in p:
            row = rows.setdefault(r.op.op_id, {"op": r.op.op_id, "command": r.op.command,
                                               "seconds": [], "exit": r.exit,
                                               "sha256": r.digest, "status": r.status})
            row["seconds"].append(round(r.seconds, 6))
            row.setdefault("reference_kernel_s", []).append(round(r.ref, 7))
            if not r.ok:
                row["status"] = r.status
    return list(rows.values())


def write_result(args, payload: dict) -> Path:
    path = OUT / f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# --- modes ------------------------------------------------------------------


def run_steady(args) -> dict:
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl, runner = setup(args, Path(tmp))
        passes: list = []
        setups: list = []
        start = time.perf_counter()
        while not passes or not should_stop(start, passes, args.seconds):
            # set-ups are spread over the run, so their median is not taken
            # from a single moment of a machine whose speed drifts
            setups += [probe_setup(args), probe_setup(args)]
            passes.append(run_pass(runner, wl.ops, check=True))
    while len(setups) < SETUP_REPEATS:
        setups.append(probe_setup(args))
    metrics = end_to_end(passes, setups, peak_rss_mb())
    print_table(f"{args.workload} seed {args.seed}: {len(passes)} passes of "
                f"{len(wl.ops)} ops", metrics)
    results = [r for p in passes for r in p]
    out = summary(results, metrics, END_TO_END)
    path = write_result(args, {**out, "failures": failures(passes), "ops": op_table(passes)})
    print(f"result file: {path.relative_to(ROOT)}")
    return out


def run_traced(args) -> dict:
    import tracing

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl, runner = setup(args, Path(tmp))
        run_pass(runner, wl.ops, check=True)  # warm-up, so pairs compare like with like
        plain, traced, tracers = [], [], []
        start = time.perf_counter()
        while not traced or not should_stop(start, traced, args.seconds):
            plain.append(run_pass(runner, wl.ops, check=True))
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(run_pass(runner, wl.ops, check=False, tracer=tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
    digests = {r.op.op_id: r.digest for p in plain for r in p if r.ok}
    for p in traced:
        for r in p:
            if r.ok and digests.get(r.op.op_id) != r.digest:
                r.status, r.detail = "mismatch", "traced stdout differs from the untraced run"
    per_pass = [tracing.layer_metrics(t.spans, t.counts) for t in tracers]
    metrics = {
        k: (statistics.median(m[k] for m in per_pass), tracing.unit_of(k), len(per_pass))
        for k in per_pass[0]
    }
    overhead = sum(op_times(traced).values()) / sum(op_times(plain).values())
    metrics["trace.overhead_ratio"] = (overhead, "1", len(traced))
    print_table(f"{args.workload} seed {args.seed}: per-layer, median of {len(traced)} "
                f"traced passes", metrics)
    results = [r for p in plain + traced for r in p]
    out = summary(results, metrics, metrics)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    with gzip.open(spans_path, "wt") as f:
        for i, t in enumerate(tracers):
            t.write(f, i)
    path = write_result(args, {**out, "failures": failures(plain + traced),
                               "spans": str(spans_path.relative_to(ROOT))})
    print(f"result file: {path.relative_to(ROOT)}, spans: {spans_path.relative_to(ROOT)}")
    return out


def run_one_op(args) -> None:
    """Run op ``args.op`` once and print its result as JSON (scale children)."""
    resource.setrlimit(resource.RLIMIT_AS, (SCALE_MEMORY_BYTES, SCALE_MEMORY_BYTES))
    import tracing

    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl, runner = setup(args, Path(tmp))
        op = wl.ops[args.op]
        tracer = tracing.Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            result = runner.run(op, SCALE_LIMIT_S)
        finally:
            if tracer is not None:
                tracer.uninstall()
        runner.check(result)
    layer = tracing.layer_metrics(tracer.spans, tracer.counts) if tracer is not None else None
    print(json.dumps({"seconds": result.seconds, "exit": result.exit, "status": result.status,
                      "detail": result.detail, "ref": result.ref, "layer": layer}))


def run_scale(args) -> dict:
    import ops

    setups = [probe_setup(args) for _ in range(SETUP_REPEATS)]
    wl = corpus.build(args.workload, args.seed)
    results, layers = [], []
    for i, op in enumerate(wl.ops):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--trace", str(args.trace), "--op", str(i)]
        start = time.perf_counter()
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            stdout, stderr = child.communicate(timeout=SCALE_LIMIT_S + SCALE_GRACE_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            results.append(ops.Result(op, SCALE_LIMIT_S, None, "", "timeout",
                                      "killed: no result within the limit and grace"))
            continue
        lines = stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            tail = stderr.strip().splitlines()[-1:] or [""]
            results.append(ops.Result(op, time.perf_counter() - start, None, "", "exception",
                                      f"child exited {child.returncode}: {tail[0]}"))
            continue
        got = json.loads(lines[-1])
        r = ops.Result(op, got["seconds"], got["exit"], "", got["status"], got["detail"],
                       got["ref"])
        results.append(r)
        if got["layer"]:
            layers.append(got["layer"])
        print(f"  {op.op_id:44} {r.status:9} {r.seconds:8.2f} s  {r.detail}", flush=True)
    if args.trace:
        import tracing

        metrics = {k: (sum(m[k] for m in layers), tracing.unit_of(k), len(layers))
                   for k in (layers[0] if layers else {})}
        names = list(metrics)
    else:
        metrics = end_to_end([results], setups, peak_rss_mb(resource.RUSAGE_CHILDREN))
        names = [k for k in END_TO_END if k in metrics]
    print_table(f"scale seed {args.seed}: {len(results)} ops, one child process each", metrics)
    out = summary(results, metrics, names)
    rows = [{"op": r.op.op_id, "status": r.status, "seconds": r.seconds, "exit": r.exit,
             "detail": r.detail} for r in results]
    path = write_result(args, {**out, "ops": rows})
    print(f"result file: {path.relative_to(ROOT)}")
    return out


def record_goldens(args) -> int:
    """Run one checked pass and add every op's exit code and stdout digest."""
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        wl, runner = setup(args, Path(tmp))
        results = run_pass(runner, wl.ops, check=True)
    bad = [r for r in results if not r.ok]
    for r in bad:
        print(f"FAILED {r.op.op_id}: {r.status} {r.detail}", file=sys.stderr)
    if bad:
        return 1
    path = GOLDENS / f"{args.workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}, "ops": {}}
    data["seeds"][str(args.seed)] = [r.op.golden_key(wl.corpus) for r in results]
    for r in results:
        data["ops"][r.op.golden_key(wl.corpus)] = {"exit": r.exit, "sha256": r.digest}
    GOLDENS.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(results)} ops of {args.workload} seed {args.seed} in {path}")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spheredim" / "__init__.py").is_file():
        print(f"error: no spheredim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            setup(args, Path(tmp))
        return 0
    if args.op is not None:
        run_one_op(args)
        return 0
    if args.record_goldens:
        return record_goldens(args)
    if args.trace and args.workload != "scale":
        out = run_traced(args)
    elif args.workload == "scale":
        out = run_scale(args)
    else:
        out = run_steady(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
