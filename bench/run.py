"""Benchmark of sparse Frank-Wolfe topic inference.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from src/; the
inputs are generated from the seed into .bench_data/ on first use and
their digests are checked before every run.

--trace 0 repeats whole passes of the workload for --seconds with the
package imported unmodified, each timed call paired with its pinned
copy's, and reports the end-to-end metrics; --trace 1
alternates two untraced and two traced passes and reports the per-layer
split, its sample counts and the tracing overhead.  Both run the output
checks.  Human-readable lines come first; the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  --smoke switches to tiny inputs that run every workload and
check in seconds.

Every workload runs in this one process with one caller; set-up samples
(the last one followed by one pass, for peak memory) and input
generation run in child processes one after another, so that import
time and peak memory belong to a fresh process of the package alone.

The gated times are relative: every timed call of the package is paired
with the same call of a pinned copy of it (bench/pinned_sparsetopics,
the package as it stood when the benchmark was written) on the same
document, the two run back to back (workloads.Shadow), and each _rel
metric divides the package's time by the copy's.  On a shared host the
speed of a core drifts by up to 2x over minutes and differs from run to
run; the same code run moments apart drifts alike, so the ratio cancels
it.  A faster package reads below 1.  String hashing is fixed
(PYTHONHASHSEED=0), so that dict and set layouts, and with them the
interpreter's speed, are the same in every run.  setup_s is CPU seconds;
wall-clock figures are printed beside the gated ones.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy is first imported here or in a child.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / ".bench_data"
REFERENCE = HERE / "reference.json"

# Set-up samples: this many fresh child processes plus the run itself.
# The last child also runs one pass, for peak_rss_mb.
SETUP_PROBES = 3
# A run measures whole passes, at least this many, for --seconds.
MIN_PASSES = 1
# Seed directories kept per workload before the oldest is removed.
KEEP_SEEDS = 12
CHILD_TIMEOUT_S = 170

MACHINE_NOTE = (
    "Only process-level timing is available: no system-wide tracing and no "
    "page-cache dropping, so file loads may read from a warm cache."
)

# Gated end-to-end metrics.  A _rel metric is a time of the package
# divided by the same time of its pinned copy, run moments apart.
END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_rel": "x",
    "doc_p50_rel": "x",
    "perplexity": "1",
    "peak_rss_mb": "MB",
}


def _package_present() -> bool:
    return (SRC / "sparsetopics" / "__init__.py").is_file()


def _import_package():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sparsetopics

    return sparsetopics


def _import_pinned():
    import pinned_sparsetopics

    return pinned_sparsetopics


def _child(args: list[str]) -> str:
    """Run this script in a child process and return its last stdout line."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"child {args[0]} exited with {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def _input_files(data_dir: Path, manifest: dict) -> dict:
    return {kind: str(data_dir / name) for kind, name in manifest["files"].items()}


def _prune(parent: Path, keep: Path) -> None:
    dirs = sorted((d for d in parent.iterdir() if d.is_dir() and d != keep), key=lambda d: d.stat().st_mtime)
    for d in dirs[: max(0, len(dirs) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(d)


def prepare_inputs(size: str, shape, workload: str, seed: int) -> tuple[Path, dict]:
    data_dir = DATA / size / workload / f"seed-{seed}"
    manifest = inputs.verify(data_dir, shape)
    if manifest is None:
        if data_dir.exists():
            shutil.rmtree(data_dir)
        flags = ["--generate", "--workload", workload, "--seed", str(seed)]
        _child(flags + (["--smoke"] if size == "smoke" else []))
        manifest = inputs.verify(data_dir, shape)
        if manifest is None:
            raise RuntimeError(f"generated inputs in {data_dir} fail their digest check")
        _prune(data_dir.parent, data_dir)
    os.utime(data_dir)
    return data_dir, manifest


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "machine_note": MACHINE_NOTE,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        env["git_sha"] = sha.stdout.strip() if sha.returncode == 0 else "not a git checkout"
    except (OSError, subprocess.SubprocessError):
        env["git_sha"] = "git unavailable"
    h = hashlib.sha256()
    for path in sorted((SRC / "sparsetopics").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = h.hexdigest()
    import numpy
    import scipy

    env["numpy"] = numpy.__version__
    env["scipy"] = scipy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


# ---------------------------------------------------------------- checks


class Tally:
    """Attempted and failed units: one per public call on a document and
    one per run-level check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str], where: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{where}: {'; '.join(problems)}")

    def crashed(self, planned: int, where: str) -> None:
        self.attempted += planned
        self.failed += planned
        self.problems.append(f"{where}: raised\n{traceback.format_exc()}")


def _check_pass(tally: Tally, workload: str, res, k: int, caps, label: str) -> None:
    from checks import em_monotone, theta_problems

    vertex = workload != "ctm-capped"
    max_nnz = workloads.SPARSE_MAX_NNZ if workload == "sparse-k1000" else None
    for c in res.fw:
        tally.record(theta_problems(c.report, k, vertex, max_nnz, caps), f"{label} fw doc {c.doc}")
    for method, calls in (("folding", res.folding), ("vb", res.vb)):
        for c in calls:
            tally.record(theta_problems(c.report, k, False, None, None), f"{label} {method} doc {c.doc}")
    if res.em_trace is not None:
        tally.record([] if em_monotone(res.em_trace) else ["EM likelihood decreased"], f"{label} EM trace")


def _same_outputs(a, b) -> list[str]:
    from checks import same_points

    problems = []
    for method in ("fw", "folding", "vb"):
        if not same_points([c.report for c in getattr(a, method)], [c.report for c in getattr(b, method)]):
            problems.append(f"{method} points differ")
    if a.em_trace != b.em_trace:
        problems.append("EM trace differs")
    return problems


def _quality(st, workload: str, ctx, res, manifest: dict, tally: Tally) -> dict:
    """Perplexity, the duality gap and the reference values of one pass,
    computed after the timed phase."""
    import numpy as np
    from checks import PERPLEXITY_SELF_TOL, fw_gap_rel, own_perplexity

    docs = ctx.corpus.documents
    k = res.topics.num_topics
    points = [c.report.theta.dense(k) for c in res.fw]
    if workload == "ctm-capped":
        make = lambda d: st.ctm_full_objective(d, res.topics, ctx.prior)  # noqa: E731
    else:
        make = lambda d: st.ml_objective(d, res.topics)  # noqa: E731
    gap, gap_mean = fw_gap_rel(docs, make, points, _caps(st, workload, ctx), st.capped_simplex_argmax)
    measured = {}
    if res.em_trace is not None:
        measured["em_final_ll"] = res.em_trace[-1]
        measured["em_iterations"] = len(res.em_trace)
        perplexity = float(np.exp(-res.em_trace[-1] / manifest["tokens"]))
    else:
        perplexity = own_perplexity(docs, np.asarray(res.topics.rows), points)
        if res.eval_perplexity is not None:
            off = abs(res.eval_perplexity - perplexity) > PERPLEXITY_SELF_TOL * perplexity
            tally.record([f"package perplexity {res.eval_perplexity!r} vs own {perplexity!r}"] if off else [],
                         "perplexity recomputation")
    measured["perplexity"] = perplexity
    return {"perplexity": perplexity, "fw_gap_rel": gap, "fw_gap_rel_mean": gap_mean, "reference": measured}


def _check_reference(tally: Tally, size: str, workload: str, seed: int, data_dir: Path, measured: dict) -> str:
    from checks import Reference

    ref = Reference(REFERENCE, data_dir / "reference.json", size, workload, seed)
    tally.record(ref.check(measured), f"reference ({ref.source})")
    return ref.source


def _caps(st, workload, ctx):
    return st.ctm_caps(ctx.prior) if workload == "ctm-capped" else None


# ---------------------------------------------------------- measurement


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def _per_doc(passes, method: str, pinned: bool = False) -> list[float]:
    """Each document's median seconds over the passes that solved it, or
    those of the pinned copy's paired calls."""
    per_doc = {}
    for res in passes:
        for c in getattr(res, method):
            per_doc.setdefault(c.doc, []).append(c.pinned_s if pinned else c.seconds)
    return [statistics.median(v) for v in per_doc.values()]


def _latency(times, scale: float) -> dict:
    """Median and the highest percentile with at least ten documents
    beyond it, over the per-document costs."""
    n = len(times)
    tail_q = 100.0 * (1.0 - 10.0 / n) if n >= 20 else 50.0
    return {
        "p50": scale * _percentile(times, 50),
        "tail": scale * _percentile(times, tail_q),
        "tail_percentile": tail_q,
        "tail_beyond": int(round(n * (1 - tail_q / 100))),
        "docs": n,
    }


def _rate(passes, method: str) -> float:
    """Documents per second, from each document's median time."""
    costs = _per_doc(passes, method)
    return len(costs) / sum(costs)


def _probe_setup(args, data_dir: Path, one_pass: bool = False) -> dict:
    flags = ["--probe-setup", "--workload", args.workload, "--data", str(data_dir)]
    return json.loads(_child(flags + (["--probe-pass"] if one_pass else []) + (["--smoke"] if args.smoke else [])))


def run_untraced(args, size, shape, data_dir, manifest, tally: Tally) -> tuple[dict, dict]:
    files = _input_files(data_dir, manifest)
    # Set-up samples in fresh processes, before and after the passes, so
    # that a slow spell of the host at one end cannot set them all.
    probes = [_probe_setup(args, data_dir)]
    c0, t0 = time.process_time(), time.perf_counter()
    st = _import_package()
    ctx = workloads.setup(st, files)
    probes.append({"setup_cpu_s": time.process_time() - c0, "setup_s": time.perf_counter() - t0})
    pinned = _import_pinned()
    shadow = workloads.Shadow(pinned, args.workload, workloads.setup(pinned, files), shape.topics)

    out = DATA / "out" / size / args.workload
    passes = []
    began = time.perf_counter()
    while True:
        try:
            passes.append(workloads.run_pass(st, args.workload, ctx, out, shape.topics, shadow))
        except Exception:
            tally.crashed(shape.docs, f"pass {len(passes)}")
            break
        elapsed = time.perf_counter() - began
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    measured_s = time.perf_counter() - began
    probes += [_probe_setup(args, data_dir, one_pass=i == SETUP_PROBES - 2) for i in range(SETUP_PROBES - 1)]
    setup_cpu = [p["setup_cpu_s"] for p in probes]
    setup_wall = [p["setup_s"] for p in probes]
    if not passes:
        return {}, {"setup_samples": setup_cpu}

    caps = _caps(st, args.workload, ctx)
    for i, res in enumerate(passes):
        _check_pass(tally, args.workload, res, res.topics.num_topics, caps, f"pass {i}")
        if i:
            tally.record(_same_outputs(passes[0], res), f"pass {i} against pass 0")
    quality = _quality(st, args.workload, ctx, passes[0], manifest, tally)
    ref_source = _check_reference(tally, size, args.workload, args.seed, data_dir, quality["reference"])

    fw_times, fw_pinned = _per_doc(passes, "fw"), _per_doc(passes, "fw", pinned=True)
    if passes[0].em_trace is not None:
        # Training: the train call, paired with the copy's in every pass.
        solve_rel = statistics.median(r.train_s / r.pinned_train_s for r in passes)
        steps = len(ctx.corpus.documents) * len(passes[0].em_trace)
        docs_per_s = steps / statistics.median(r.train_s for r in passes)
    else:
        solve_rel = sum(fw_times) / sum(fw_pinned)
        docs_per_s = _rate(passes, "fw")
    command_s = statistics.median(r.command_s for r in passes)
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "solve_rel": solve_rel,
        # The median document's time relative to the copy's time for it.
        "doc_p50_rel": _percentile([a / b for a, b in zip(fw_times, fw_pinned)], 50),
        "perplexity": quality["perplexity"],
        "peak_rss_mb": probes[-1]["peak_rss_mb"],
    }
    details = {
        "passes": len(passes),
        "measured_s": measured_s,
        "setup_samples": setup_cpu,
        "setup_wall_samples": setup_wall,
        "command_s": [r.command_s for r in passes],
        # Clock figures, printed but not gated: on a shared host they carry
        # the drift of the core's speed.
        "wall_s": statistics.median(setup_wall) + command_s,
        "docs_per_s": docs_per_s,
        "wall_latency": _latency(fw_times, 1e3),
        "pinned_docs_per_s": len(fw_pinned) / sum(fw_pinned),
        "fw_gap_rel": quality["fw_gap_rel"],
        "fw_gap_rel_mean": quality["fw_gap_rel_mean"],
        "fw_calls": sum(len(r.fw) for r in passes),
        "reference_source": ref_source,
        "reference_values": quality["reference"],
    }
    if passes[0].folding:
        details["folding_docs_per_s"] = _rate(passes, "folding")
        details["vb_docs_per_s"] = _rate(passes, "vb")
    if passes[0].em_trace is not None:
        details["em_step_s"] = statistics.median(r.train_s for r in passes) / len(passes[0].em_trace)
        details["em_steps"] = len(passes[0].em_trace)
    return metrics, details


def run_traced(args, size, shape, data_dir, manifest, tally: Tally) -> tuple[dict, dict]:
    files = _input_files(data_dir, manifest)
    st = _import_package()
    import tracing

    out = DATA / "out" / size / args.workload
    results = DATA / "results"
    results.mkdir(parents=True, exist_ok=True)
    plain, untraced, layers, traced, span_counts, span_files = [], [], [], [], [], []
    # Untraced and traced passes alternate, so both see the same machine.
    # Both are timed on the process CPU clock.
    for i in range(2):
        c0 = time.process_time()
        ctx = workloads.setup(st, files)
        plain.append(workloads.run_pass(st, args.workload, ctx, out, shape.topics))
        untraced.append(time.process_time() - c0)
        rec = tracing.Recorder()
        api = tracing.traced_api(st, rec)
        try:
            with tracing.installed(rec):
                c0 = time.process_time()
                traced_ctx = workloads.setup(api, files)
                res = workloads.run_pass(api, args.workload, traced_ctx, out, shape.topics)
                traced.append(time.process_time() - c0)
        except Exception:
            tally.crashed(shape.docs, f"traced pass {i}")
            return {}, {}
        caps = _caps(st, args.workload, ctx)
        _check_pass(tally, args.workload, res, res.topics.num_topics, caps, f"traced pass {i}")
        tally.record(_same_outputs(plain[0], plain[i]), f"untraced pass {i} against untraced pass 0")
        tally.record(_same_outputs(plain[0], res), f"traced pass {i} against the untraced pass")
        layers.append(tracing.layer_metrics(rec, manifest["triples"]))
        span_counts.append(len(rec.start))
        path = results / f"spans-{size}-{args.workload}-pass{i}.npz"
        rec.save(path)
        span_files.append(str(path.relative_to(ROOT)))
        del rec, api

    for name in tracing.EXACT_COUNTS:
        a, b = layers[0][name][0], layers[1][name][0]
        tally.record([] if a == b else [f"{name}: {a} then {b}"], f"exact count {name}")
    quality = _quality(st, args.workload, ctx, plain[0], manifest, tally)
    ref_source = _check_reference(tally, size, args.workload, args.seed, data_dir, quality["reference"])

    # Every per-layer figure comes from the faster traced pass.
    best = layers[traced.index(min(traced))]
    metrics = {name: best[name][0] for name in tracing.LAYERS if name in best}
    samples = {name: best[name][1] for name in metrics}
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    samples["trace.overhead_s"] = len(traced)

    details = {
        "samples": samples,
        "moves": {name: moves for name, (_, _, moves) in tracing.LAYERS.items()},
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead_share": metrics["trace.overhead_s"] / min(untraced),
        "spans": span_counts,
        "span_files": span_files,
        "reference_source": ref_source,
        "reference_values": quality["reference"],
    }
    return metrics, details


# ---------------------------------------------------------------- main


def _print_report(args, size, manifest, metrics, details, tally, env, units) -> None:
    print(f"workload {args.workload}  seed {args.seed}  size {size}  trace {args.trace}")
    print(f"  inputs {manifest['files']}  sha256 {json.dumps(manifest['sha256'])}")
    print(f"  shape {manifest['shape']}  mean distinct terms {manifest['mean_distinct_terms']:.1f}")
    for name, value in metrics.items():
        extra = ""
        if args.trace:
            extra = f"  (samples {details['samples'][name]}; moves {details['moves'][name]})"
        elif name == "setup_s":
            extra = f"  (CPU time, median of {len(details['setup_samples'])} set-ups)"
        print(f"  {name:<40} {value:>16.6g} {units[name]}{extra}")
    if "wall_latency" in details:
        wall = details["wall_latency"]
        print("  printed, not gated (wall clock, medians over the package's passes):")
        rows = [
            ("wall_s", details["wall_s"], "s", "(set-up plus command)"),
            ("docs_per_s", details["docs_per_s"], "1/s", ""),
            ("pinned_docs_per_s", details["pinned_docs_per_s"], "1/s", "(the pinned copy's FW calls)"),
            ("doc_p50_ms", wall["p50"], "ms", ""),
            ("doc_tail_ms", wall["tail"], "ms", f"(p{wall['tail_percentile']:.2f} of {wall['docs']} "
             f"per-document times, {wall['tail_beyond']} beyond)"),
        ]
        for name in ("folding_docs_per_s", "vb_docs_per_s"):
            if name in details:
                rows.append((name, details[name], "1/s", ""))
        rows.append(("fw_gap_rel", details["fw_gap_rel"], "1",
                     f"(median over documents; mean {details['fw_gap_rel_mean']:.6g})"))
        if "em_step_s" in details:
            rows.append(("em_step_s", details["em_step_s"], "s", f"(train / {details['em_steps']} EM steps)"))
        for name, value, unit, note in rows:
            print(f"  {name:<40} {value:>16.6g} {unit}  {note}")
    if args.trace:
        print(f"  tracing overhead {100 * details['overhead_share']:.1f}% of the faster untraced pass's CPU time "
              f"({min(details['untraced_s']):.3f} s); spans {details['spans']}")
    else:
        print(f"  passes {details['passes']} in {details['measured_s']:.2f} s")
    frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'failed_frac':<40} {frac:>16.6g} 1  ({tally.failed} of {tally.attempted})")
    print(f"  reference {details.get('reference_source')}: {details.get('reference_values')}")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    for problem in tally.problems:
        print(f"  FAILED {problem}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs for the benchmark's own test")
    parser.add_argument("--generate", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-pass", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--data", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    size = "smoke" if args.smoke else "full"
    shape = (inputs.SMOKE if args.smoke else inputs.FULL)[args.workload]

    if not _package_present():
        print(f"error: the package sources are missing ({SRC / 'sparsetopics'})", file=sys.stderr)
        return 2
    if args.generate:
        inputs.generate(args.workload, args.seed, shape, DATA / size / args.workload / f"seed-{args.seed}")
        print("{}")
        return 0
    if args.probe_setup:
        data_dir = Path(args.data)
        files = _input_files(data_dir, json.loads((data_dir / inputs.MANIFEST).read_text()))
        c0, t0 = time.process_time(), time.perf_counter()
        st = _import_package()
        ctx = workloads.setup(st, files)
        sample = {"setup_cpu_s": time.process_time() - c0, "setup_s": time.perf_counter() - t0}
        if args.probe_pass:
            workloads.run_pass(st, args.workload, ctx, DATA / "out" / size / args.workload, shape.topics)
        sample["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(sample))
        return 0

    data_dir, manifest = prepare_inputs(size, shape, args.workload, args.seed)
    tally = Tally()
    run = run_traced if args.trace else run_untraced
    metrics, details = run(args, size, shape, data_dir, manifest, tally)
    if not metrics:
        for problem in tally.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return 1
    units = tracing_units() if args.trace else END_TO_END_UNITS
    env = environment()
    _print_report(args, size, manifest, metrics, details, tally, env, units)

    results = DATA / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "size": size, "trace": args.trace,
        "metrics": metrics, "details": details, "environment": env,
        "inputs_sha256": manifest["sha256"], "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems,
    }
    path = results / f"result-{size}-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def tracing_units() -> dict:
    import tracing

    return {name: unit for name, (unit, _, _) in tracing.LAYERS.items()}


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Start again with fixed string hashing (see the module docstring).
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    sys.exit(main())
