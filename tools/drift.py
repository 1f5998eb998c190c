"""Digest every output of the benchmark's workloads, to show that a change
keeps the package's results bit for bit.

    python3 tools/drift.py [--smoke] [--seeds 1 7] [--workloads NAME ...]

Run from a checkout's root.  For each workload and seed it runs one pass
of bench/workloads.run_pass (the package alone, no pinned copy beside it)
on the benchmark's own inputs, generated under .bench_data/ as bench/run.py
generates them, and prints one line:

    WORKLOAD seed SEED SHA256 perplexity PERPLEXITY

The SHA-256 covers every point each method returned with its iterations
and objective, every fw_solve trace record (the E-step's solves included),
the EM trace, the model rows and the perplexities.  Run it in two
checkouts and compare the lines: equal lines mean equal bits.  It reads
bench/ and writes nothing there.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import struct
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (first: it fixes one BLAS thread before numpy loads)
import checks  # noqa: E402
import inputs  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402


def _feed(h, item) -> None:
    """Adds item to the digest with its type, so no two items collide."""
    if item is None:
        h.update(b"N")
    elif isinstance(item, int):
        h.update(b"I" + str(item).encode() + b";")
    elif isinstance(item, str):
        h.update(b"S" + str(len(item)).encode() + b";" + item.encode())
    elif isinstance(item, float):
        h.update(b"F" + struct.pack("<d", item))
    elif isinstance(item, (list, tuple)):
        h.update(b"L" + str(len(item)).encode() + b";")
        for x in item:
            _feed(h, x)
    else:  # an array
        a = np.ascontiguousarray(item)
        h.update(b"A" + a.dtype.str.encode() + str(a.shape).encode() + a.tobytes())


def _recording(st, records: list):
    """Rebinds fw_solve in every loaded module of the package to a wrapper
    that keeps each solve's trace; returns a function that undoes it."""
    real = st.solver.fw_solve

    def fw_solve(*args, **kwargs):
        report, trace = real(*args, **kwargs)
        records.append(trace)
        return report, trace

    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "sparsetopics"]
    bound = [m for m in modules if getattr(m, "fw_solve", None) is real]
    for m in bound:
        m.fw_solve = fw_solve

    def undo():
        for m in bound:
            m.fw_solve = real

    return undo


def digest(st, workload: str, seed: int, size: str) -> tuple[str, float]:
    shape = (inputs.SMOKE if size == "smoke" else inputs.FULL)[workload]
    data_dir, manifest = run.prepare_inputs(size, shape, workload, seed)
    ctx = workloads.setup(st, run._input_files(data_dir, manifest))
    records: list = []
    undo = _recording(st, records)
    try:
        with tempfile.TemporaryDirectory() as out:
            res = workloads.run_pass(st, workload, ctx, Path(out), shape.topics)
    finally:
        undo()
    k = res.topics.num_topics
    if res.em_trace is not None:
        perplexity = math.exp(-res.em_trace[-1] / manifest["tokens"])
    else:
        points = [c.report.theta.dense(k) for c in res.fw]
        perplexity = checks.own_perplexity(ctx.corpus.documents, res.topics.rows, points)
    h = hashlib.sha256()
    for method in ("fw", "folding", "vb"):
        for c in getattr(res, method):
            r = c.report
            _feed(h, [method, c.doc, r.theta.topic_ids, r.theta.weights, r.iterations, float(r.objective)])
    for trace in records:
        _feed(h, [[rec.iteration, float(rec.objective), rec.nnz, rec.vertex, float(rec.alpha)] for rec in trace])
    _feed(h, [float(x) for x in res.em_trace] if res.em_trace is not None else None)
    _feed(h, res.topics.rows)
    _feed(h, [res.eval_perplexity, perplexity])
    return h.hexdigest(), perplexity


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    st = run._import_package()
    size = "smoke" if args.smoke else "full"
    for workload in args.workloads:
        for seed in args.seeds:
            sha, perplexity = digest(st, workload, seed, size)
            print(f"{workload} seed {seed} {sha} perplexity {perplexity!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
