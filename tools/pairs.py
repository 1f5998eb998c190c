"""Paired benchmark runs of this checkout against a base commit.

    python3 tools/pairs.py --base REV --workloads NAME [NAME ...] [--seeds 1 7]
        [--pairs 10] [--seconds 20] [--smoke] [--tag TAG]

Run from a checkout's root.  REV is exported with git archive into a
temporary directory, and so is this checkout's tracked state: the commit
git stash create makes of its uncommitted changes to tracked files, or
HEAD when there are none (untracked files are not exported).  Both sides
thus start from fresh trees, with no data or sidecars left by earlier
runs.  Each pair runs bench/run.py once in each tree, on one workload
and seed, the side that goes first alternating from pair to pair.  Both
sides run under PYTHONDONTWRITEBYTECODE=1 with PYTHONPYCACHEPREFIX an
empty directory, so both compile every module alike and neither reads
bytecode the other lacks.  Each side generates and checks its own
inputs, as bench/run.py does.

The runs go to BENCH_<tag>.json in this checkout's root: the commit each
side ran, every run's metrics with correct and failed, then for each
workload and seed the median and quartiles of every metric on each side
and the pairs in which this checkout did better (wins; a tie is no win).
Which way is better comes from BENCHMARK.json.  The exit status is 1 if
a run failed or was not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 1800


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def _export(rev: str, into: Path) -> None:
    """Write the tree of rev into the directory into."""
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def _run(tree: Path, workload: str, seed: int, seconds: float, smoke: bool, no_cache: Path) -> dict:
    """One bench/run.py run in tree: its last output line, or the error."""
    args = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(no_cache)}
    try:
        done = subprocess.run(args + (["--smoke"] if smoke else []), cwd=tree, env=env,
                              capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"correct": False, "error": f"timed out after {RUN_TIMEOUT_S} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"correct": False, "error": f"exit status {done.returncode}: {done.stderr.strip()[-2000:]}"}
    out = json.loads(lines[-1])
    return {
        "correct": out["correct"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: m["value"] for name, m in out["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], lower_is_better: dict) -> list[dict]:
    """Per workload and seed: each side's spread of every metric and the
    wins of this checkout, over the pairs where both runs gave metrics."""
    out = []
    keys = sorted({(r["workload"], r["seed"]) for r in runs})
    for workload, seed in keys:
        pairs: dict = {}
        for r in runs:
            if (r["workload"], r["seed"]) == (workload, seed) and "metrics" in r:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["metrics"]
        both = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        names = sorted(set.intersection(*(set(p[s]) for p in both for s in p))) if both else []
        entry = {
            "workload": workload,
            "seed": seed,
            "pairs": len(both),
            "all_correct": all(r["correct"] for r in runs if (r["workload"], r["seed"]) == (workload, seed)),
            "base": {n: _spread([p["base"][n] for p in both]) for n in names},
            "head": {n: _spread([p["head"][n] for p in both]) for n in names},
            "wins": {},
        }
        for n in names:
            lower = lower_is_better.get(n, True)
            entry["wins"][n] = sum(
                (p["head"][n] < p["base"][n]) if lower else (p["head"][n] > p["base"][n]) for p in both
            )
        out.append(entry)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true", help="the benchmark's tiny inputs")
    parser.add_argument("--tag", default="pairs", help="the output is BENCH_<tag>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    base_sha, head_sha = _git("rev-parse", "--verify", args.base + "^{commit}"), _git("rev-parse", "HEAD")
    # The commit of the uncommitted tracked changes, empty when there are none.
    stashed = _git("stash", "create")
    record = {
        "base": {"rev": args.base, "sha": base_sha},
        "head": {"sha": head_sha, "dirty": bool(stashed), "ran": stashed or head_sha},
        "settings": {
            "pairs": args.pairs, "seconds": args.seconds, "size": "smoke" if args.smoke else "full",
            "workloads": args.workloads, "seeds": args.seeds,
        },
        "environment": {"python": platform.python_version(), "platform": platform.platform(), "nproc": os.cpu_count()},
        "runs": [],
    }
    failed = False
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base, head, no_cache = Path(tmp) / "base", Path(tmp) / "head", Path(tmp) / "no-pycache"
        for tree, sha in ((base, base_sha), (head, record["head"]["ran"])):
            tree.mkdir()
            _export(sha, tree)
        no_cache.mkdir()
        for workload in args.workloads:
            for seed in args.seeds:
                for pair in range(args.pairs):
                    sides = [("base", base), ("head", head)]
                    for order, (side, tree) in enumerate(sides if pair % 2 == 0 else sides[::-1]):
                        run = {"workload": workload, "seed": seed, "pair": pair, "side": side, "order": order}
                        run.update(_run(tree, workload, seed, args.seconds, args.smoke, no_cache))
                        failed |= not run["correct"]
                        record["runs"].append(run)
                        shown = run.get("metrics", {}).get("solve_rel", run.get("error"))
                        print(f"{workload} seed {seed} pair {pair} {side}: correct {run['correct']} solve_rel {shown}",
                              flush=True)
    record["summary"] = summarize(record["runs"], lower_is_better)
    out = ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for entry in record["summary"]:
        for name, head in entry["head"].items():
            base_spread = entry["base"][name]
            print(f"{entry['workload']} seed {entry['seed']} {name}: base {base_spread['median']:.6g} "
                  f"[{base_spread['q1']:.6g}, {base_spread['q3']:.6g}]  head {head['median']:.6g} "
                  f"[{head['q1']:.6g}, {head['q3']:.6g}]  wins {entry['wins'][name]} of {entry['pairs']}")
    print(f"wrote {out}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
