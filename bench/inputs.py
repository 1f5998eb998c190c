"""Seeded input generation for the benchmark workloads.

The inputs come from this file's own numpy code, not from the package's
synthetic generator, so a change to the package cannot shift a workload.
They are written in the formats the command line reads: the bag-of-words
corpus, the plain-text model (rows printed with %.17g, as save_model
writes them) and the precision-matrix prior.  A manifest records the
SHA-256 digest of every file; `verify` checks it before each run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

MANIFEST = "manifest.json"

# Positivity floor the package's model loader demands of every entry.
FLOOR = 1e-10


@dataclasses.dataclass(frozen=True)
class Shape:
    """Input shape of one workload.  tokens is the mean document length;
    the distinct-term count follows from it and the topic concentration.
    Each document mixes doc_topics distinct topics with Dirichlet(doc_alpha)
    weights, which keeps per-document cost and quality alike across seeds."""

    topics: int
    vocab: int
    docs: int
    tokens: int
    doc_topics: int
    doc_alpha: float = 1.0
    topic_concentration: float = 0.05
    prior: bool = False
    cap_mass: float = 3.0


# Full sizes.  Document counts are chosen so that one pass of a workload
# takes two or three seconds on one core, leaving room for several pairs of
# passes (the package's and the pinned copy's) per run.
FULL = {
    "heldout-converged": Shape(100, 2000, 80, 350, doc_topics=8),
    "sparse-k1000": Shape(1000, 3000, 40, 270, doc_topics=2, doc_alpha=4.0),
    "train-em": Shape(20, 1000, 50, 100, doc_topics=3),
    "ctm-capped": Shape(50, 1000, 8, 150, doc_topics=5, prior=True),
}

# Tiny sizes for the smoke test: every workload and check in seconds.
SMOKE = {
    "heldout-converged": Shape(8, 60, 6, 40, doc_topics=3, topic_concentration=0.1),
    "sparse-k1000": Shape(40, 80, 6, 40, doc_topics=2, topic_concentration=0.1),
    "train-em": Shape(4, 50, 12, 30, doc_topics=2, topic_concentration=0.1),
    "ctm-capped": Shape(6, 50, 4, 30, doc_topics=2, topic_concentration=0.1, prior=True, cap_mass=2.0),
}

_STREAM = {name: i for i, name in enumerate(sorted(FULL))}


# The model and prior of a workload are fixed; the seed draws its
# documents.  Seed-to-seed differences are then those of the documents.
_MODEL_SEED = 20121026


def _rng(workload: str, seed: int):
    import numpy as np

    return np.random.default_rng([seed, _STREAM[workload]])


def _topic_rows(rng, shape: Shape):
    import numpy as np

    rows = rng.dirichlet(np.full(shape.vocab, shape.topic_concentration), size=shape.topics)
    rows = np.maximum(rows / rows.sum(axis=1, keepdims=True), FLOOR)
    rows = rows / rows.sum(axis=1, keepdims=True)
    return np.maximum(rows, FLOOR)


def _documents(rng, rows, shape: Shape):
    """Token counts per document as (term ids, counts) pairs."""
    import numpy as np

    docs = []
    while len(docs) < shape.docs:
        chosen = rng.choice(shape.topics, size=shape.doc_topics, replace=False)
        mixture = rng.dirichlet(np.full(shape.doc_topics, shape.doc_alpha)) @ rows[chosen]
        length = max(1, int(rng.poisson(shape.tokens)))
        counts = rng.multinomial(length, mixture / mixture.sum())
        ids = np.flatnonzero(counts)
        docs.append((ids, counts[ids]))
    return docs


def _prior(rng, shape: Shape):
    """Entrywise non-negative SPD precision (certified concave) and a mean
    whose caps exp(mean) sum to cap_mass, so the caps bind."""
    import numpy as np

    k = shape.topics
    basis = rng.random((k, 4))
    precision = 0.5 * np.eye(k) + 0.05 * (basis @ basis.T)
    weights = rng.uniform(0.5, 1.5, size=k)
    caps = shape.cap_mass * weights / weights.sum()
    return precision, np.log(caps)


def _write_corpus(path: Path, docs, vocab: int) -> None:
    triples = sum(len(ids) for ids, _ in docs)
    lines = [str(len(docs)), str(vocab), str(triples)]
    for m, (ids, counts) in enumerate(docs, start=1):
        lines.extend(f"{m} {int(w) + 1} {int(c)}" for w, c in zip(ids, counts))
    path.write_text("\n".join(lines) + "\n")


def _write_rows(fh, rows) -> None:
    for row in rows:
        fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def _write_model(path: Path, rows) -> None:
    with open(path, "w") as fh:
        fh.write("sparsetopics-model 1\n")
        fh.write(f"{rows.shape[0]} {rows.shape[1]}\n")
        _write_rows(fh, rows)


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def generate(workload: str, seed: int, shape: Shape, out_dir: Path) -> dict:
    """Write the workload's input files into out_dir and return the
    manifest (file name -> digest, plus counts the checks need)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    model_rng = _rng(workload, _MODEL_SEED)
    rows = _topic_rows(model_rng, shape)
    docs = _documents(_rng(workload, seed), rows, shape)
    files = {"corpus": "corpus.docword.txt"}
    _write_corpus(out_dir / files["corpus"], docs, shape.vocab)
    if workload != "train-em":
        files["model"] = "model.txt"
        _write_model(out_dir / files["model"], rows)
    if shape.prior:
        files["prior"] = "prior.txt"
        precision, mean = _prior(model_rng, shape)
        with open(out_dir / files["prior"], "w") as fh:
            _write_rows(fh, precision)
            _write_rows(fh, [mean])
    manifest = {
        "workload": workload,
        "seed": seed,
        "shape": dataclasses.asdict(shape),
        "files": files,
        "triples": sum(len(ids) for ids, _ in docs),
        "tokens": int(sum(int(c.sum()) for _, c in docs)),
        "mean_distinct_terms": sum(len(ids) for ids, _ in docs) / len(docs),
        "sha256": {name: _digest(out_dir / name) for name in files.values()},
    }
    tmp = out_dir / (MANIFEST + ".tmp")
    tmp.write_text(json.dumps(manifest, indent=1, sort_keys=True))
    os.replace(tmp, out_dir / MANIFEST)
    return manifest


def verify(out_dir: Path, shape: Shape) -> dict | None:
    """Return the manifest when it was written for this shape and every
    recorded digest still matches, else None (missing, stale or altered
    inputs)."""
    try:
        manifest = json.loads((out_dir / MANIFEST).read_text())
        if manifest["shape"] != dataclasses.asdict(shape):
            return None
        for name, digest in manifest["sha256"].items():
            if _digest(out_dir / name) != digest:
                return None
    except (OSError, ValueError, KeyError):
        return None
    return manifest
