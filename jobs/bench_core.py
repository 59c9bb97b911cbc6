#!/usr/bin/env python
"""Layer (a) of the performance trajectory: the OnlineSTL core on one core.

Usage: python jobs/bench_core.py [--label NAME] [--out PATH]
           [--periods 10,100,1440,10000] [--seconds S] [--repeats N]

For each period m it measures, on a seeded noisy sine-plus-trend series:

* ``initialize`` time in ms (4m points, fresh model);
* ``update`` points/s, one call per point;
* ``update_many`` points/s, fed in chunks of 8 and of 1024 points (the
  per-key micro-batch sizes of the two perfbench workloads).

Each rate is the median, with quartiles, of ``--repeats`` trials that each
run for at least ``--seconds``. The run is stored under ``--label`` in the
JSON file at ``--out`` together with host facts; other labels already in
the file are kept, so runs of two source trees on one host (point
``PYTHONPATH`` at each tree's ``src``) sit side by side. Numbers are only
comparable between runs with the same host facts.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.online_stl import OnlineSTL

CHUNKS = (8, 1024)
DEFAULT_OUT = Path(__file__).resolve().parent.parent / "bench_results" / "BENCH_core.json"
POOL = 4096  # distinct post-warm-up points, cycled through


def host_facts() -> dict:
    """What a reader needs to decide whether two files are comparable."""
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "pyspark", "pyarrow", "pandas"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        **versions,
    }


def _series(m: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(4 * m + POOL, dtype=np.float64)
    return 5.0 + 0.01 * t + np.sin(2 * np.pi * t / m) + rng.normal(0, 0.3, t.size)


def _quartiles(xs: list[float]) -> dict:
    q1, med, q3 = np.percentile(xs, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "trials": len(xs)}


def _rate(step, chunk: int, pool: np.ndarray, seconds: float) -> float:
    """Points/s of ``step(block)`` over consecutive ``chunk``-point blocks of
    the cycled pool, for at least ``seconds``."""
    done, i = 0, 0
    t0 = time.perf_counter()
    while True:
        if i + chunk > pool.size:
            i = 0
        step(pool[i : i + chunk])
        i += chunk
        done += chunk
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done / elapsed


def bench_period(m: int, seconds: float, repeats: int) -> dict:
    y = _series(m)
    head, pool = y[: 4 * m], y[4 * m :]
    init_ms = []
    for _ in range(repeats):
        model = OnlineSTL([m])
        t0 = time.perf_counter()
        model.initialize(head)
        init_ms.append((time.perf_counter() - t0) * 1e3)

    # The last initialized model carries on through every update trial.
    def per_point(block: np.ndarray) -> None:
        model.update(float(block[0]))

    out = {"initialize_ms": _quartiles(init_ms)}
    out["update_pts_per_s"] = _quartiles(
        [_rate(per_point, 1, pool, seconds) for _ in range(repeats)]
    )
    for chunk in CHUNKS:
        out[f"update_many_{chunk}_pts_per_s"] = _quartiles(
            [_rate(model.update_many, chunk, pool, seconds) for _ in range(repeats)]
        )
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="current")
    ap.add_argument("--out", default=str(DEFAULT_OUT))
    ap.add_argument("--periods", default="10,100,1440,10000")
    ap.add_argument("--seconds", type=float, default=0.5)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    periods = [int(p) for p in args.periods.split(",")]
    results = {}
    for m in periods:
        results[str(m)] = r = bench_period(m, args.seconds, args.repeats)
        print(
            f"m={m:>6}  init {r['initialize_ms']['median']:9.2f} ms  update "
            f"{r['update_pts_per_s']['median']:10.0f}/s  "
            + "  ".join(
                f"many@{c} {r[f'update_many_{c}_pts_per_s']['median']:10.0f}/s"
                for c in CHUNKS
            )
        )

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"runs": {}}
    doc["runs"][args.label] = {
        "when": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": host_facts(),
        "settings": {"seconds": args.seconds, "repeats": args.repeats, "chunks": CHUNKS},
        "results": results,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {out} [{args.label}]")


if __name__ == "__main__":
    main()
