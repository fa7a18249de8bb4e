"""In-process stage times of a certificate operation, and memory after a fixed run.

    python3 bench/stages.py [--seed S] [--repeats R]

Run from anywhere; it imports zdcert from this checkout's ``src`` and the
input generator from its ``perfbench``, so a copy of this file placed in
another checkout times that checkout's code.  An operation is what the
benchmark's ``newforms`` and ``bundled`` workloads time: ``parse_input``,
``run_certificate``, ``Certificate.to_json`` and ``render_text``.

* ``newforms``: NEWFORM_INPUTS draws of ``workloads.newform_dataset(random.Random(S))``;
* ``bundled``: the level-276 dataset, BUNDLED_INPUTS times.

Each stage runs over every input of a workload as one pass, and each whole
operation runs as another; the best pass of R is divided by the input count
and printed in microseconds per operation, so ``operation_us`` is the
closed-loop mean that ``ops_per_s`` inverts.

Before any timing, the process runs RSS_OPERATIONS ``newforms`` operations on
the seed's stream, keeping nothing, and prints ``ru_maxrss`` in MB.  The count
is fixed, so two commits compare at an equal operation count: the benchmark's
``peak_rss_mb`` grows with the number of operations a run completes.  The
output is one JSON document.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import newform_dataset
from zdcert.certify import parse_input, run_certificate
from zdcert.cli import bundled_dataset_path

NEWFORM_INPUTS = 1500
BUNDLED_INPUTS = 1000
RSS_OPERATIONS = 25_000


def _operation(raw: dict) -> None:
    cert = run_certificate(parse_input(raw))
    cert.to_json()
    cert.render_text()


def _best_us(stage, values: list, repeats: int) -> float:
    """The best of repeats passes of stage over values, in microseconds per value."""
    best = float("inf")
    for _ in range(repeats):
        start = perf_counter()
        for value in values:
            stage(value)
        best = min(best, perf_counter() - start)
    return round(best / len(values) * 1e6, 1)


def stage_times(raws: list[dict], repeats: int) -> dict[str, float]:
    """Per-operation best-of times of each stage, and of the whole operation, over raws."""
    inputs = [parse_input(raw) for raw in raws]
    certs = [run_certificate(inp) for inp in inputs]
    return {
        "parse_input_us": _best_us(parse_input, raws, repeats),
        "run_certificate_us": _best_us(run_certificate, inputs, repeats),
        "to_json_us": _best_us(lambda cert: cert.to_json(), certs, repeats),
        "render_text_us": _best_us(lambda cert: cert.render_text(), certs, repeats),
        "operation_us": _best_us(_operation, raws, repeats),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    for _ in range(RSS_OPERATIONS):
        _operation(newform_dataset(rng))
    # ru_maxrss is in KiB on Linux
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rng = random.Random(args.seed)
    newforms = [newform_dataset(rng) for _ in range(NEWFORM_INPUTS)]
    bundled = [json.loads(bundled_dataset_path().read_text())] * BUNDLED_INPUTS
    print(json.dumps({
        "python": platform.python_version(),
        "seed": args.seed,
        "repeats": args.repeats,
        "newforms": stage_times(newforms, args.repeats),
        "bundled": stage_times(bundled, args.repeats),
        f"ru_maxrss_mb_after_{RSS_OPERATIONS}_newforms_ops": round(rss_mb, 2),
    }, indent=2))


if __name__ == "__main__":
    main()
