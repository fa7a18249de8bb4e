"""Byte-identity digest of zdcert's certificates over a fixed 1606-input corpus.

    python3 bench/corpus_digest.py

Run from anywhere; it imports zdcert from this checkout's ``src`` and the
input generator from its ``perfbench``.  The corpus is

* the bundled level-276 dataset;
* the bundled dataset with each of its 21 integer scalars, in document order,
  shifted by -3, -1, +1, +2 and +7 (105 inputs);
* 1500 draws of ``workloads.newform_dataset(random.Random(1))``.

Each input is parsed and certified.  The sha256 runs over, per input in that
order, the certificate's JSON without ``generated_at`` followed by its
``render_text``, or the text of the ``InputDataError`` that refused it.  The
digest depends only on certificate bytes, so two commits that print the same
digest certify the corpus identically.  The last line printed is the digest.

Each certificate's own JSON writer is checked too: ``to_json()`` must equal
``json.dumps(to_dict(), indent=2, sort_keys=True)`` plus a newline.  On the
first mismatch the script names that input's index and exits 1.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import newform_dataset
from zdcert.certify import parse_input, run_certificate
from zdcert.cli import bundled_dataset_path
from zdcert.errors import InputDataError

SHIFTS = (-3, -1, 1, 2, 7)
NEWFORM_DRAWS = 1500


def _integer_paths(node, path=()):
    """Paths to the integer leaves of a JSON document, in document order."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        if isinstance(node, int) and not isinstance(node, bool):
            yield path
        return
    for key, child in items:
        yield from _integer_paths(child, (*path, key))


def corpus() -> list[dict]:
    bundled = json.loads(bundled_dataset_path().read_text())
    inputs = [bundled]
    for path in _integer_paths(bundled):
        for shift in SHIFTS:
            raw = copy.deepcopy(bundled)
            parent = raw
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] += shift
            inputs.append(raw)
    rng = random.Random(1)
    inputs.extend(newform_dataset(rng) for _ in range(NEWFORM_DRAWS))
    return inputs


def main() -> None:
    digest = hashlib.sha256()
    outcomes = Counter()
    inputs = corpus()
    for index, raw in enumerate(inputs):
        try:
            inp = parse_input(raw)
        except InputDataError as exc:
            outcomes["input error"] += 1
            digest.update(f"input error: {exc}\n".encode())
            continue
        cert = run_certificate(inp)
        outcomes[cert.verdict] += 1
        body = cert.to_dict()
        if cert.to_json() != json.dumps(body, indent=2, sort_keys=True) + "\n":
            sys.exit(f"input {index}: to_json() differs from json.dumps of to_dict()")
        del body["generated_at"]
        digest.update(json.dumps(body, indent=2, sort_keys=True).encode())
        digest.update(cert.render_text().encode())
        digest.update(b"\n")
    print(f"{len(inputs)} inputs: " + ", ".join(f"{n} {k}" for k, n in sorted(outcomes.items())))
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
