"""Regenerate pins.json: the input pools and their expected fingerprints.

    python3 bench/pin.py

Takes several minutes.  Run it only when a change to the program declares
a behaviour change (a different search tree, record or rendering); the
diff of pins.json is then the behaviour change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from run import OUT, import_program

import_program()
import workloads  # noqa: E402

SEARCH_POOL = range(40)
SEARCH_STRATA = 4
PROOF_POOL = range(12)
PROOF_STRATA_PER_VARIANT = 2
AUDIT_POOL = range(512)
AUDIT_STRATA = 64


def strata(sizes: dict[str, int], n: int) -> list[list[str]]:
    """Keys sorted by size, cut into n equal consecutive groups."""
    keys = sorted(sizes, key=lambda k: (sizes[k], int(k.split(":")[-1])))
    step = len(keys) // n
    return [keys[i * step:(i + 1) * step] for i in range(n)]


def progress(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def main() -> int:
    search = {}
    for s in SEARCH_POOL:
        search[str(s)], _ = workloads.game(s)
        progress(f"search {s}: {search[str(s)]}")

    proof = {}
    for variant in workloads.PROOF_VARIANTS.values():
        for s in PROOF_POOL:
            key = f"{variant.name}:{s}"
            proof[key], _ = workloads.subtree(variant, workloads.prefix_board(variant, s))
            progress(f"proof {key}: {proof[key]}")

    audit, lengths = {}, {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        path = Path(tmp) / "record.rec"
        for s in AUDIT_POOL:
            path.write_bytes(workloads.record_text(s))
            audit[str(s)], lengths[str(s)] = workloads.audit_record(path)
    audit["bounds"], _ = workloads.bounds_batch(np.random.default_rng([0, 0]))
    progress(f"audit bounds: {audit['bounds']}")

    pins = {
        "search": {
            "strata": strata({k: v["nodes"] for k, v in search.items()}, SEARCH_STRATA),
            "pins": search,
        },
        "proof": {
            "strata": [
                group
                for name in workloads.PROOF_VARIANTS
                for group in strata({k: v["nodes"] for k, v in proof.items()
                                     if k.startswith(f"{name}:")}, PROOF_STRATA_PER_VARIANT)
            ],
            "pins": proof,
        },
        "audit": {"strata": strata(lengths, AUDIT_STRATA), "pins": audit},
    }
    with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
