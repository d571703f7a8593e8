"""Rewrite expected_digests.json from the program as it stands.

    PYTHONPATH=src python3 bench/record_expected.py

Records, for the default seed, the digest of each generated document and
of each canonical report for the first problems of every workload. Reports
are meant to stay byte-identical across changes, so rerun this only for a
change that alters reports on purpose, and say so where the change is
described.
"""

from __future__ import annotations

import json

import bottsamelson.cli  # noqa: F401
from bottsamelson import analysis

import checks
import workloads
from worker import execute

DOCUMENTS = 32
REPORTS = {"certify_long": 48, "toric_boxes": 96, "scan_grid": 48, "oracle_small": 600}


def main() -> None:
    seed = workloads.DEFAULT_SEED
    out = {"seed": seed, "documents": {}, "reports": {}}
    for workload in workloads.WORKLOADS:
        problems = [workloads.problem(workload, seed, k) for k in range(REPORTS[workload])]
        out["documents"][workload] = [checks.digest(p.text) for p in problems[:DOCUMENTS]]
        out["reports"][workload] = [checks.digest(execute(analysis, p)[1]) for p in problems]
        print(f"{workload}: {len(problems)} reports", flush=True)
    checks.EXPECTED_PATH.write_text(dump(out))


def dump(out: dict) -> str:
    """JSON with one workload's digest list per line."""
    sections = [
        f' "{key}": {{\n' + ",\n".join(
            f'  "{workload}": {json.dumps(digests)}' for workload, digests in out[key].items()
        ) + "\n }"
        for key in ("documents", "reports")
    ]
    return "{\n" + f' "seed": {out["seed"]},\n' + ",\n".join(sections) + "\n}\n"


if __name__ == "__main__":
    main()
