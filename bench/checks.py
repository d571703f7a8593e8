"""Output checks, run outside the timed region.

Two kinds. For the default seed, the digest of every canonical report is
compared with the digests committed in expected_digests.json. For any
seed, a seeded subsample of problems is checked against an independent
route through the package:

  certify_long  the profile at index i = max(1, N-6) against min/max of
                big_c over all suffixes of that index;
  toric_boxes   the toric table against demazure_table (simplicial route);
  scan_grid     sampled records: every degree reported vanished is zero in
                cohomology_table;
  oracle_small  every report must say agree == true (checked for all).

Each check returns None when it passes and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from itertools import product
from pathlib import Path
from typing import List, Optional

from workloads import DEFAULT_SEED, Problem, box_volume

EXPECTED_PATH = Path(__file__).with_name("expected_digests.json")

# Spot checks scan weight boxes themselves; boxes above this many points are
# passed over so that the checks of one run stay within a few seconds.
CHECK_BOX_LIMIT = 20_000
SAMPLE_RATE = {"certify_long": 0.5, "toric_boxes": 0.1, "scan_grid": 0.2, "oracle_small": 0.0}
SCAN_RECORDS_PER_PROBLEM = 2


def digest(report: str) -> str:
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def expected_digests(workload: str, seed: int) -> List[str]:
    """Committed report digests for the first problems, default seed only."""
    if seed != DEFAULT_SEED or not EXPECTED_PATH.exists():
        return []
    return json.loads(EXPECTED_PATH.read_text())["reports"].get(workload, [])


def sampled(workload: str, seed: int, k: int) -> bool:
    rng = random.Random(f"check:{workload}:{seed}:{k}")
    return rng.random() < SAMPLE_RATE[workload]


def inline_check(workload: str, doc: dict) -> Optional[str]:
    """The check every problem gets, cheap enough to run on each."""
    if workload == "oracle_small" and doc.get("agree") is not True:
        return "oracle routes disagree"
    return None


def spot_check(bs, workload: str, seed: int, problem: Problem, doc: dict) -> Optional[str]:
    """Check one sampled report against an independent route; bs is the package."""
    spec = bs.load_problem(problem.text)
    bott = spec.bott()
    if workload == "certify_long":
        n = bott.length
        i = max(1, n - 6)
        values = [bs.big_c(bott, spec.a, i, (1,) * i + tuple(s))
                  for s in product((1, -1), repeat=n - i)]
        row = doc["conditions"][i - 1]
        if (row["c_min"], row["c_max"]) != (min(values), max(values)):
            return f"profile at index {i} differs from big_c enumeration"
    elif workload == "toric_boxes":
        if problem.size > CHECK_BOX_LIMIT:
            return None
        table = bs.demazure_table(bott, spec.divisor())
        if list(table.dims) != doc["toric"]["dims"]:
            return "toric table differs from demazure_table"
    elif workload == "scan_grid":
        doc_in = json.loads(problem.text)
        rng = random.Random(f"records:{seed}:{problem.index}")
        records = doc["records"]
        checked = 0
        for rec in rng.sample(records, len(records)):
            zero_b = [0] * len(rec["a"])
            if box_volume(doc_in["cartan"], doc_in["word"], rec["a"], zero_b) > CHECK_BOX_LIMIT:
                continue
            table = bs.cohomology_table(bott, bs.ToricDivisor.upper(rec["a"]))
            if any(table.dims[d] for d in rec["vanished"]):
                return f"scan record a={rec['a']} claims a vanishing the toric table refutes"
            checked += 1
            if checked == SCAN_RECORDS_PER_PROBLEM:
                break
    return None
