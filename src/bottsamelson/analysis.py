"""Problem documents, reports, and the operations behind the CLI.

A problem document is a small JSON object:

    {
      "cartan": {"type": "A", "rank": 3},      or {"matrix": [[2, -1], ...]}
      "word": [2, 1, 3, 2],
      "divisor": [2, 2, 2, 2],                 or {"a": [...], "b": [...]}
      "scan": [[-3, 3], [-3, 3]]               only for the scan command
    }

Reports are plain dictionaries with "schema": 1, rendered either as JSON
(sorted keys, deterministic output, integers beyond 64 bits as decimal
strings) or as text. All indices and weights in documents and reports are
1-based and in the simple-root basis conventions of the library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterator, Optional, Sequence, Tuple

from .bott import BottData, Word, _sign_masks, build_bott_data
from .cech import CECH_MAX_DIM, _cech_pattern_dims, cech_table
from .errors import BottSamelsonError, BoxTooLarge, TooLarge
from .rootsystem import (
    GeneralizedCartanMatrix,
    _reflect_each,
    cartan_of_type,
    simple_root,
    validate_gcm,
)
from .simplicial import _demazure_pattern
from .toric import (
    ALL_ZERO,
    CONCENTRATED,
    DEFAULT_BOX_CAP,
    ToricDivisor,
    _checked_box,
    _closed_degree,
    cohomology_table,
    demazure_table,
    weight_box,
)
from .vanishing import _check_vanished, _grid_bounds, _verdict, vanishing_report

SCHEMA_VERSION = 1
_INT64_MAX = 2**63 - 1

SEMICONTINUITY_NOTE = (
    "toric dimensions bound the Bott-Samelson dimensions from above "
    "(semicontinuity across the degeneration)"
)
EULER_NOTE = (
    "the Euler characteristic is the same on both fibers of the degeneration"
)
POSITIVITY_NOTE = (
    "nonzero toric cohomology in a surviving degree rules out a certificate "
    "there; positivity-based vanishing criteria are outside this tool's scope"
)


class ProblemError(BottSamelsonError):
    """Raised when a problem document cannot be parsed or validated."""

    def __init__(self, message: str):
        ValueError.__init__(self, message)


@dataclass(frozen=True)
class ProblemSpec:
    """A parsed and validated problem document."""

    gcm: GeneralizedCartanMatrix
    word: Word
    a: Optional[Tuple[int, ...]]
    b: Optional[Tuple[int, ...]]
    scan: Optional[Tuple[Tuple[int, int], ...]]

    def bott(self) -> BottData:
        return build_bott_data(self.gcm, self.word)

    def divisor(self) -> ToricDivisor:
        if self.a is None:
            raise ProblemError("this command needs a 'divisor' entry")
        b = self.b if self.b is not None else (0,) * len(self.a)
        return ToricDivisor(a=self.a, b=b)

    def echo(self) -> dict:
        doc: dict = {
            "cartan": {"matrix": [list(row) for row in self.gcm.entries]},
            "word": list(self.word.letters),
        }
        if self.a is not None:
            doc["divisor"] = {
                "a": list(self.a),
                "b": list(self.b) if self.b is not None else [0] * len(self.a),
            }
        if self.scan is not None:
            doc["scan"] = [list(pair) for pair in self.scan]
        return doc


def _int_list(value, what: str) -> Tuple[int, ...]:
    if not isinstance(value, (list, tuple)):
        raise ProblemError(f"{what} must be a list of integers")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ProblemError(f"{what} must contain integers, got {v!r}")
        out.append(v)
    return tuple(out)


def parse_problem(doc: dict) -> ProblemSpec:
    """Validate a problem document into a ProblemSpec."""
    if not isinstance(doc, dict):
        raise ProblemError("problem document must be a JSON object")
    unknown = set(doc) - {"cartan", "word", "divisor", "scan"}
    if unknown:
        raise ProblemError(f"unknown keys in problem document: {sorted(unknown)}")

    cartan = doc.get("cartan")
    if cartan is None:
        raise ProblemError("problem document needs a 'cartan' entry")
    if isinstance(cartan, dict):
        extra = set(cartan) - {"type", "rank", "matrix"}
        if extra:
            raise ProblemError(f"unknown cartan keys: {sorted(extra)}")
        if "matrix" in cartan and ("type" in cartan or "rank" in cartan):
            raise ProblemError("'cartan' takes either a matrix or a type and rank, not both")
    if isinstance(cartan, dict) and "type" in cartan:
        family = cartan.get("type")
        rank = cartan.get("rank")
        if not isinstance(family, str) or isinstance(rank, bool) or not isinstance(rank, int):
            raise ProblemError("'cartan' with a type needs string 'type' and integer 'rank'")
        gcm = cartan_of_type(family, rank)
    else:
        matrix = cartan.get("matrix") if isinstance(cartan, dict) else cartan
        if not isinstance(matrix, list):
            raise ProblemError("'cartan' must give a type and rank or an explicit matrix")
        gcm = validate_gcm([_int_list(row, "cartan matrix row") for row in matrix])

    word_entry = doc.get("word")
    if word_entry is None:
        raise ProblemError("problem document needs a 'word' entry")
    word = Word(_int_list(word_entry, "word"))
    n = len(word.letters)

    a = b = None
    divisor = doc.get("divisor")
    if divisor is not None:
        if isinstance(divisor, dict):
            extra = set(divisor) - {"a", "b"}
            if extra:
                raise ProblemError(f"unknown divisor keys: {sorted(extra)}")
            a = _int_list(divisor.get("a", ()), "divisor a")
            b = _int_list(divisor["b"], "divisor b") if "b" in divisor else (0,) * len(a)
        else:
            a = _int_list(divisor, "divisor")
            b = (0,) * len(a)
        if len(a) != n or len(b) != n:
            raise ProblemError(
                f"divisor length {len(a)} does not match word length {n}"
            )

    scan = None
    if "scan" in doc:
        raw = doc["scan"]
        if not isinstance(raw, list) or len(raw) != n:
            raise ProblemError("'scan' must list one [lo, hi] range per word position")
        pairs = []
        for k, pair in enumerate(raw, start=1):
            bounds = _int_list(pair, f"scan range {k}")
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ProblemError(f"scan range {k} must be [lo, hi] with lo <= hi")
            pairs.append((bounds[0], bounds[1]))
        scan = tuple(pairs)

    return ProblemSpec(gcm=gcm, word=word, a=a, b=b, scan=scan)


def load_problem(text: str) -> ProblemSpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"invalid JSON: {exc}") from exc
    return parse_problem(doc)


def _alpha_summary(bott: BottData) -> dict:
    """Fan data plus the exact range of alpha_ij^eps over interior signs.

    alpha_ij^eps pairs beta_i^vee with a product of the s_{beta_k}, k in
    (i, j) with eps_k = -, applied to beta_j. For each j one sweep over
    k = j-1 down to 1 keeps the deduplicated set of such images: the range
    for (k, j) is read from the set, then s_{beta_k} of every member joins it.
    """
    letters, n = bott.word.letters, bott.length
    ranges = {}
    for j in range(2, n + 1):
        reach = [simple_root(bott.gcm, letters[j - 1])]
        for k in range(j - 1, 0, -1):
            values, reflected = _reflect_each(bott.gcm, letters[k - 1], reach)
            ranges[k, j] = min(values), max(values)
            if k > 1:
                reach = list(set(reach).union(reflected))
    pairs = [
        {"i": i, "j": j, "min": ranges[i, j][0], "max": ranges[i, j][1]}
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    return {
        "dimension": n,
        "beta": [list(row) for row in bott.beta],
        "rays_minus": [list(v) for v in bott.rays_minus],
        "pairs": pairs,
    }


def _table_dict(table, include_witnesses: bool) -> dict:
    out = {"dims": list(table.dims), "euler": table.euler}
    if include_witnesses and table.witnesses is not None:
        out["witnesses"] = [
            {"weight": list(m), "degree": degree} for m, degree in table.witnesses
        ]
        out["witnesses_truncated"] = table.witnesses_truncated
    return out


def run_analyze(
    spec: ProblemSpec,
    with_toric: bool = True,
    collect_witnesses: bool = False,
    cap: int = DEFAULT_BOX_CAP,
) -> dict:
    """Vanishing analysis of the divisor; the heart of the CLI."""
    bott = spec.bott()
    divisor = spec.divisor()
    report = vanishing_report(bott, divisor, with_toric=False)
    n = bott.length

    doc: dict = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "input": spec.echo(),
        "alpha_summary": _alpha_summary(bott),
        "conditions": [
            {
                "index": i + 1,
                "c_min": report.profile.c_min[i],
                "c_max": report.profile.c_max[i],
                "plus_ok": report.profile.plus_ok[i],
                "minus_ok": report.profile.minus_ok[i],
            }
            for i in range(n)
        ],
        "vanishing": {
            "certificate_minus": report.certificate_minus.eta_string(),
            "certificate_plus": report.certificate_plus.eta_string(),
            "vanished": list(report.vanished),
            "possible_window": list(report.possible_window),
            "single_degree": report.single_degree,
            "everything_vanishes": report.everything_vanishes,
        },
        "notes": [SEMICONTINUITY_NOTE, EULER_NOTE],
    }

    if with_toric:
        table = cohomology_table(bott, divisor, collect_witnesses=collect_witnesses, cap=cap)
        _check_vanished(report.vanished, table)
        doc["toric"] = _table_dict(table, collect_witnesses)
        if any(table.dims[i] for i in report.possible_window):
            doc["notes"].append(POSITIVITY_NOTE)
    else:
        doc["toric"] = None
    return doc


def run_toric(
    spec: ProblemSpec,
    collect_witnesses: bool = False,
    cap: int = DEFAULT_BOX_CAP,
) -> dict:
    """Exact toric cohomology table (b may be nonzero here)."""
    bott = spec.bott()
    divisor = spec.divisor()
    table = cohomology_table(bott, divisor, collect_witnesses=collect_witnesses, cap=cap)
    box = weight_box(bott, divisor)
    return {
        "schema": SCHEMA_VERSION,
        "command": "toric",
        "input": spec.echo(),
        "box": {"lo": list(box.lo), "hi": list(box.hi), "points": box.num_points},
        "toric": _table_dict(table, collect_witnesses),
        "notes": [SEMICONTINUITY_NOTE, EULER_NOTE],
    }


def run_weights(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> dict:
    """Per-weight dump over the weight box."""
    bott = spec.bott()
    divisor = spec.divisor()
    box = _checked_box(bott, divisor, cap)
    records = []
    for m in box.points():
        degree = _closed_degree(*_sign_masks(bott, divisor, m))
        if degree is None:
            records.append({"weight": list(m), "kind": ALL_ZERO})
        else:
            records.append({"weight": list(m), "kind": CONCENTRATED, "degree": degree})
    return {
        "schema": SCHEMA_VERSION,
        "command": "weights",
        "input": spec.echo(),
        "box": {"lo": list(box.lo), "hi": list(box.hi), "points": box.num_points},
        "weights": records,
    }


def scan_records(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> Iterator[dict]:
    """Stream vanishing reports over a grid of a-vectors, in lex order.

    One sweep over the grid's distinct suffixes gives every point's
    condition bounds (see vanishing._sweep_bounds), so the cost grows with
    the suffixes and their reachable vectors, not with the grid volume
    times the reachable vectors.
    """
    if spec.scan is None:
        raise ProblemError("the scan command needs a 'scan' entry with ranges")
    volume = 1
    for lo, hi in spec.scan:
        volume *= hi - lo + 1
    if volume > cap:
        raise BoxTooLarge(volume, cap)
    for a, c_min, c_max in _grid_bounds(spec.bott(), spec.scan):
        verdict = _verdict(c_min, c_max)
        yield {
            "a": list(a),
            "vanished": list(verdict.vanished),
            "single_degree": verdict.single_degree,
            "everything_vanishes": verdict.everything_vanishes,
        }


def run_scan(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": "scan",
        "input": spec.echo(),
        "records": list(scan_records(spec, cap=cap)),
    }


def run_oracle(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> dict:
    """Three-way comparison: closed form vs simplicial vs Cech.

    On disagreement the result carries the lexicographically first failing
    weight under "first_mismatch"; the caller maps that to exit code 4.
    """
    bott = spec.bott()
    if bott.length > CECH_MAX_DIM:
        raise TooLarge(bott.length, CECH_MAX_DIM)
    divisor = spec.divisor()
    closed = cohomology_table(bott, divisor, cap=cap)
    simplicial = demazure_table(bott, divisor, cap=cap)
    cech = cech_table(bott, divisor, cap=cap)
    agree = closed.dims == simplicial.dims == cech.dims

    doc = {
        "schema": SCHEMA_VERSION,
        "command": "oracle",
        "input": spec.echo(),
        "closed_form": {"dims": list(closed.dims), "euler": closed.euler},
        "simplicial": {"dims": list(simplicial.dims), "euler": simplicial.euler},
        "cech": {"dims": list(cech.dims), "euler": cech.euler},
        "agree": agree,
    }
    if not agree:
        box = weight_box(bott, divisor)
        for m in box.enlarged().points():
            masks = _sign_masks(bott, divisor, m)
            degree = _closed_degree(*masks)
            per_closed = {} if degree is None else {degree: 1}
            per_simplicial = dict(_demazure_pattern(*masks))
            per_cech = dict(_cech_pattern_dims(bott.length, *masks))
            if not (per_closed == per_simplicial == per_cech):
                doc["first_mismatch"] = {
                    "weight": list(m),
                    "closed_form": per_closed,
                    "simplicial": per_simplicial,
                    "cech": per_cech,
                }
                break
    return doc


def report_json(doc: dict) -> str:
    """Canonical JSON rendering: sorted keys, big integers as strings.

    The same text as json.dumps(doc, sort_keys=True, indent=2) once every
    int beyond the signed 64-bit range is replaced by its decimal string,
    written directly: with an indent, json.dumps takes its pure-Python
    encoder.
    """
    return _render(doc, "\n")


def _render(value, newline: str) -> str:
    """JSON text of value, its nested lines starting with newline."""
    kind = type(value)
    if kind is int:
        return repr(value) if -_INT64_MAX <= value <= _INT64_MAX else f'"{value}"'
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k if type(k) is str else _key(k)) + ": " + _render(v, inner)
            for k, v in sorted(value.items())
        ]) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        # 64-bit ints, most items of most reports, are written without a call
        return "[" + inner + ("," + inner).join([
            repr(v) if type(v) is int and -_INT64_MAX <= v <= _INT64_MAX else _render(v, inner)
            for v in value
        ]) + newline + "]"
    return json.dumps(value)


def _key(key) -> str:
    """A dict key as json.dumps writes it: str, int, float, bool or None."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
