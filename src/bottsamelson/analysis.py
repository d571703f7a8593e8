"""Problem documents, reports, and the operations behind the CLI.

A problem document is a small JSON object:

    {
      "cartan": {"type": "A", "rank": 3},      or {"matrix": [[2, -1], ...]}
      "word": [2, 1, 3, 2],
      "divisor": [2, 2, 2, 2],                 or {"a": [...], "b": [...]}
      "scan": [[-3, 3], [-3, 3]]               only for the scan command
    }

Reports are plain dictionaries with "schema": 1, rendered either as JSON
(sorted keys, deterministic output, integers beyond +-(2**63 - 1) as
decimal strings) or as text. All indices and weights in documents and
reports are 1-based and in the simple-root basis conventions of the
library.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, islice, product
from json.encoder import encode_basestring_ascii
from operator import is_, itemgetter
from typing import Iterator, Optional, Sequence, Tuple

from .bott import BottData, Word, _line_masks, _sign_masks, _table, build_bott_data
from .cech import _cech_counts_table, _cech_dim, _cech_pattern_dims
from .errors import BottSamelsonError, BoxTooLarge, _int, _ints
from .rootsystem import GeneralizedCartanMatrix, _family_minimum, cartan_of_type, validate_gcm
from .simplicial import _demazure_pattern
from .toric import (
    ALL_ZERO,
    CONCENTRATED,
    DEFAULT_BOX_CAP,
    ToricDivisor,
    WeightBox,
    _box_counts,
    _checked_box,
    _closed_degree,
    _closed_pattern,
    _pattern_table,
    _scan_table,
    cohomology_table,
    weight_box,
)
from .vanishing import _check_vanished, _conclusions, _flag_keys, _sweep_bounds, vanishing_report

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
    """Raised when a problem document's JSON or structure is wrong."""


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
        if not isinstance(family, str):
            raise ProblemError("'cartan' with a type needs a string 'type'")
        rank = _int(cartan.get("rank"), "'cartan' rank")
        _family_minimum(family.upper())  # a family refused at any rank is named first
        entries = rank * rank
        if rank > 0 and entries > DEFAULT_BOX_CAP:
            raise BoxTooLarge(entries, DEFAULT_BOX_CAP, message=(
                f"Cartan matrix of rank {rank} has {entries} entries, exceeding the "
                f"fixed limit of {DEFAULT_BOX_CAP} matrix entries (--cap does not change it)"
            ))
        gcm = cartan_of_type(family, rank)
    else:
        matrix = cartan.get("matrix") if isinstance(cartan, dict) else cartan
        if not isinstance(matrix, list):
            raise ProblemError("'cartan' must give a type and rank or an explicit matrix")
        gcm = validate_gcm(matrix)

    word_entry = doc.get("word")
    if word_entry is None:
        raise ProblemError("problem document needs a 'word' entry")
    word = Word(word_entry)
    n = len(word.letters)

    a = b = None
    divisor = doc.get("divisor")
    if divisor is not None:
        if isinstance(divisor, dict):
            extra = set(divisor) - {"a", "b"}
            if extra:
                raise ProblemError(f"unknown divisor keys: {sorted(extra)}")
            a = _ints(divisor.get("a", ()), "divisor a")
            b = _ints(divisor["b"], "divisor b") if "b" in divisor else (0,) * len(a)
        else:
            a = _ints(divisor, "divisor")
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
            bounds = _ints(pair, f"scan range {k}")
            if len(bounds) != 2 or bounds[0] > bounds[1]:
                raise ProblemError(f"scan range {k} must be [lo, hi] with lo <= hi")
            pairs.append((bounds[0], bounds[1]))
        scan = tuple(pairs)

    return ProblemSpec(gcm=gcm, word=word, a=a, b=b, scan=scan)


def load_problem(text: str) -> ProblemSpec:
    """Parse and validate a problem document given as JSON text.

    Malformed JSON, nesting too deep for the parser and integer literals
    past the interpreter's int/str digit limit all raise ProblemError.
    """
    try:
        doc = json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise ProblemError(f"invalid JSON: {exc}") from exc
    return parse_problem(doc)


def _alpha_summary(bott: BottData) -> dict:
    """Fan data plus the exact range of alpha_ij^eps over interior signs.

    alpha_ij^eps is the value at alpha_{l_j} of the coroot functional
    s_{l_{j-1}}^eps ... s_{l_{i+1}}^eps (beta_i^vee), where s_{l_k}^eps is
    s_{l_k} for eps_k = - and the identity for eps_k = +. So every range is
    a read of the tower's directions: for each i, keep the reach, the set
    of directions reachable from beta_i^vee, as a frozenset of numbers of
    the shared table of the tower's matrix and letters (bott._table, see
    bott._Directions); at step j take the min and max of f_{l_j} over the
    reach and join the reach with its image under s_{l_j}. Each step is
    one lookup in the table's memo, shared by every tower over the same
    matrix and letters; on a miss, the step reads the reach's members (a
    list for the values, a set for the join), reflecting any member the
    table has not yet reflected by l_j, and stores the result if the reach
    is small. So the reads are exact for any generalized Cartan matrix,
    on a cold, evicted or warm table, whether or not the tower's plan was
    built; in finite type a reach never holds more than the roots. The
    walk is one pass of bott._table, which holds its lock, so towers may
    be built and summarised in several threads at once.
    """
    letters, n = bott.word.letters, bott.length
    pairs = []
    with _table(bott) as table:
        steps = [(l, table.memo[l].get) for l in letters]
        for i in range(1, n):
            reach = table.start[letters[i - 1]]
            for j in range(i + 1, n + 1):
                l, get = steps[j - 1]
                lo, hi, reach = get(reach) or table.step(l, reach)
                pairs.append({"i": i, "j": j, "min": lo, "max": hi})
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
    """Per-weight dump over the weight box, in lexicographic order, each
    weight classified by the closed form on the signs that bott._line_masks
    gives one box line at a time."""
    bott = spec.bott()
    divisor = spec.divisor()
    box = _checked_box(bott, divisor, cap)
    records = []
    line = range(box.lo[-1], box.hi[-1] + 1)
    for prefix, masks in _line_masks(bott, divisor, box.lo, box.hi):
        for m_n, masks_m in zip(line, masks):
            weight = [*prefix, m_n]
            degree = _closed_degree(*masks_m)
            if degree is None:
                records.append({"weight": weight, "kind": ALL_ZERO})
            else:
                records.append({"weight": weight, "kind": CONCENTRATED, "degree": degree})
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
    the suffixes times the coroot directions of the word, not with the
    grid volume times the directions. One pass over those tables then gives
    every point's flag key (vanishing._flag_keys); the conclusions depend
    on the key alone and are built once per distinct key, at most
    2(N + 1)^2 of them.

    Records whose "vanished" lists are equal share one list object, so a
    scan holds at most 2(N + 1)^2 of them however large the grid, and
    report_json renders each conclusion once. Each record is a fresh dict
    with a fresh "a" list and compares equal to one with a copied list;
    but mutating one record's "vanished" list in place changes it in every
    record that shares it, so copy it first.
    """
    if spec.scan is None:
        raise ProblemError("the scan command needs a 'scan' entry with ranges")
    volume = 1
    for lo, hi in spec.scan:
        volume *= hi - lo + 1
    if volume > cap:
        raise BoxTooLarge(volume, cap, "scan grid")
    n = len(spec.scan)
    keys = _flag_keys(spec.scan, _sweep_bounds(spec.bott(), spec.scan))
    grid = product(*(range(lo, hi + 1) for lo, hi in spec.scan))
    conclusions, lists = {}, {}
    for a, key in zip(grid, keys):
        verdict = conclusions.get(key)
        if verdict is None:
            c = _conclusions(n, *key)
            vanished = lists.setdefault(c.vanished, list(c.vanished))
            verdict = conclusions[key] = (vanished, c.single_degree, c.everything_vanishes)
        vanished, single, every = verdict
        yield {"a": list(a), "vanished": vanished, "single_degree": single,
               "everything_vanishes": every}


def run_scan(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> dict:
    """The scan report: every record of scan_records, in lex order. Records
    with equal "vanished" lists share one list object (see scan_records)."""
    return {
        "schema": SCHEMA_VERSION,
        "command": "scan",
        "input": spec.echo(),
        "records": list(scan_records(spec, cap=cap)),
    }


def run_oracle(spec: ProblemSpec, cap: int = DEFAULT_BOX_CAP) -> dict:
    """Three-way comparison: closed form vs simplicial vs Cech.

    One sign-pattern sweep of the box and its one-layer shell gives the
    closed-form table (the sweep's), the simplicial one and the Cech one.
    The per-weight scan of the closed form over the box alone, which never
    calls the sweep, is the reference reported as "closed_form", so
    "agree" requires scan = sweep = simplicial = Cech: a defect in the
    sweep shows as a disagreement, and so does a box that misses a
    contributing weight, since shell weights must contribute nothing.

    On disagreement a second sweep counts the box alone, and the closed
    form summed over its counts, the table cohomology_table answers, is
    reported under "closed_form_sweep". A box defect then shows as
    closed_form = closed_form_sweep != simplicial = cech, and a sweep
    defect that every sweep-based table shares as closed_form_sweep =
    simplicial = cech != closed_form. Under "first_mismatch" comes the
    lexicographically first weight of the box and shell whose per-weight
    routes differ or whose signs from bott._line_masks differ from
    bott._sign_masks, if any. The caller maps a disagreement to exit
    code 4.
    """
    bott = spec.bott()
    divisor = spec.divisor()
    n = _cech_dim(bott)  # first: towers past CECH_MAX_DIM are refused before any box
    box = _checked_box(bott, divisor, cap)
    closed = _scan_table(bott, divisor, box, collect_witnesses=False)
    counts = _box_counts(bott, divisor, box.enlarged())  # the box and its shell
    swept = _pattern_table(n, counts, _closed_pattern)
    simplicial = _pattern_table(n, counts, _demazure_pattern)
    cech = _cech_counts_table(n, counts)
    agree = closed.dims == swept.dims == simplicial.dims == cech.dims

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
        swept = _pattern_table(n, _box_counts(bott, divisor, box), _closed_pattern)
        doc["closed_form_sweep"] = {"dims": list(swept.dims), "euler": swept.euler}
        doc.update(_first_mismatch(bott, divisor, box.enlarged()))
    return doc


def _first_mismatch(bott: BottData, divisor: ToricDivisor, box: WeightBox) -> dict:
    """{"first_mismatch": ...} for the lexicographically first weight of the
    box whose per-weight closed form, simplicial and Cech dimensions
    differ, or, where they agree, whose (bad_plus, bad_minus) from
    _line_masks differ from _sign_masks, or {} when there is none. Every
    rule reads the line masks, so a defect in them shows only there."""
    line = range(box.lo[-1], box.hi[-1] + 1)
    for prefix, masks in _line_masks(bott, divisor, box.lo, box.hi):
        for m_n, masks_m in zip(line, masks):
            weight = (*prefix, m_n)
            degree = _closed_degree(*masks_m)
            per_closed = {} if degree is None else {degree: 1}
            per_simplicial = dict(_demazure_pattern(*masks_m))
            per_cech = dict(_cech_pattern_dims(bott.length, *masks_m))
            if not (per_closed == per_simplicial == per_cech):
                return {"first_mismatch": {
                    "weight": list(weight),
                    "closed_form": per_closed,
                    "simplicial": per_simplicial,
                    "cech": per_cech,
                }}
            expected = _sign_masks(bott, divisor, weight)
            if masks_m != expected:
                return {"first_mismatch": {
                    "weight": list(weight),
                    "line_masks": list(masks_m),
                    "sign_masks": list(expected),
                }}
    return {}


def report_json(doc: dict) -> str:
    """Canonical JSON rendering: sorted keys, big integers as strings.

    The same text as json.dumps(doc, sort_keys=True, indent=2) once every
    int beyond +-(2**63 - 1) (so -2**63 too) is replaced by its decimal
    string, written directly: with an indent, json.dumps takes its
    pure-Python encoder.

    Each dict, list and row table is written by one join over its pieces,
    and a nested text is one piece of its parent's join: a "+" around a
    nested text would copy it whole, once per "+". A dict's pieces are its
    separators, keys and values; a list's brackets go on its end items.
    So the call allocates about twice the text it returns beyond its
    input: a scan report's record pieces and records text, then that text
    and the whole report.

    Three kinds of list take a fast path; every other value is rendered
    item by item, and so is a list that fails its path's checks. The first
    two fill one row template (_fill) from one flattened tuple.

    * Int tables (_render_table): a list of lists, all of one non-zero
      length, whose entries are all of type int within +-(2**63 - 1), such
      as beta, rays_minus, the echoed Cartan matrix and scan ranges, is
      written with one %d per entry. The checks are the item types, the
      row lengths, the entry types and the min and max entry; a ragged or
      an empty row, a bool, a float, an int subclass or an int past the
      range sends the list item by item.
    * Flat rows (_render_rows): a list of dicts with one set of str keys
      whose values are all of type int, bool or None, such as the alpha
      summary's pairs and the conditions. When every value is of type int
      within +-(2**63 - 1) (the pairs), the row template writes them with
      %d, checked by the min and max value. Otherwise (a bool or None
      among them, as in the conditions) one repr writes them, and every
      int must be below 10**18 in absolute value. The exact types keep out
      int subclasses, whose __repr__ may differ from what json writes,
      bools, which %d writes as 1 and 0, and floats.
    * Scan records (_render_records): a list whose first item is a dict
      with exactly the scan-record keys is checked whole, once. It passes
      when every item is such a dict, every "a" a non-empty list of type-int
      items within +-(2**63 - 1), every "everything_vanishes" of type bool,
      every "single_degree" of type int or None and every "vanished" a list
      of type-int items; the items of a "vanished" list that several
      records share are checked once. Then each record is written from one
      head, the repr of each distinct int of the "a" lists, and the text
      after "a", which is rendered once per distinct conclusion and ends
      with the next record's separator and head; each record adds its "a"
      text and that tail to one piece list, joined once. When records share
      their "vanished" lists, as run_scan's do, that memo is keyed on the
      list's identity and falls back to its content; when no two adjacent
      records share one, as after json.loads, on the content. The exact types
      make both keys exact: values that compare equal but render
      differently (True and 1, 1.0 and 1) never reach the memo. A list that
      fails the check is rendered item by item, as any other list is.
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
        sep = "," + inner
        pieces = []
        for k, v in sorted(value.items()):
            pieces += (sep, encode_basestring_ascii(k if type(k) is str else _key(k)), ": ",
                       _render(v, inner))
        pieces[0] = "{" + inner  # in place of the first separator
        pieces.append(newline + "}")
        return "".join(pieces)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        first = type(value[0])
        if first is dict:
            text = (_render_records if value[0].keys() == _RECORD_KEYS else _render_rows)(
                value, newline)
        else:
            text = _render_table(value, newline) if first is list else None
        if text is not None:
            return text
        inner = newline + "  "
        # 64-bit ints, most items of most reports, are written without a call
        items = [
            repr(v) if type(v) is int and -_INT64_MAX <= v <= _INT64_MAX else _render(v, inner)
            for v in value
        ]
        # the brackets join the end items, so only those two are copied twice
        items[0] = "[" + inner + items[0]
        items[-1] += newline + "]"
        return ("," + inner).join(items)
    return json.dumps(value)


_RECORD_KEYS = frozenset(("a", "everything_vanishes", "single_degree", "vanished"))
_RECORD_COLUMNS = tuple(map(itemgetter, sorted(_RECORD_KEYS)))
_ROW_VALUE_TYPES = frozenset((int, bool, type(None)))
_DEGREE_TYPES = frozenset((int, type(None)))
_DICT_ONLY, _STR_ONLY = frozenset((dict,)), frozenset((str,))
_LIST_ONLY, _INT_ONLY, _BOOL_ONLY = frozenset((list,)), frozenset((int,)), frozenset((bool,))


def _render_rows(rows, newline: str) -> Optional[str]:
    """JSON text of a list of flat rows, its nested lines starting with
    newline, or None when the list is not one.

    Flat rows: every item is a dict with the str keys of the first item,
    and every value is of type int, bool or None. Their values, flattened
    in sorted key order, fill one row template repeated once per row
    (_fill). When every value is of type int within +-(2**63 - 1), the
    template writes each with %d. Otherwise one repr writes them all; its
    items are what json writes once True, False and None take their JSON
    spellings, as long as each int is at most 18 characters long, and so
    below 10**18 in absolute value.
    """
    first = rows[0]
    if set(map(type, rows)) != _DICT_ONLY or set(map(type, first)) != _STR_ONLY:
        return None
    keys = sorted(first)
    # with every key of the first row in each row (else itemgetter raises
    # KeyError), equal sizes mean equal key sets
    if sum(map(len, rows)) != len(rows) * len(keys):
        return None
    get = itemgetter(*keys)
    try:
        values = list(chain.from_iterable(map(get, rows)) if len(keys) > 1 else map(get, rows))
    except KeyError:
        return None
    types = set(map(type, values))
    if types == _INT_ONLY:
        if min(values) < -_INT64_MAX or max(values) > _INT64_MAX:
            return None
        spec = "%d"
    else:
        if not types <= _ROW_VALUE_TYPES:
            return None
        text = repr(values)[1:-1].replace("True", "true").replace("False", "false")
        values = text.replace("None", "null").split(", ")
        if max(map(len, values)) > 18:
            return None
        spec = "%s"
    fields = [encode_basestring_ascii(k).replace("%", "%%") + ": " + spec for k in keys]
    return _fill("{", fields, "}", len(rows), newline, values)


def _render_table(rows, newline: str) -> Optional[str]:
    """JSON text of a list of int rows, its nested lines starting with
    newline, or None when the list is not one.

    Int rows: every item is a list, all of one non-zero length, and every
    entry is of type int within +-(2**63 - 1), such as a Cartan matrix,
    beta or rays_minus. One row template writes each entry with %d (_fill).
    """
    if set(map(type, rows)) != _LIST_ONLY or len(set(map(len, rows))) != 1 or not rows[0]:
        return None
    values = list(chain.from_iterable(rows))
    if (set(map(type, values)) != _INT_ONLY
            or min(values) < -_INT64_MAX or max(values) > _INT64_MAX):
        return None
    return _fill("[", ["%d"] * len(rows[0]), "]", len(rows), newline, values)


def _fill(open_: str, fields: Sequence[str], close: str, count: int, newline: str,
          values: Sequence) -> str:
    """JSON text of count rows, each open_, its fields on their own lines
    and close, one %-template filled from values, its nested lines starting
    with newline."""
    inner = newline + "  "
    field = inner + "  "
    row = open_ + field + ("," + field).join(fields) + inner + close
    rows = [row] * count
    rows[0] = "[" + inner + row
    rows[-1] += newline + "]"
    return ("," + inner).join(rows) % tuple(values)


def _render_records(records, newline: str) -> Optional[str]:
    """JSON text of a list of scan records, its nested lines starting with
    newline, or None when the list fails the whole-list check that
    report_json describes.

    The text after "a" is memoised on two levels. When two adjacent
    records share a "vanished" list object, as most of run_scan's do, the
    first level is keyed on (e, s, id(v)), and v's items are checked on
    each first-level miss, so once per (e, s, list object) and not once
    per record; a miss falls back to the second level, keyed on the
    content (e, s, *v). Otherwise, as when every record has its own list
    after json.loads, one pass checks every item and the first level is
    keyed on (e, s, tuple(v)). Either way a tail is rendered once per
    distinct conclusion. The identity keys hold because column_v keeps
    every list alive through the call, and the content keys are exact
    only once the types are: True == 1 == 1.0.
    """
    if set(map(type, records)) != _DICT_ONLY or sum(map(len, records)) != 4 * len(records):
        return None
    # with every record key in each record (else the getter raises
    # KeyError), four keys apiece means exactly the record keys
    try:
        column_a, column_e, column_s, column_v = (list(map(get, records))
                                                  for get in _RECORD_COLUMNS)
    except KeyError:
        return None
    if (set(map(type, column_a)) != _LIST_ONLY or not all(column_a)
            or set(map(type, chain.from_iterable(column_a))) != _INT_ONLY
            or set(map(type, column_e)) != _BOOL_ONLY
            or not set(map(type, column_s)) <= _DEGREE_TYPES
            or set(map(type, column_v)) != _LIST_ONLY):
        return None
    ints = set(chain.from_iterable(column_a))
    if min(ints) < -_INT64_MAX or max(ints) > _INT64_MAX:
        return None
    if any(map(is_, column_v, islice(column_v, 1, None))):
        keys = zip(column_e, column_s, map(id, column_v))
    elif set(map(type, chain.from_iterable(column_v))) <= _INT_ONLY:
        keys = zip(column_e, column_s, map(tuple, column_v))
    else:
        return None
    text = dict(zip(ints, map(repr, ints))).__getitem__
    inner = newline + "  "
    field = inner + "  "
    head = "{" + field + '"a": [' + field + "  "
    sep = "," + field + "  "
    # each tail ends with the next record's separator and head, so a record
    # adds two pieces, its "a" text and its tail
    next_head = "," + inner + head
    tails, texts = {}, {}
    pieces = ["[" + inner + head]
    for a, key, v in zip(column_a, keys, column_v):
        tail = tails.get(key)
        if tail is None:
            if not set(map(type, v)) <= _INT_ONLY:
                return None
            e, s, _ = key
            content = (e, s, *v)
            tail = texts.get(content)
            if tail is None:
                tail = texts[content] = (
                    field + "]," + field + '"everything_vanishes": ' + _render(e, field)
                    + "," + field + '"single_degree": ' + _render(s, field)
                    + "," + field + '"vanished": ' + _render(v, field) + inner + "}" + next_head
                )
            tails[key] = tail
        pieces += (sep.join(map(text, a)), tail)
    pieces[-1] = pieces[-1][:-len(next_head)] + newline + "]"
    # the join holds the pieces and the whole text at once, the peak of the
    # call, so the columns are gone by then
    del column_a, column_e, column_s, column_v, keys
    return "".join(pieces)


def _key(key) -> str:
    """A dict key as json.dumps writes it: str, int, float, bool or None."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
