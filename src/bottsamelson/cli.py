"""Command line interface.

Five subcommands, each reading one problem JSON document (file path or '-'
for stdin):

  analyze   conditions, certificates and vanished degrees for a divisor
  toric     exact cohomology table on the toric degeneration
  weights   per-weight classification dump over the weight box
  scan      vanishing reports over a grid of divisor coefficient vectors
  oracle    closed form vs simplicial vs Cech cross-check (N <= 4)

Exit codes: 0 success, 2 invalid input, 3 over a capacity cap, 4 two
routes disagree (oracle mismatch, or a certified vanishing the toric table
contradicts). Output is human-readable text, or canonical JSON with --json.
"""

from __future__ import annotations

import sys

import click

from . import __version__
from .analysis import (
    DEFAULT_BOX_CAP,
    ProblemError,
    ProblemSpec,
    load_problem,
    report_json,
    run_analyze,
    run_oracle,
    run_scan,
    run_toric,
    run_weights,
)
from .errors import BottSamelsonError, BoxTooLarge, TooLarge, VanishingContradiction

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_CAPACITY = 3
EXIT_MISMATCH = 4

_CHUNK = 1 << 20  # characters per write of a report


def _load_spec(file) -> ProblemSpec:
    try:
        text = file.read()
    except UnicodeDecodeError as exc:
        raise ProblemError(f"cannot decode the problem file: {exc}") from exc
    return load_problem(text)


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    try:
        return fn()
    except (BoxTooLarge, TooLarge) as exc:
        _fail(str(exc), EXIT_CAPACITY)
    except VanishingContradiction as exc:
        _fail(str(exc), EXIT_MISMATCH)
    except BottSamelsonError as exc:
        _fail(str(exc), EXIT_INVALID)


def _emit(doc: dict, as_json: bool, renderer):
    # click.echo(text) would copy the whole text to add its newline, and the
    # stream would encode that copy at once: a scan report runs to megabytes
    text = report_json(doc) if as_json else renderer(doc)
    for start in range(0, len(text), _CHUNK):
        click.echo(text[start:start + _CHUNK], nl=False)
    click.echo()


def _fmt_vec(values) -> str:
    return "(" + ", ".join(str(v) for v in values) + ")"


def _render_table(block: dict, indent: str = "  ") -> list:
    lines = [indent + f"h = {_fmt_vec(block['dims'])}   euler = {block['euler']}"]
    if "witnesses" in block:
        shown = block["witnesses"]
        lines.append(indent + f"witnesses ({len(shown)} concentrated weights"
                     + (", truncated" if block.get("witnesses_truncated") else "") + "):")
        for w in shown:
            lines.append(indent + f"  m = {_fmt_vec(w['weight'])} in degree {w['degree']}")
    return lines


def _render_analyze(doc: dict) -> str:
    v = doc["vanishing"]
    lines = [f"Bott tower of dimension {doc['alpha_summary']['dimension']}"]
    lines.append(f"word: {_fmt_vec(doc['input']['word'])}")
    lines.append(f"divisor a: {_fmt_vec(doc['input']['divisor']['a'])}")
    lines.append("conditions per index (range of C_i^eps over all suffixes):")
    for c in doc["conditions"]:
        flags = []
        if c["plus_ok"]:
            flags.append("plus_ok")
        if c["minus_ok"]:
            flags.append("minus_ok")
        lines.append(
            f"  i={c['index']}: C in [{c['c_min']}, {c['c_max']}]"
            + (f"   {' '.join(flags)}" if flags else "   (no condition holds)")
        )
    lines.append(
        f"certificates: minus {v['certificate_minus']}   plus {v['certificate_plus']}"
    )
    lines.append(f"vanished degrees: {_fmt_vec(v['vanished'])}")
    if v["everything_vanishes"]:
        lines.append("every degree vanishes")
    else:
        lines.append(f"possibly nonzero degrees: {_fmt_vec(v['possible_window'])}")
    if v["single_degree"] is not None:
        lines.append(f"single possible degree: {v['single_degree']}")
    if doc.get("toric"):
        lines.append("toric table on the degenerate fiber:")
        lines.extend(_render_table(doc["toric"]))
    for note in doc.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _box_line(box: dict) -> str:
    return (f"weight box: lo = {_fmt_vec(box['lo'])}, hi = {_fmt_vec(box['hi'])}"
            f" ({box['points']} points)")


def _render_toric(doc: dict) -> str:
    lines = [_box_line(doc["box"]), "toric cohomology table:"]
    lines.extend(_render_table(doc["toric"]))
    for note in doc.get("notes", ()):
        lines.append(f"note: {note}")
    return "\n".join(lines)


def _render_weights(doc: dict) -> str:
    lines = [_box_line(doc["box"])]
    for rec in doc["weights"]:
        if rec["kind"] == "concentrated":
            lines.append(f"  m = {_fmt_vec(rec['weight'])}  degree {rec['degree']}")
        else:
            lines.append(f"  m = {_fmt_vec(rec['weight'])}  zero")
    return "\n".join(lines)


def _render_scan(doc: dict) -> str:
    lines = []
    for rec in doc["records"]:
        single = rec["single_degree"]
        tail = "every degree vanishes" if rec["everything_vanishes"] else (
            f"single degree {single}" if single is not None else "")
        lines.append(
            f"a = {_fmt_vec(rec['a'])}  vanished = {_fmt_vec(rec['vanished'])}"
            + (f"  {tail}" if tail else "")
        )
    return "\n".join(lines)


def _render_oracle(doc: dict) -> str:
    lines = ["per-degree dimensions from three independent routes:"]
    lines.append(f"  closed form : {_fmt_vec(doc['closed_form']['dims'])}")
    lines.append(f"  simplicial  : {_fmt_vec(doc['simplicial']['dims'])}")
    lines.append(f"  cech        : {_fmt_vec(doc['cech']['dims'])}")
    if doc["agree"]:
        lines.append("all three agree")
    else:
        mism, swept = doc.get("first_mismatch"), doc.get("closed_form_sweep")
        lines.append("MISMATCH detected")
        if swept:
            lines.append(f"  closed form over the sign-pattern sweep: {_fmt_vec(swept['dims'])}")
        if mism:
            lines.append(f"  first failing weight: {_fmt_vec(mism['weight'])}")
            if "line_masks" in mism:
                lines.append(f"    line masks: {_fmt_vec(mism['line_masks'])}")
                lines.append(f"    sign masks: {_fmt_vec(mism['sign_masks'])}")
            else:
                lines.append(f"    closed form: {mism['closed_form']}")
                lines.append(f"    simplicial : {mism['simplicial']}")
                lines.append(f"    cech       : {mism['cech']}")
    return "\n".join(lines)


@click.group()
@click.version_option(version=__version__, prog_name="bottsamelson")
@click.pass_context
def main(ctx):
    """Cohomology vanishing on Bott-Samelson varieties and Bott towers."""
    # Integers of any size are accepted, so lift the interpreter's int/str
    # digit limit (Python 3.10.7 and later) while a command runs.
    if hasattr(sys, "set_int_max_str_digits"):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        ctx.call_on_close(lambda: sys.set_int_max_str_digits(limit))


_file_argument = click.argument("file", type=click.File("r"))
_json_flag = click.option("--json", "as_json", is_flag=True, help="emit canonical JSON")
_cap_option = click.option(
    "--cap", type=click.IntRange(min=1), default=DEFAULT_BOX_CAP, show_default=True,
    help="maximum number of enumerated lattice points",
)


@main.command()
@_file_argument
@_json_flag
@_cap_option
@click.option("--witnesses", is_flag=True, help="list concentrated weights")
@click.option("--no-toric", is_flag=True, help="skip the toric cohomology table")
def analyze(file, as_json, cap, witnesses, no_toric):
    """Vanishing certificates and degrees for a divisor (b = 0 only)."""
    doc = _guarded(lambda: run_analyze(
        _load_spec(file), with_toric=not no_toric, collect_witnesses=witnesses, cap=cap))
    _emit(doc, as_json, _render_analyze)


@main.command()
@_file_argument
@_json_flag
@_cap_option
@click.option("--witnesses", is_flag=True, help="list concentrated weights")
def toric(file, as_json, cap, witnesses):
    """Exact cohomology table on the toric degeneration."""
    doc = _guarded(lambda: run_toric(_load_spec(file), collect_witnesses=witnesses, cap=cap))
    _emit(doc, as_json, _render_toric)


@main.command()
@_file_argument
@_json_flag
@_cap_option
def weights(file, as_json, cap):
    """Classify every weight in the weight box."""
    doc = _guarded(lambda: run_weights(_load_spec(file), cap=cap))
    _emit(doc, as_json, _render_weights)


@main.command()
@_file_argument
@_json_flag
@_cap_option
def scan(file, as_json, cap):
    """Vanishing reports over a grid of divisor coefficients."""
    doc = _guarded(lambda: run_scan(_load_spec(file), cap=cap))
    _emit(doc, as_json, _render_scan)


@main.command()
@_file_argument
@_json_flag
@_cap_option
def oracle(file, as_json, cap):
    """Cross-check closed form, simplicial and Cech computations."""
    doc = _guarded(lambda: run_oracle(_load_spec(file), cap=cap))
    _emit(doc, as_json, _render_oracle)
    if not doc["agree"]:
        sys.exit(EXIT_MISMATCH)


if __name__ == "__main__":
    main()
