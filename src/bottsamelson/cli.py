"""Command line interface.

Five subcommands, each reading one problem JSON document (file path or '-'
for stdin):

  analyze   conditions, certificates and vanished degrees for a divisor
  toric     exact cohomology table on the toric degeneration
  weights   per-weight classification dump over the weight box
  scan      vanishing reports over a grid of divisor coefficient vectors
  oracle    closed form vs simplicial vs Cech cross-check (N <= 4)

Exit codes: 0 success, 1 output pipe closed, 2 invalid input, 3 over a
capacity cap, 4 two routes disagree (oracle mismatch, or a certified
vanishing the toric table contradicts). Output is human-readable text, or
canonical JSON with --json.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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


def _cap(text: str) -> int:
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"Invalid value for '--cap': {text!r} is not an integer of at least 1")


def _load_spec(path: str) -> ProblemSpec:
    try:
        data = sys.stdin.buffer.read() if path == "-" else Path(path).read_bytes()
        text = data.decode("utf-8")
    except OSError as exc:
        raise ProblemError(f"cannot read the problem file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ProblemError(f"cannot decode the problem file: {exc}") from exc
    return load_problem(text)


def _fail(message: str, code: int):
    print(f"error: {message}", file=sys.stderr, flush=True)
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
    # one write of the whole text would have the stream encode all of it in
    # one copy, and a scan report runs to megabytes
    text = report_json(doc) if as_json else renderer(doc)
    for start in range(0, len(text), _CHUNK):
        sys.stdout.write(text[start:start + _CHUNK])
    sys.stdout.write("\n")
    sys.stdout.flush()  # so that a closed pipe raises here, inside main


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


_WITNESSES = {"--witnesses": "list concentrated weights"}

# name -> (help, extra flags, run_* call on (spec, args), text renderer)
_COMMANDS = {
    "analyze": ("Vanishing certificates and degrees for a divisor (b = 0 only).",
                {**_WITNESSES, "--no-toric": "skip the toric cohomology table"},
                lambda spec, args: run_analyze(spec, with_toric=not args.no_toric,
                                               collect_witnesses=args.witnesses, cap=args.cap),
                _render_analyze),
    "toric": ("Exact cohomology table on the toric degeneration.", _WITNESSES,
              lambda spec, args: run_toric(spec, collect_witnesses=args.witnesses, cap=args.cap),
              _render_toric),
    "weights": ("Classify every weight in the weight box.", {},
                lambda spec, args: run_weights(spec, cap=args.cap), _render_weights),
    "scan": ("Vanishing reports over a grid of divisor coefficients.", {},
             lambda spec, args: run_scan(spec, cap=args.cap), _render_scan),
    "oracle": ("Cross-check closed form, simplicial and Cech computations.", {},
               lambda spec, args: run_oracle(spec, cap=args.cap), _render_oracle),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser("bottsamelson", allow_abbrev=False, description=main.__doc__)
    parser.add_argument("--version", action="version",
                        version=f"bottsamelson, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, _, _) in _COMMANDS.items():
        command = commands.add_parser(name, help=summary, description=summary, allow_abbrev=False)
        command.add_argument("file", help="problem JSON document, or '-' for stdin")
        command.add_argument("--json", action="store_true", help="emit canonical JSON")
        command.add_argument("--cap", type=_cap, default=DEFAULT_BOX_CAP, help=(
            "maximum number of enumerated lattice points (default: %(default)s)"))
        for flag, text in flags.items():
            command.add_argument(flag, action="store_true", help=text)
    return parser


def main(argv=None):
    """Cohomology vanishing on Bott-Samelson varieties and Bott towers."""
    # Integers of any size are accepted, so lift the interpreter's int/str
    # digit limit (Python 3.10.7 and later) while a command runs.
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        _, _, run, renderer = _COMMANDS[args.command]
        doc = _guarded(lambda: run(_load_spec(args.file), args))
        _emit(doc, args.json, renderer)
        if args.command == "oracle" and not doc["agree"]:
            sys.exit(EXIT_MISMATCH)
    except BrokenPipeError:
        # the reader has gone: exit 1 with nothing on stderr, and point
        # stdout at devnull so that the interpreter's last flush succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    main()
