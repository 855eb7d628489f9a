"""Command-line surface: every capability as a scriptable command.

Commands emit JSON (default) or CSV on stdout, write to a file with
--output, and send diagnostics to stderr.  Exit codes: 0 all checks pass,
1 a verification failed, 2 invalid input or an unwritable --output.
Identical invocations produce byte-identical output (--seed changes nothing).
All floats are emitted with 15 significant digits.

Each command validates its input and returns a `Table` whose rows are
tuples of raw values, built lazily.  `write_json` and `write_csv` turn the
table's row layout into one %-template per table (for JSON, json.dumps of
a sentinel row lays it out) and stream the rows through it a chunk at a
time, so no command holds its whole output in memory.  Every float is
formatted once, by "%.15g": CSV prints that text, and JSON the same text
but where the JSON of the rounded float differs (1.0 for 1, NaN, ...).
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from .analysis import concurrence
from .bases import SjmParams, _index_array, ejm_aligned, ejm_family_state, sjm_basis_sweep
from .circuit import build_sjm_circuit, circuit_to_dict, verify_discrimination
from .multiqubit import (
    TOL_GRAM, _basis_rows, multi_gram_bound, multi_invariant_residuals, multi_reduction_vectors,
)
from .network import TRILOCAL_BOUND, closed_form_probability, joint_distribution, nonlocality_scan

# With no angle flags a command runs at the point of the original elegant joint measurement.
DEFAULT_THETA, DEFAULT_PHI = ejm_aligned().theta, ejm_aligned().phi
# Largest --grid-steps: about 0.4 s of `network scan` on one core.
GRID_STEPS_CAP = 65536
# Largest |e| in an angle fraction (Fraction expands 10**e): Python's int digit limit.
_EXPONENT_CAP = 4300
# Values per written chunk of rows: amortizes the per-write cost over many
# small rows, while a chunk of the widest rows (basis, n = 12) stays under 1 MB.
_CHUNK_VALUES = 4096


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sjm",
        description="Parameterized symmetric joint measurement: bases, "
        "verification, discrimination circuit, and triangle-network statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name: str, run, help_text: str, angles=True, n=False, seed=False, grid=False):
        """A subcommand that runs `run(args, params)` and accepts only the flags it reads."""
        p = sub.add_parser(name, help=help_text)
        # Parser-level defaults: they win over add_argument's None, and they
        # also give a value to every flag this command does not take.
        p.set_defaults(run=run, theta=None, theta_frac=None, phi=None, phi_frac=None,
                       n=2, grid_steps=64, seed=None, mode=None)
        if angles:
            p.add_argument("--theta", type=float, help="theta in radians, [0, pi/2]")
            p.add_argument("--theta-frac", metavar="FRAC",
                           help="theta as a rational multiple of pi, e.g. 1/2 for pi/2")
            p.add_argument("--phi", type=float, help="phi in radians, [-pi, pi]")
            p.add_argument("--phi-frac", metavar="FRAC", help="phi as a rational multiple of pi")
        if n:
            p.add_argument("--n", type=int, help="number of qubits (even, default 2)")
        if grid:
            p.add_argument("--grid-steps", type=int,
                           help=f"sweep resolution (default 64, at most {GRID_STEPS_CAP})")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", metavar="PATH", help="write output to a file")
        if seed:
            p.add_argument("--seed", type=int, help="accepted and ignored: no check samples")
        return p

    add_command("basis", cmd_basis, "emit the basis amplitude table", n=True)
    add_command("verify", cmd_verify, "run every invariant check and report residuals",
                n=True, seed=True)
    add_command("circuit", cmd_circuit, "emit the discrimination circuit and its state mapping")
    network = add_command("network", cmd_network, "triangle-network outcome statistics", grid=True)
    network.add_argument("mode", choices=["table", "scan"])
    add_command("curve", cmd_curve, "emit concurrence-versus-theta data for the state families",
                angles=False, grid=True)
    add_command("multiqubit", cmd_multiqubit, "emit multiqubit Gram bound and reduction vectors",
                n=True, seed=True)
    return parser


def _angle(value: float | None, frac: str | None, flag: str, default: float) -> float:
    if value is not None and frac is not None:
        raise ValueError(f"give either --{flag} or --{flag}-frac, not both")
    if frac is not None:
        try:
            exponent = re.search(r"e([-+]?[\d_]+)", frac, re.IGNORECASE)
            if exponent and abs(int(exponent[1])) > _EXPONENT_CAP:
                raise ValueError(f"exponent outside [-{_EXPONENT_CAP}, {_EXPONENT_CAP}]")
            return float(Fraction(frac)) * math.pi
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"cannot parse --{flag}-frac {frac!r}: {exc}") from exc
    if value is not None:
        return float(value)
    return default


def params_from_args(args: argparse.Namespace) -> SjmParams:
    """Validate the flags before any computation and return the one
    `SjmParams` the command reads its angles from, in radians."""
    theta = _angle(args.theta, args.theta_frac, "theta", DEFAULT_THETA)
    phi = _angle(args.phi, args.phi_frac, "phi", DEFAULT_PHI)
    if not 1 <= args.grid_steps <= GRID_STEPS_CAP:
        raise ValueError(f"grid-steps must be in [1, {GRID_STEPS_CAP}], got {args.grid_steps}")
    if args.output == "":
        raise ValueError("--output needs a non-empty path")
    return SjmParams(theta, phi)


@dataclass(frozen=True)
class Table:
    """What a command emits: fixed fields around one lazily built row list.

    Every row has the layout of `shape`, a dict whose scalars (float, int,
    bool or str) stand for the row's values; a row in `rows` is the tuple
    of those values in document order, e.g. (*index, position, x, y, z).
    JSON: the `head` fields (never empty: they start with `command`), then
    `key` holding the rows, then `tail`.
    CSV: `header` (default: `columns`), then per row the cells of each of
    `columns` (default: the keys of `shape`), from the row, else from
    `head`: booleans in lowercase, a flat list (an index tuple of ints) as
    its digits run together, a list of lists (amplitude pairs) as one cell
    per number.  `columns` names the row's fields in their order.
    """

    head: dict
    key: str
    shape: dict
    rows: Iterable[tuple]
    columns: Sequence[str] = ()
    header: Sequence[str] = ()
    tail: dict = field(default_factory=dict)
    code: int = 0


_BOOL_TEXT = ("false", "true")
# A float's JSON slot writes "\0" before its "%.15g" text: json.dumps escapes
# that character in every string, so in the output it marks floats only.
_JSON_SLOTS = {bool: "%s", int: "%d", float: "\0%.15g", str: "%s"}
_JSON_CONVERT = {bool: _BOOL_TEXT.__getitem__, str: json.dumps}
# The "%.15g" tokens that differ from the JSON of the float they round to:
# integers (JSON writes 1.0), nan and inf, e+15 (JSON writes all 16 digits),
# e+308 (rounds up to inf) and subnormals (JSON may write fewer digits).
# The common "0.…" and "-0.…" tokens never do, and are passed over first.
_JSON_FLOAT_FIX = re.compile(
    r"\0(?!-?0\.)(-?\d+(?![\d.e])|nan|-?inf|-?\d(?:\.\d+)?e(?:\+15|\+308|-3\d\d)(?!\d))")
_CSV_SLOTS = {**_JSON_SLOTS, float: "%.15g"}


def _kind(value) -> type:
    for kind in (bool, int, float, str):  # bool first: it is an int
        if isinstance(value, kind):
            return kind
    raise TypeError(f"cannot emit {value!r}")


def _leaves(value) -> Iterator:
    """The scalars of a JSON value, in document order."""
    if isinstance(value, (dict, list)):
        for item in value.values() if isinstance(value, dict) else value:
            yield from _leaves(item)
    else:
        yield value


def _skeleton(value, slot: str):
    """`value` with every scalar replaced by `slot`."""
    if isinstance(value, dict):
        return {k: _skeleton(item, slot) for k, item in value.items()}
    if isinstance(value, list):
        return [_skeleton(item, slot) for item in value]
    return slot


def _format(template: str, kinds: Sequence[type], convert: dict,
            rows: Iterable[tuple]) -> Iterator[str]:
    """The text of `rows` through the one-row `template`, a chunk of rows at a
    time, each chunk by one %-operation; a value whose slot kind is in
    `convert` passes through its function first."""
    width = len(kinds)
    fixes = [(i, convert[kind]) for i, kind in enumerate(kinds) if kind in convert]
    rows = iter(rows)
    while chunk := list(itertools.islice(rows, max(1, _CHUNK_VALUES // max(1, width)))):
        values = list(itertools.chain.from_iterable(chunk))
        for i, fix in fixes:
            values[i::width] = map(fix, values[i::width])
        yield template * len(chunk) % tuple(values)


def _json_template(value, indent: str = "") -> tuple[str, list[type]]:
    """json.dumps(value, indent=2) as a %-template of `value`'s scalars, each
    line after the first starting with `indent`; and the scalars' kinds."""
    kinds = [_kind(leaf) for leaf in _leaves(value)]
    # A sentinel string longer than every key shows up only where a scalar was.
    for width in itertools.count(1):
        sentinel = "\0" * width
        parts = json.dumps(_skeleton(value, sentinel), indent=2).split(json.dumps(sentinel))
        if len(parts) == len(kinds) + 1:
            break
    slots = [_JSON_SLOTS[kind] for kind in kinds] + [""]
    template = "".join(part.replace("%", "%%") + slot for part, slot in zip(parts, slots))
    return template.replace("\n", "\n" + indent), kinds


def _json_float(match: re.Match) -> str:
    value = float(match[1])
    return repr(value) if math.isfinite(value) else json.dumps(value)


def _json_floats(text: str) -> str:
    """`text` with each marked "%.15g" token turned into the JSON of the
    float it rounds to; elsewhere the two are the same text."""
    if "\0" not in text:
        return text
    return _JSON_FLOAT_FIX.sub(_json_float, text).replace("\0", "")


def _json_members(fields: dict) -> str:
    """The JSON of a dict without its braces: '  "a": 1,\\n  "b": 2.5'."""
    template, kinds = _json_template(fields)
    text = "".join(_format(template, kinds, _JSON_CONVERT, [tuple(_leaves(fields))]))
    return _json_floats(text)[2:-2]


def write_json(table: Table, out: TextIO) -> None:
    """Write the bytes of json.dumps(doc, indent=2) + "\\n" for
    doc = {**head, key: rows as dicts, **tail}, with every float rounded to
    15 significant digits, one chunk of rows at a time."""
    out.write(f"{{\n{_json_members(table.head)},\n  {json.dumps(table.key)}: [")
    # Rows sit two levels deep in the document, each after ",\n".
    template, kinds = _json_template(table.shape, indent="    ")
    empty = True
    for text in _format(",\n    " + template, kinds, _JSON_CONVERT, table.rows):
        out.write(_json_floats(text[1:] if empty else text))  # no comma before the first row
        empty = False
    out.write("]" if empty else "\n  ]")
    if table.tail:
        out.write(",\n" + _json_members(table.tail))
    out.write("\n}\n")


def _csv_field(text: str, lone: bool) -> str:
    """`text` quoted as csv.writer quotes a field alone in its row, or among others."""
    line = io.StringIO()
    csv.writer(line, lineterminator="\n").writerow([text] if lone else [text, ""])
    return line.getvalue()[:-1 if lone else -2]


def _csv_cells(value) -> list[tuple[str, list]]:
    """The cells of one CSV column value, each as a %-template and its scalars."""
    if not isinstance(value, list):
        return [(_CSV_SLOTS[_kind(value)], [value])]
    if value and isinstance(value[0], list):
        return [("%.15g", [x]) for pair in value for x in pair]
    if any(_kind(x) is not int for x in value):
        raise TypeError(f"a flat list cell holds ints, got {value!r}")
    return [("%d" * len(value), value)]


def _csv_template(table: Table, columns: Sequence[str]) -> tuple[str, list[type], dict]:
    """One CSV line of `table` as a %-template of a row's values, with the
    head-only columns baked in as text; its slot kinds; its converters."""
    shape = table.shape
    if [column for column in columns if column in shape] != list(shape):
        raise ValueError("the CSV columns must name every row field, in row order")
    cells = [(column in shape, template, leaves) for column in columns
             for template, leaves in _csv_cells(shape[column] if column in shape
                                                else table.head[column])]
    convert = {bool: _BOOL_TEXT.__getitem__,
               str: functools.partial(_csv_field, lone=len(cells) == 1)}
    texts, kinds = [], []
    for in_row, template, leaves in cells:
        cell_kinds = [_kind(leaf) for leaf in leaves]
        if in_row:
            kinds += cell_kinds
        else:
            template = "".join(_format(template, cell_kinds, convert, [tuple(leaves)]))
            template = template.replace("%", "%%")
        texts.append(template)
    if texts == [""]:  # csv.writer quotes a lone empty field, which would read as a blank line
        texts = ['""']
    return ",".join(texts) + "\n", kinds, convert


def write_csv(table: Table, out: TextIO) -> None:
    """Write the header line, then one line per row, one chunk of rows at a time."""
    columns = table.columns or tuple(table.shape)
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow(table.header or columns)
    out.write(header.getvalue())
    for text in _format(*_csv_template(table, columns), table.rows):
        out.write(text)


def _point(params: SjmParams) -> dict:
    """The angles a command used: snapped onto their range, as the checks saw them."""
    return {"theta": params.theta, "phi": params.phi}


def cmd_basis(args: argparse.Namespace, params: SjmParams) -> Table:
    # The states stream out a block at a time: the dense basis is never held.
    states = _basis_rows(args.n, params)
    rows = ((*ks, *state.view(float).tolist())
            for ks, state in zip(_index_array(args.n // 2).tolist(), states))
    return Table(
        head={"command": "basis", "n": args.n, **_point(params)}, key="states",
        shape={"index": [0] * (args.n // 2), "amplitudes": [[0.0, 0.0]] * 2**args.n}, rows=rows,
        header=["index"] + [f"amp{i}_{p}" for i in range(2**args.n) for p in ("re", "im")],
    )


def cmd_verify(args: argparse.Namespace, params: SjmParams) -> Table:
    report = [(name, r, tol, r <= tol)
              for name, r, tol in multi_invariant_residuals(args.n, params)]
    all_pass = all(passed for *_, passed in report)
    return Table(
        head={"command": "verify", **_point(params), "n": args.n}, key="invariants",
        shape={"name": "", "residual": 0.0, "tolerance": 0.0, "pass": False}, rows=report,
        tail={"all_pass": all_pass}, code=0 if all_pass else 1,
    )


def cmd_circuit(args: argparse.Namespace, params: SjmParams) -> Table:
    circuit = build_sjm_circuit(params)
    report = verify_discrimination(circuit)
    return Table(
        head={"command": "circuit", **_point(params), "circuit": circuit_to_dict(circuit)},
        key="mappings",
        shape={"state": 0, "target": 0, "target_bits": "", "magnitude": 0.0, "phase": 0.0},
        rows=[(m.state_index, m.target_index, m.target_bits, m.magnitude, m.phase)
              for m in report.mappings],
        tail={"targets_distinct": report.targets_distinct,
              "max_magnitude_error": report.max_magnitude_error,
              "reference_sign_residual": report.reference_sign_residual,
              "pass": report.passed}, code=0 if report.passed else 1,
    )


def cmd_network(args: argparse.Namespace, params: SjmParams) -> Table:
    if args.mode == "scan":
        thetas = np.linspace(0.0, math.pi / 2, args.grid_steps)
        p_same, violates = nonlocality_scan(thetas, params.phi)
        return Table(
            head={"command": "network-scan", "phi": params.phi, "grid_steps": args.grid_steps,
                  "bound": TRILOCAL_BOUND},
            key="points", shape={"theta": 0.0, "p_same": 0.0, "violates": False},
            rows=zip(thetas.tolist(), p_same.tolist(), violates.tolist()),
            columns=("theta", "p_same", "bound", "violates"),
        )
    probs = joint_distribution(params)
    # C order of the (4, 4, 4) table is the order of the outcomes (a, b, c).
    rows = [(*outcome, p)
            for outcome, p in zip(itertools.product(range(4), repeat=3), probs.ravel().tolist())]
    residual = max(abs(p - closed_form_probability(a, b, c, params.theta)) for a, b, c, p in rows)
    ok = residual <= 1e-10
    return Table(
        head={"command": "network-table", **_point(params)}, key="outcomes",
        shape={"a": 0, "b": 0, "c": 0, "probability": 0.0},
        rows=rows, code=0 if ok else 1,
        tail={"total": float(probs.sum()), "closed_form_residual": residual, "pass": ok},
    )


def cmd_curve(args: argparse.Namespace, params: SjmParams) -> Table:
    thetas = np.linspace(0.0, math.pi / 2, args.grid_steps + 1)
    # All four basis states share one concurrence, and phi does not change it.
    c_sjm = concurrence(sjm_basis_sweep(thetas, 0.0)[:, 0])
    c_ejm = concurrence(ejm_family_state(thetas))
    return Table(
        head={"command": "curve", "grid_steps": args.grid_steps}, key="points",
        shape={"theta": 0.0, "c_sjm": 0.0, "c_ejm_family": 0.0, "c_original_ejm": 0.0},
        rows=zip(thetas.tolist(), c_sjm.tolist(), c_ejm.tolist(), itertools.repeat(0.5)),
    )


def cmd_multiqubit(args: argparse.Namespace, params: SjmParams) -> Table:
    pairs = args.n // 2
    residual = multi_gram_bound(args.n, params)
    ok = residual <= TOL_GRAM
    vectors = multi_reduction_vectors(args.n, params)
    # Each state's index list and vectors become Python objects as its rows
    # stream out, not all up front (about 10 MB at n = 12).
    rows = ((*ks, position, *xyz)
            for ks, state in zip(map(np.ndarray.tolist, _index_array(pairs)), vectors)
            for position, xyz in enumerate(state.tolist()))
    return Table(
        head={"command": "multiqubit", "n": args.n, **_point(params), "gram": {"residual": residual}},
        key="reductions", shape={"index": [0] * pairs, "position": 0, "x": 0.0, "y": 0.0, "z": 0.0},
        rows=rows, tail={"pass": ok}, code=0 if ok else 1,
    )


# Built once: main parses every argv with it and reports errors through it.
_PARSER = build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        table = args.run(args, params_from_args(args))
    except ValueError as exc:
        _PARSER.error(str(exc))
    # Every input error is reported above, before the output is opened, so
    # invalid input never creates or truncates an --output file.
    path = args.output
    try:
        with open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout) as out:
            (write_json if args.format == "json" else write_csv)(table, out)
    except OSError as exc:
        _PARSER.error(f"cannot write {path or 'stdout'}: {exc.strerror or exc}")
    return table.code


if __name__ == "__main__":
    sys.exit(main())
