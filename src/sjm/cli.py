"""Command-line surface: every capability as a scriptable command.

Commands emit JSON (default) or CSV on stdout, write to a file with
--output, and send diagnostics to stderr.  Exit codes: 0 all checks pass,
1 a verification failed, 2 invalid input or an unwritable --output.
Identical invocations produce byte-identical output (--seed changes nothing).
All floats are emitted with 15 significant digits.

Each command validates its input and returns a `Table` whose rows are
built lazily; `write_json` or `write_csv` streams it, so no command holds
its whole output in memory.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import re
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, TextIO

import numpy as np

from .analysis import concurrence_curve, invariant_residuals
from .bases import SjmParams, _fmt, _index_array, sjm_basis
from .circuit import build_sjm_circuit, circuit_to_dict, verify_discrimination
from .multiqubit import (
    multi_gram_bound, multi_invariant_residuals, multi_reduction_vectors, multi_sjm_basis,
)
from .network import TRILOCAL_BOUND, closed_form_probability, joint_distribution, nonlocality_scan

DEFAULT_THETA = math.pi / 2
DEFAULT_PHI = math.pi / 4
# Largest --grid-steps: about 1.5 s of `network scan` on one core.
GRID_STEPS_CAP = 65536
# Largest |e| in an angle fraction (Fraction expands 10**e): Python's int digit limit.
_EXPONENT_CAP = 4300
# Rows per json.dumps call: amortizes the per-call cost over many small
# rows, while a chunk of the widest rows (basis, n = 12) stays tens of MB.
_CHUNK_ROWS = 64


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
    """Validate the flags before any computation: write the angles back into
    `args` in radians and return the one `SjmParams` the command reads."""
    args.theta = _angle(args.theta, args.theta_frac, "theta", DEFAULT_THETA)
    args.phi = _angle(args.phi, args.phi_frac, "phi", DEFAULT_PHI)
    if not 1 <= args.grid_steps <= GRID_STEPS_CAP:
        raise ValueError(f"grid-steps must be in [1, {GRID_STEPS_CAP}], got {args.grid_steps}")
    if args.output == "":
        raise ValueError("--output needs a non-empty path")
    return SjmParams(args.theta, args.phi)


@dataclass(frozen=True)
class Table:
    """What a command emits: fixed fields around one lazily built row list.

    JSON: the `head` fields (never empty: they start with `command`), then
    `key` holding the rows, then `tail`.
    CSV: `header` (default: `columns`), then per row the cells of each of
    `columns`, looked up in the row, else in `head`.
    """

    head: dict
    key: str
    rows: Iterable[dict]
    columns: Sequence[str]
    header: Sequence[str] | None = None
    tail: dict = field(default_factory=dict)
    code: int = 0


def write_json(table: Table, out: TextIO) -> None:
    """Write the bytes of json.dumps(doc, indent=2) + "\\n" for
    doc = {**head, key: list(rows), **tail}, one chunk of rows at a time."""

    def members(fields: dict) -> str:
        return json.dumps(fields, indent=2)[2:-2]  # '{\n  "a": 1\n}' -> '  "a": 1'

    out.write(f"{{\n{members(table.head)},\n  {json.dumps(table.key)}: [")
    separator, rows = "\n", iter(table.rows)
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        # Rows sit one level deeper in the document than in the chunk's list.
        body = json.dumps(chunk, indent=2)[2:-2].replace("\n", "\n  ")
        out.write(f"{separator}  {body}")
        separator = ",\n"
    out.write("]" if separator == "\n" else "\n  ]")
    if table.tail:
        out.write(",\n" + members(table.tail))
    out.write("\n}\n")


def _cells(value) -> list[str]:
    """CSV cells of one JSON value: lowercase booleans, 15-digit floats, a
    flat list (an index tuple) as its digits run together, and a list of
    lists (amplitude pairs) as one cell per number."""
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, float):
        return [f"{value:.15g}"]
    if isinstance(value, list):
        if value and isinstance(value[0], list):
            return [f"{x:.15g}" for pair in value for x in pair]
        return ["".join(map(str, value))]
    return [str(value)]


def write_csv(table: Table, out: TextIO) -> None:
    """Write the header line, then one line per row."""
    head, columns = table.head, table.columns
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(table.header or columns)
    writer.writerows(
        [cell for c in columns for cell in _cells(row[c] if c in row else head[c])]
        for row in table.rows
    )


def _point(args: argparse.Namespace) -> dict:
    return {"theta": _fmt(args.theta), "phi": _fmt(args.phi)}


def cmd_basis(args: argparse.Namespace, params: SjmParams) -> Table:
    basis = multi_sjm_basis(args.n, params)

    def amplitudes(state: np.ndarray) -> list[list[float]]:
        # _fmt of every part, but by one %-operation: 1.4x faster per state.
        text = "%.15g " * (2 * len(state)) % tuple(state.view(float).tolist())
        parts = iter(map(float, text.split()))
        return [[re, im] for re, im in zip(parts, parts)]

    rows = ({"index": list(ks), "amplitudes": amplitudes(s)}
            for ks, s in zip(basis.index_tuples(), basis.states))
    return Table(
        head={"command": "basis", "n": args.n, **_point(args)}, key="states", rows=rows,
        columns=("index", "amplitudes"),
        header=["index"] + [f"amp{i}_{p}" for i in range(2**args.n) for p in ("re", "im")],
    )


def cmd_verify(args: argparse.Namespace, params: SjmParams) -> Table:
    residuals = invariant_residuals(params) + multi_invariant_residuals(args.n, params)
    report = [{"name": name, "residual": _fmt(r), "tolerance": tol, "pass": r <= tol}
              for name, r, tol in residuals]
    all_pass = all(entry["pass"] for entry in report)
    return Table(
        head={"command": "verify", **_point(args), "n": args.n},
        key="invariants", rows=report, columns=("name", "residual", "tolerance", "pass"),
        tail={"all_pass": all_pass}, code=0 if all_pass else 1,
    )


def cmd_circuit(args: argparse.Namespace, params: SjmParams) -> Table:
    circuit = build_sjm_circuit(params)
    report = verify_discrimination(circuit, sjm_basis(params))
    return Table(
        head={"command": "circuit", **_point(args), "circuit": circuit_to_dict(circuit)},
        key="mappings", rows=[
            {"state": m.state_index, "target": m.target_index, "target_bits": m.target_bits,
             "magnitude": _fmt(m.magnitude), "phase": _fmt(m.phase)}
            for m in report.mappings
        ],
        columns=("state", "target", "target_bits", "magnitude", "phase"),
        tail={"targets_distinct": report.targets_distinct,
              "max_magnitude_error": _fmt(report.max_magnitude_error),
              "reference_sign_residual": _fmt(report.reference_sign_residual),
              "pass": report.passed}, code=0 if report.passed else 1,
    )


def cmd_network(args: argparse.Namespace, params: SjmParams) -> Table:
    if args.mode == "scan":
        return Table(
            head={"command": "network-scan", "phi": _fmt(args.phi), "grid_steps": args.grid_steps,
                  "bound": _fmt(TRILOCAL_BOUND)},
            key="points", rows=(
                {"theta": _fmt(r.theta), "p_same": _fmt(r.p_same), "violates": r.violates}
                for r in nonlocality_scan(np.linspace(0.0, math.pi / 2, args.grid_steps), args.phi)
            ),
            columns=("theta", "p_same", "bound", "violates"),
        )
    dist = joint_distribution(params)
    outcomes = list(itertools.product(range(4), repeat=3))
    residual = max(
        abs(dist.prob(a, b, c) - closed_form_probability(a, b, c, args.theta))
        for a, b, c in outcomes
    )
    ok = residual <= 1e-10
    return Table(
        head={"command": "network-table", **_point(args)},
        key="outcomes", rows=(
            {"a": a, "b": b, "c": c, "probability": _fmt(dist.prob(a, b, c))}
            for a, b, c in outcomes
        ),
        columns=("a", "b", "c", "probability"), code=0 if ok else 1,
        tail={"total": _fmt(dist.total()), "closed_form_residual": _fmt(residual), "pass": ok},
    )


def cmd_curve(args: argparse.Namespace, params: SjmParams) -> Table:
    thetas = np.linspace(0.0, math.pi / 2, args.grid_steps + 1)
    sjm_rows, ejm_rows = (concurrence_curve(family, thetas) for family in ("sjm", "ejm-family"))
    return Table(
        head={"command": "curve", "grid_steps": args.grid_steps},
        key="points", rows=(
            {"theta": _fmt(theta), "c_sjm": _fmt(c_sjm), "c_ejm_family": _fmt(c_ejm),
             "c_original_ejm": 0.5}
            for (theta, c_sjm), (_, c_ejm) in zip(sjm_rows, ejm_rows)
        ),
        columns=("theta", "c_sjm", "c_ejm_family", "c_original_ejm"),
    )


def cmd_multiqubit(args: argparse.Namespace, params: SjmParams) -> Table:
    residual = multi_gram_bound(args.n, params)
    ok = residual <= 1e-10
    vectors = multi_reduction_vectors(args.n, params).tolist()
    # Each state's index list is made as its rows stream out, not all up front.
    rows = ({"index": ks, "position": position, "x": _fmt(x), "y": _fmt(y), "z": _fmt(z)}
            for ks, state in zip(map(np.ndarray.tolist, _index_array(args.n // 2)), vectors)
            for position, (x, y, z) in enumerate(state))
    gram = {"residual": _fmt(residual)}
    return Table(
        head={"command": "multiqubit", "n": args.n, **_point(args), "gram": gram},
        key="reductions", rows=rows, columns=("index", "position", "x", "y", "z"),
        tail={"pass": ok}, code=0 if ok else 1,
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
