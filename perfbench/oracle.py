"""Independent output oracle for every operation the benchmark runs.

Nothing here imports `sjm`.  The closed forms are restated from the README
and the library docstrings, so a defect in the library cannot hide behind
the same defect in its checker.  Every check reads the emitted text, the
way a user of the CLI would, and names the first mismatch it finds.

Fields that planned changes may legitimately add or drop (the Gram-check
metadata, a `margin` next to each residual) are not required.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

TRILOCAL_BOUND = 61.0 / 256.0
PHI_OFFSETS = (0.0, math.pi / 2, math.pi, -math.pi / 2)
# Emitted floats carry 15 significant digits; closed forms agree to ~1e-15.
TOL = 1e-10


class OracleError(Exception):
    """An output that disagrees with its closed form."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleError(message)


def _close(a: float, b: float, what: str, tol: float = TOL) -> None:
    _require(abs(a - b) <= tol, f"{what}: got {a!r}, expected {b!r}")


def _cos_k_pi(k):
    return np.where(np.asarray(k) % 2 == 1, -1.0, 1.0)


def check(op, exit_code, text: str, rng: np.random.Generator) -> None:
    """Raise OracleError unless `text` is a correct output of `op`."""
    _require(exit_code == 0, f"exit code {exit_code!r}, expected 0")
    _CHECKS[op.kind](op.params, text, rng)


def _echo(doc: dict, params: dict) -> None:
    for key in ("theta", "phi", "n"):
        if key in params and key in doc:
            _close(float(doc[key]), float(params[key]), f"echoed {key}", 1e-14)


def _check_verify(p, text, rng):
    doc = json.loads(text)
    _echo(doc, p)
    _require(doc["all_pass"] is True, "all_pass is not true")
    invariants = doc["invariants"]
    _require(len(invariants) > 0, "no invariants reported")
    for inv in invariants:
        _require(
            inv["pass"] is True and inv["residual"] <= inv["tolerance"],
            f"invariant {inv['name']} residual {inv['residual']} > {inv['tolerance']}",
        )


def _check_circuit(p, text, rng):
    doc = json.loads(text)
    _echo(doc, p)
    _require(doc["pass"] is True and doc["targets_distinct"] is True, "circuit check failed")
    targets = [m["target"] for m in doc["mappings"]]
    _require(sorted(targets) == [0, 1, 2, 3], f"targets {targets} are not distinct kets")
    for m in doc["mappings"]:
        _close(m["magnitude"], 1.0, f"state {m['state']} magnitude", 1e-8)
        _require(m["target_bits"] == format(m["target"], "02b"), "target_bits mismatch")


def _p_same(theta):
    return (4.0 + 21.0 * np.sin(theta) ** 2) / 64.0


def _check_network_table(p, text, rng):
    doc = json.loads(text)
    _echo(doc, p)
    _require(doc["pass"] is True, "pass is not true")
    s2 = math.sin(p["theta"]) ** 2
    # Outcome spectrum: all equal, all distinct, exactly two equal.
    spectrum = {3: (4 + 21 * s2) / 256, 1: (4 + s2) / 256, 2: (4 - 3 * s2) / 256}
    outcomes = doc["outcomes"]
    _require(len(outcomes) == 64, f"{len(outcomes)} outcomes, expected 64")
    seen, same = set(), 0.0
    for o in outcomes:
        a, b, c = o["a"], o["b"], o["c"]
        seen.add((a, b, c))
        distinct = len({a, b, c})
        key = 3 if distinct == 1 else (1 if distinct == 3 else 2)
        _close(o["probability"], spectrum[key], f"p({a},{b},{c})")
        if a == b == c:
            same += o["probability"]
    _require(len(seen) == 64, "outcome triples repeat")
    _close(same, float(_p_same(p["theta"])), "p_same")
    _close(doc["total"], 1.0, "total probability")


def _grid(steps: int) -> np.ndarray:
    return np.array([0.5 * math.pi * i / (steps - 1) for i in range(steps)]) if steps > 1 else np.zeros(1)


def _check_network_scan(p, text, rng):
    doc = json.loads(text)
    _echo(doc, p)
    points = doc["points"]
    steps = p["grid_steps"]
    _require(len(points) == steps, f"{len(points)} scan points, expected {steps}")
    _close(doc["bound"], TRILOCAL_BOUND, "bound", 1e-15)
    theta = np.array([q["theta"] for q in points])
    p_same = np.array([q["p_same"] for q in points])
    violates = np.array([q["violates"] for q in points])
    _require(np.abs(theta - _grid(steps)).max() <= 1e-12, "scan theta grid is wrong")
    expected = _p_same(theta)
    worst = int(np.argmax(np.abs(p_same - expected)))
    _close(p_same[worst], expected[worst], f"p_same at theta={theta[worst]!r}")
    # A point within rounding of the bound may go either way.
    decided = np.abs(expected - TRILOCAL_BOUND) > 1e-9
    _require(
        np.array_equal(violates[decided], (expected > TRILOCAL_BOUND)[decided]),
        "violation flags disagree with (4 + 21 sin^2 theta)/64 > 61/256",
    )


def _check_curve(p, text, rng):
    doc = json.loads(text)
    points = doc["points"]
    steps = p["grid_steps"] + 1
    _require(len(points) == steps, f"{len(points)} curve rows, expected {steps}")
    theta = np.array([q["theta"] for q in points])
    _require(np.abs(theta - _grid(steps)).max() <= 1e-12, "curve theta grid is wrong")
    s = np.sin(theta)
    for key, expected in (
        ("c_sjm", 0.5 * s),
        ("c_ejm_family", 0.5 * np.sqrt(1.0 + 3.0 * s**2)),
        ("c_original_ejm", np.full_like(s, 0.5)),
    ):
        got = np.array([q[key] for q in points])
        worst = int(np.argmax(np.abs(got - expected)))
        _close(got[worst], expected[worst], f"{key} at theta={theta[worst]!r}")


def reduction_closed_form(k, theta: float, phi: float, n: int, position):
    """Bloch vector of one qubit's reduction of multiqubit state index k:

    (1/sqrt 2)(-cos(k pi) cos(phi_k) +- cos(theta) sin(phi_k),
               -cos(k pi) sin(phi_k) -+ cos(theta) cos(phi_k),
               +- 2^{(1-n)/2} cos(k pi) sin(theta)),
    upper sign on the first qubit of a pair.  `k` is the pair's direction
    index; arrays broadcast.
    """
    k = np.asarray(k)
    sign = np.where(np.asarray(position) % 2 == 0, 1.0, -1.0)
    ck = _cos_k_pi(k)
    phik = phi + np.take(PHI_OFFSETS, k)
    ct, st = math.cos(theta), math.sin(theta)
    r = 1.0 / math.sqrt(2.0)
    return np.stack(
        [
            r * (-ck * np.cos(phik) + sign * ct * np.sin(phik)),
            r * (-ck * np.sin(phik) - sign * ct * np.cos(phik)),
            r * sign * 2.0 ** ((1.0 - n) / 2.0) * ck * st,
        ],
        axis=-1,
    )


def _check_multiqubit(p, text, rng):
    doc = json.loads(text)
    _echo(doc, p)
    _require(doc["pass"] is True, "pass is not true")
    gram = doc.get("gram", {})
    if "residual" in gram:
        _require(gram["residual"] <= TOL, f"gram residual {gram['residual']}")
    n = p["n"]
    rows = doc["reductions"]
    _require(len(rows) == 4 ** (n // 2) * n, f"{len(rows)} reductions, expected {4 ** (n // 2) * n}")
    index = np.array([r["index"] for r in rows])
    position = np.array([r["position"] for r in rows])
    _require(index.shape == (len(rows), n // 2), "index tuples have the wrong length")
    got = np.array([[r["x"], r["y"], r["z"]] for r in rows])
    k = index[np.arange(len(rows)), position // 2]
    expected = reduction_closed_form(k, p["theta"], p["phi"], n, position)
    err = np.abs(got - expected).max(axis=1)
    worst = int(np.argmax(err))
    _require(
        err[worst] <= TOL,
        f"reduction {rows[worst]['index']}@{rows[worst]['position']}: "
        f"{got[worst].tolist()} vs closed form {expected[worst].tolist()}",
    )
    _require(
        len({(tuple(r["index"]), r["position"]) for r in rows}) == len(rows),
        "reduction rows repeat",
    )


def _parse_basis(p, text):
    """Index tuples and the (count, 2^n) amplitude matrix of a basis table."""
    if p.get("format", "json") == "json":
        doc = json.loads(text)
        _echo(doc, p)
        states = doc["states"]
        index = [tuple(s["index"]) for s in states]
        amps = np.array([s["amplitudes"] for s in states], dtype=float)
        _require(amps.ndim == 3 and amps.shape[2] == 2, "amplitudes are not (re, im) pairs")
        return index, amps[..., 0] + 1j * amps[..., 1]
    header_end = text.index("\n")
    header = next(csv.reader([text[:header_end]]))
    dim = 2 ** p["n"]
    expected_header = ["index"] + [f"amp{i}_{part}" for i in range(dim) for part in ("re", "im")]
    _require(header == expected_header, "CSV header is wrong")
    body = io.StringIO(text[header_end + 1 :])
    index_col = np.loadtxt(body, delimiter=",", usecols=0, dtype=str, ndmin=1)
    body.seek(0)
    values = np.loadtxt(body, delimiter=",", usecols=range(1, 2 * dim + 1), ndmin=2)
    index = [tuple(int(ch) for ch in cell) for cell in index_col]
    return index, values[:, 0::2] + 1j * values[:, 1::2]


def _single_qubit_bloch(state: np.ndarray, n: int, q: int) -> np.ndarray:
    psi = np.moveaxis(state.reshape([2] * n), q, 0).reshape(2, -1)
    rho01 = np.vdot(psi[1], psi[0])  # <0|rho|1> = sum_r psi[0,r] conj(psi[1,r])
    return np.array(
        [2.0 * rho01.real, -2.0 * rho01.imag, np.vdot(psi[0], psi[0]).real - np.vdot(psi[1], psi[1]).real]
    )


def _check_basis(p, text, rng, sample_pairs: int = 64, sample_states: int = 8):
    n = p["n"]
    pairs = n // 2
    count, dim = 4**pairs, 2**n
    index, psi = _parse_basis(p, text)
    _require(psi.shape == (count, dim), f"basis table is {psi.shape}, expected {(count, dim)}")
    expected_index = [tuple((flat >> (2 * (pairs - 1 - i))) & 3 for i in range(pairs)) for flat in range(count)]
    _require(index == expected_index, "basis rows are not in lexicographic index order")
    norms = np.einsum("ij,ij->i", psi.conj(), psi).real
    worst = int(np.argmax(np.abs(norms - 1.0)))
    _close(norms[worst], 1.0, f"norm of state {index[worst]}")
    # Sampled pairs, as named in the check list ...
    j = rng.integers(count, size=sample_pairs)
    k = (j + 1 + rng.integers(count - 1, size=sample_pairs)) % count
    overlaps = np.abs(np.einsum("ij,ij->i", psi[j].conj(), psi[k]))
    worst = int(np.argmax(overlaps))
    _close(overlaps[worst], 0.0, f"overlap of states {index[j[worst]]} and {index[k[worst]]}")
    # ... and every pair at once: a unitary maps a random vector back onto
    # itself under psi^H psi, so any perturbed amplitude shows (Freivalds).
    r = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    err = float(np.abs(psi.conj().T @ (psi @ r) - r).max())
    _require(err <= 1e-9 * math.sqrt(count), f"psi^H psi r deviates from r by {err:.3g}")
    # Content, not just unitarity: reductions of sampled states.
    for flat in rng.choice(count, size=min(sample_states, count), replace=False):
        ks = np.array(index[flat])
        got = np.array([_single_qubit_bloch(psi[flat], n, q) for q in range(n)])
        positions = np.arange(n)
        expected = reduction_closed_form(ks[positions // 2], p["theta"], p["phi"], n, positions)
        _require(
            np.abs(got - expected).max() <= TOL,
            f"reduction of emitted state {index[flat]} disagrees with its closed form",
        )


_CHECKS = {
    "verify": _check_verify,
    "circuit": _check_circuit,
    "network-table": _check_network_table,
    "network-scan": _check_network_scan,
    "curve": _check_curve,
    "multiqubit": _check_multiqubit,
    "basis": _check_basis,
}
