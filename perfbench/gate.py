"""Correctness gate for benchmark outputs.

A command passes when it exits 0 and every file it is expected to write
matches either a committed golden under `scenarios/golden/` (exact header and
columns, every value within an absolute tolerance) or a compact reference
committed in `perfbench/refs/`.  A reference for a CSV table keeps its header,
its row count, three per-column sums (plain, absolute and ramp-weighted) and
its rows: every row of a table of at most FULL_VALUES values, about ten
strided rows of a larger one.  A stored row must match within the tolerance;
the sums must match within rows x tolerance, so a value in a row that is not
stored shows only once it moves by more than that.  A reference for a JSON
file is the file itself, compared with the same numeric tolerance.
"""
from __future__ import annotations

import json
import math
import os
import re

import numpy as np

__all__ = ["check", "make_ref"]

STRIDED_ROWS = 10
# Tables up to this size (the 2401 x 2 sweep trajectories, the dissipative
# tables) are stored whole; only the 201 x 401 landscape is stored strided.
FULL_VALUES = 5000


def read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, values


def _within(got, want, atol) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= atol))


def compare_json(got, want, atol: float, where: str = "$") -> list[str]:
    """Structural equality; numbers within atol, everything else exact."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{where}: keys differ"]
        return [p for key in want for p in compare_json(got[key], want[key], atol, f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: list differs in length"]
        return [p for i, (g, w) in enumerate(zip(got, want))
                for p in compare_json(g, w, atol, f"{where}[{i}]")]
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return [f"{where}: {got!r} is not a number"]
    return [] if abs(got - want) <= atol else [f"{where}: {got!r} differs from {want!r} by more than {atol}"]


def compare_golden(path, golden_path, atol: float) -> list[str]:
    if golden_path.endswith(".json"):
        with open(path) as fh, open(golden_path) as gh:
            return compare_json(json.load(fh), json.load(gh), atol)
    header, values = read_table(path)
    want_header, want_values = read_table(golden_path)
    if header != want_header:
        return [f"{path}: header differs from {golden_path}"]
    if not _within(values, want_values, atol):
        return [f"{path}: values differ from {golden_path} by more than {atol}"]
    return []


def digest_table(path) -> dict:
    header, values = read_table(path)
    n = len(values)
    if values.size <= FULL_VALUES:
        rows = range(n)
    else:
        rows = sorted(set(range(0, n, max(1, n // STRIDED_ROWS))) | {n - 1})
    ramp = np.linspace(0.0, 1.0, n)
    return {
        "header": header,
        "n_rows": n,
        "rows": {str(i): values[i].tolist() for i in rows},
        "sum": values.sum(axis=0).tolist(),
        "abs_sum": np.abs(values).sum(axis=0).tolist(),
        "ramp_sum": (ramp @ values).tolist(),
    }


def compare_digest(path, digest: dict, atol: float) -> list[str]:
    header, values = read_table(path)
    if header != digest["header"] or len(values) != digest["n_rows"]:
        return [f"{path}: header or row count differs from the reference"]
    problems = [f"{path}: row {i} differs from the reference by more than {atol}"
                for i, row in digest["rows"].items() if not _within(values[int(i)], row, atol)]
    sums_atol = atol * len(values)
    ramp = np.linspace(0.0, 1.0, len(values))
    for name, got in (("sum", values.sum(axis=0)), ("abs_sum", np.abs(values).sum(axis=0)),
                      ("ramp_sum", ramp @ values)):
        if not _within(got, digest[name], sums_atol):
            problems.append(f"{path}: column {name} differs from the reference by more than {sums_atol}")
    return problems


def stdout_values(cmd, stdout: str) -> list[float]:
    values = []
    for pattern in cmd.stdout:
        match = re.search(pattern, stdout)
        values.append(float(match.group(1)) if match else math.nan)
    return values


def make_ref(cmd, out_dir: str, stdout: str) -> dict:
    files = {}
    for rel in cmd.refs:
        path = os.path.join(out_dir, rel)
        if rel.endswith(".json"):
            with open(path) as fh:
                files[rel] = json.load(fh)
        else:
            files[rel] = digest_table(path)
    return {"files": files, "stdout": stdout_values(cmd, stdout)}


def check(cmd, out_dir: str, stdout: str, root: str, ref: dict | None) -> list[str]:
    """Problems with one command's outputs; an empty list means it passed."""
    problems = []
    for rel, golden in cmd.golden:
        path = os.path.join(out_dir, rel)
        if not os.path.isfile(path):
            problems.append(f"{cmd.label}: missing output {rel}")
            continue
        problems += compare_golden(path, os.path.join(root, golden), cmd.atol)
    if cmd.refs or cmd.stdout:
        if ref is None:
            return problems + [f"{cmd.label}: no committed reference"]
        for rel in cmd.refs:
            path = os.path.join(out_dir, rel)
            if not os.path.isfile(path):
                problems.append(f"{cmd.label}: missing output {rel}")
            elif rel.endswith(".json"):
                with open(path) as fh:
                    problems += compare_json(json.load(fh), ref["files"][rel], cmd.atol, rel)
            else:
                problems += compare_digest(path, ref["files"][rel], cmd.atol)
        if not _within(stdout_values(cmd, stdout), ref["stdout"], cmd.atol):
            problems.append(f"{cmd.label}: printed values differ from the reference")
    return problems
