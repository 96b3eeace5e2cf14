"""CSV snapshots and profile comparison.

The interchange format is plain ASCII CSV: a header row, comma separators,
values printed with 17 significant digits so identical runs produce
byte-identical files.  Snapshot columns are

    x, rho, u1, theta, sigma11, q1 [, g0_0, g0_1, ... one column g<a>_<k> per
                                    axisymmetric coefficient with a + 2k <= M]
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .state import sigma11_q1


def write_columns(path, columns: dict[str, np.ndarray]) -> None:
    """Named columns as CSV with CRLF line ends, as the csv module writes them."""
    data = np.column_stack([np.asarray(c, dtype=float) for c in columns.values()])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", newline="\r\n",
               header=",".join(columns), comments="", encoding="ascii")


def snapshot_columns(state, dump_coeffs: bool = False) -> dict[str, np.ndarray]:
    """Snapshot of a moment SimState (solver) as named columns."""
    sig11, q1 = sigma11_q1(state.layout, state.coeffs)
    cols = {
        "x": state.x, "rho": state.rho, "u1": state.u[:, 0],
        "theta": state.theta, "sigma11": sig11, "q1": q1,
    }
    if dump_coeffs:
        for a, k in zip(*np.nonzero(state.layout.mask)):
            cols[f"g{a}_{k}"] = state.coeffs[a, k]
    return cols


def write_snapshot(path, state, dump_coeffs: bool = False) -> None:
    write_columns(path, snapshot_columns(state, dump_coeffs))


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a CSV file by header name.  ValueError when it has no data
    rows, or naming the file and line of a row whose value count differs
    from the header's or that holds a value that is not a number."""
    rows = []
    with open(path, "r", encoding="ascii", newline="") as fh:
        reader = csv.reader(fh)
        names = next(reader, [])
        for row in filter(None, reader):
            where = f"{path}, line {reader.line_num}"
            if len(row) != len(names):
                raise ValueError(f"{where}: {len(row)} values under {len(names)} "
                                 "column names")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} has no data rows")
    data = np.asarray(rows)
    return {name: data[:, j] for j, name in enumerate(names)}


@dataclass
class ComparisonReport:
    column: str
    l1_rel: float
    linf: float
    n_points: int

    def __str__(self) -> str:
        return (f"{self.column}: L1(rel) = {self.l1_rel:.6g}, "
                f"Linf = {self.linf:.6g} over {self.n_points} points")


def _center_offset(x: np.ndarray, y: np.ndarray, level: float = 0.5) -> float:
    """x where the monotone-trend profile crosses ``level`` (interpolated).

    t = (y - y_0)/(y_end - y_0) runs from 0 to 1 whether y rises or falls.
    """
    t = (y - y[0]) / (y[-1] - y[0])
    k = int(np.argmax(t >= level))
    if k == 0:
        return float(x[0])
    t0, t1 = t[k - 1], t[k]
    w = (level - t0) / (t1 - t0) if t1 != t0 else 0.0
    return float(x[k - 1] + w * (x[k] - x[k - 1]))


def _nested_restriction(xa, xb, yb):
    """Cell-average yb onto xa when xb is an aligned integer refinement.

    Finite-volume data are cell means, so a fine reference is compared by
    averaging its cells into the coarse cells, not by point interpolation.
    Returns None when the grids do not nest.
    """
    if xb.size % xa.size != 0 or xb.size == xa.size:
        return None
    m = xb.size // xa.size
    blocks = xb.reshape(xa.size, m).mean(axis=1)
    dxa = xa[1] - xa[0] if xa.size > 1 else 1.0
    if np.abs(blocks - xa).max() > 1e-9 * abs(dxa):
        return None
    return yb.reshape(xa.size, m).mean(axis=1)


def compare_profiles(xa, ya, xb, yb, column: str = "value",
                     normalize: bool = False, align_center: bool = False,
                     names=("a", "b")) -> ComparisonReport:
    """Error norms of profile a against reference profile b.

    When b lives on an aligned integer refinement of a's grid it is restricted
    by cell averaging; otherwise it is interpolated linearly onto a's grid
    (restricted to the overlap).  ``normalize`` maps both profiles affinely so
    their end values go to 0 and 1; ``align_center`` shifts each x-axis so the
    half-level crossing sits at the origin before comparing (steady shocks are
    translation-invariant).  Both read the level from the end values, and
    raise ValueError for a profile whose two end values are equal.  A
    non-finite or not strictly increasing x, or a non-finite value, raises
    ValueError naming the profile (``names``, the files of ``compare_files``) and the column.
    """
    xa = np.asarray(xa, dtype=float)
    ya = np.asarray(ya, dtype=float)
    xb = np.asarray(xb, dtype=float)
    yb = np.asarray(yb, dtype=float)
    for name, x, y in zip(names, (xa, xb), (ya, yb)):
        for col, values in (("x", x), (column, y)):
            if not np.isfinite(values).all():
                row = int(np.argmin(np.isfinite(values)))
                raise ValueError(f"{name}: column {col!r} is not finite at row {row}")
        if not (np.diff(x) > 0.0).all():
            row = 1 + int(np.argmin(np.diff(x) > 0.0))
            raise ValueError(f"{name}: column 'x' is not strictly increasing at row {row}")
    if normalize or align_center:
        for y in (ya, yb):
            if y[-1] == y[0]:
                what = "normalize" if normalize else "align the center of"
                raise ValueError(f"cannot {what} {column!r}: both end values are "
                                 f"{y[0]:.17g}")
    if normalize:
        ya = (ya - ya[0]) / (ya[-1] - ya[0])
        yb = (yb - yb[0]) / (yb[-1] - yb[0])
    if align_center:
        xa = xa - _center_offset(xa, ya)
        xb = xb - _center_offset(xb, yb)
    else:
        restricted = _nested_restriction(xa, xb, yb)
        if restricted is not None:
            scale = np.abs(restricted).sum()
            diff = np.abs(ya - restricted)
            l1 = diff.sum() / scale if scale > 0 else diff.sum()
            return ComparisonReport(column=column, l1_rel=float(l1),
                                    linf=float(diff.max()), n_points=xa.size)
    lo = max(xa[0], xb[0])
    hi = min(xa[-1], xb[-1])
    keep = (xa >= lo) & (xa <= hi)
    if not keep.any():
        raise ValueError("profiles do not overlap")
    x = xa[keep]
    a = ya[keep]
    b = np.interp(x, xb, yb)
    scale = np.abs(b).sum()
    l1 = np.abs(a - b).sum() / scale if scale > 0 else np.abs(a - b).sum()
    return ComparisonReport(column=column, l1_rel=float(l1),
                            linf=float(np.abs(a - b).max()), n_points=int(keep.sum()))


def compare_files(path_a, path_b, column: str, normalize: bool = False,
                  align_center: bool = False) -> ComparisonReport:
    a = read_csv(path_a)
    b = read_csv(path_b)
    for data, path in ((a, path_a), (b, path_b)):
        if column not in data or "x" not in data:
            raise ValueError(f"{path} has no column {column!r} (columns: {list(data)})")
    return compare_profiles(a["x"], a[column], b["x"], b[column], column=column,
                            normalize=normalize, align_center=align_center,
                            names=(path_a, path_b))
