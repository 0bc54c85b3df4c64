"""Discrete memoryless MAC with two binary covert inputs and one finite input.

The channel is a pair of conditional probability matrices: ``gamma_y`` to the
legitimate receiver and ``gamma_z`` to the warden.  Rows are indexed by the
input triple (x1, x2, x3) in lexicographic order with x3 fastest, i.e. row
``x1*(2*x3_size) + x2*x3_size + x3``; ``_rows`` is the one place that layout
lives.  Input symbol 0 is the off-symbol for the two covert users.  A Dmc
made from arrays is checked as one read from a file is.
"""
from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

ROW_SUM_TOL_INTERNAL = 1e-12   # invariant after load
ROW_SUM_TOL_INPUT = 1e-9       # accepted slack in user-supplied files

SIDE_Y = "Y"
SIDE_Z = "Z"


class ChannelFormatError(ValueError):
    """Raised when a channel file fails to parse or validate."""


@dataclass(frozen=True)
class Dmc:
    """Validated, immutable channel pair, made from its matrices alone:
    they are checked as a channel file's are, and the sizes are read off
    them.  ``ac_violations`` lists the x3 symbols where the warden rows of
    the covert-on inputs put mass outside the support of the all-off row;
    the chi-square distance is infinite there, everything else still works.
    """

    gamma_y: np.ndarray
    gamma_z: np.ndarray
    x3_size: int = field(init=False)
    y_size: int = field(init=False)
    z_size: int = field(init=False)
    ac_violations: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        gy, gz = (np.array(m, dtype=float, order="C")
                  for m in (self.gamma_y, self.gamma_z))
        if not (gy.ndim == gz.ndim == 2 and len(gy) == len(gz) > 0
                and len(gy) % 4 == 0):
            raise ChannelFormatError(
                f"gamma_y and gamma_z must have the same 4 * x3_size rows, "
                f"got shapes {gy.shape} and {gz.shape}")
        for name, arr in (("gamma_y", gy), ("gamma_z", gz)):
            if not np.isfinite(arr).all():
                raise ChannelFormatError(f"{name}: non-finite entries")
            if np.any(arr < 0):
                raise ChannelFormatError(f"{name}: negative entries")
            sums = arr.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > ROW_SUM_TOL_INPUT)[0]
            if bad.size:
                raise ChannelFormatError(
                    f"{name}: row {bad[0]} sums to {sums[bad[0]]!r}, not 1 "
                    f"within {ROW_SUM_TOL_INPUT}")
            # renormalize only rows outside the internal tolerance; clean rows
            # stay bit-identical so load -> save -> load is the identity
            fix = np.abs(sums - 1.0) > ROW_SUM_TOL_INTERNAL
            arr[fix] = arr[fix] / sums[fix, None]
            arr.setflags(write=False)
        k = len(gy) // 4
        off, on1, on2 = (gz[_rows(k, *on, np.arange(k))]
                         for on in ((0, 0), (1, 0), (0, 1)))
        leak = (off == 0.0) & ((on1 > 0) | (on2 > 0))
        vars(self).update(      # frozen: set through the instance dict
            gamma_y=gy, gamma_z=gz, x3_size=k, y_size=gy.shape[1],
            z_size=gz.shape[1],
            ac_violations=tuple(np.flatnonzero(leak.any(axis=1)).tolist()))

    @property
    def n_rows(self) -> int:
        return 4 * self.x3_size

    def row_index(self, x1: int, x2: int, x3: int) -> int:
        if x1 not in (0, 1) or x2 not in (0, 1):
            raise IndexError(f"covert inputs must be bits, got ({x1}, {x2})")
        if not 0 <= x3 < self.x3_size:
            raise IndexError(f"x3={x3} out of range [0, {self.x3_size})")
        return int(_rows(self.x3_size, x1, x2, x3))

    def row(self, side: str, x1: int, x2: int, x3: int) -> np.ndarray:
        """Conditional output distribution for one input triple."""
        idx = self.row_index(x1, x2, x3)
        if side == SIDE_Y:
            return self.gamma_y[idx]
        if side == SIDE_Z:
            return self.gamma_z[idx]
        raise ValueError(f"side must be {SIDE_Y!r} or {SIDE_Z!r}, got {side!r}")

    def to_dict(self) -> dict:
        return {
            "x3_size": self.x3_size,
            "y_size": self.y_size,
            "z_size": self.z_size,
            "gamma_y": [[float(v) for v in r] for r in self.gamma_y],
            "gamma_z": [[float(v) for v in r] for r in self.gamma_z],
        }

    def canonical_json(self) -> str:
        # repr-based float serialization keeps load -> save -> load bit-exact
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()[:16]


def _rows(x3_size: int, x1, x2, x3):
    """Matrix row of each input triple, (2 x1 + x2) x3_size + x3, formed in
    intp by both ufuncs whatever the inputs' integer dtype; no checks."""
    return np.add(np.multiply(2 * x1 + x2, x3_size, dtype=np.intp), x3,
                  dtype=np.intp)


def _cached(d: Dmc, key: str, build, *args):
    """build(d, *args), made on the first call and kept on d under key."""
    if key not in d.__dict__:
        object.__setattr__(d, key, build(d, *args))
    return d.__dict__[key]


def _validate_matrix(name: str, mat, n_rows: int, n_cols: int) -> list:
    """mat, once it is a list of n_rows rows of n_cols JSON numbers."""
    # np.asarray would read the string "0.28" as 0.28 and true as 1.0
    if not (isinstance(mat, list) and all(
            isinstance(r, list) and all(map(_is_number, r)) for r in mat)):
        raise ChannelFormatError(
            f"{name} must be a list of rows of JSON numbers")
    if len(mat) != n_rows or any(len(r) != n_cols for r in mat):
        raise ChannelFormatError(
            f"{name}: expected shape ({n_rows}, {n_cols}), got row lengths "
            f"{[len(r) for r in mat]}")
    return mat


def _is_number(v) -> bool:
    """A JSON number that a float holds: a float, or an int (not a bool)
    no larger in size than the largest float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    return isinstance(v, float) or abs(v) <= sys.float_info.max  # exact test


def from_dict(doc: dict) -> Dmc:
    """The channel of a JSON document; its sizes must be JSON integers and
    its matrices lists of lists of JSON numbers."""
    for key in ("x3_size", "y_size", "z_size"):
        if key not in doc:
            raise ChannelFormatError(f"missing size field {key}")
        if type(doc[key]) is not int:   # not a bool, float or string
            raise ChannelFormatError(
                f"{key} must be an integer, got {doc[key]!r}")
    x3_size, y_size, z_size = doc["x3_size"], doc["y_size"], doc["z_size"]
    if x3_size < 1 or y_size < 1 or z_size < 1:
        raise ChannelFormatError("sizes must be positive")
    n_rows = 4 * x3_size
    return Dmc(_validate_matrix("gamma_y", doc.get("gamma_y"), n_rows, y_size),
               _validate_matrix("gamma_z", doc.get("gamma_z"), n_rows, z_size))


def load_channel(path) -> Dmc:
    """Load and validate a channel file (JSON with the documented fields)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ChannelFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ChannelFormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ChannelFormatError(f"{path}: top level must be an object")
    return from_dict(doc)


def save_channel(d: Dmc, path) -> None:
    with open(path, "w") as f:
        f.write(json.dumps(d.to_dict(), indent=1))
        f.write("\n")


def paper_channel() -> Dmc:
    """The six-output example channel shipped with the package."""
    text = resources.files("covertmac.data").joinpath("paper_channel.json").read_text()
    return from_dict(json.loads(text))
