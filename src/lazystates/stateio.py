"""JSON state files.

A state file holds exactly one of two keys:

    {"matrix": [[[re, im], ...4 entries...], ...4 rows...]}
    {"fano": {"x": [3 reals], "y": [3 reals], "T": [[3x3 reals]]}}

The matrix form is entry-by-entry [re, im] pairs so fixtures stay hand
auditable.  A path that is not a str, bytes or os.PathLike (open() would
take an int as a file descriptor), unreadable or unwritable files,
structural problems and non-finite numbers raise StateFileError;
physicality is the caller's concern.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .fano import FanoParams, compose
from .matcore import _as_4x4, _is_real, _require_finite


class StateFileError(ValueError):
    """The file cannot be read or written, or breaks the state-file schema."""


def _require_path(path, action):
    # open() takes an int, a bool included, as a file descriptor and closes it
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise StateFileError(f"cannot {action} state file: not a path: {path!r}")


def _real_array(node, shape, what):
    arr = np.asarray(node, dtype=object)
    if arr.shape != shape:
        raise StateFileError(f"{what} must have shape {shape}, got {arr.shape}")
    flat = arr.reshape(-1)
    if not all(_is_real(v) for v in flat):
        raise StateFileError(f"{what} must contain only real numbers")
    try:
        arr = np.asarray(node, dtype=float)
        finite = bool(np.all(np.isfinite(arr)))
    except OverflowError:  # a JSON integer beyond the float range
        finite = False
    if not finite:
        raise StateFileError(f"{what} must contain only finite numbers")
    return arr


def state_from_dict(doc) -> np.ndarray:
    if not isinstance(doc, dict):
        raise StateFileError("state file must be a JSON object")
    keys = set(doc)
    if keys == {"matrix"}:
        pairs = _real_array(doc["matrix"], (4, 4, 2), '"matrix"')
        return pairs[:, :, 0] + 1j * pairs[:, :, 1]
    if keys == {"fano"}:
        fano = doc["fano"]
        if not isinstance(fano, dict) or set(fano) != {"x", "y", "T"}:
            raise StateFileError('"fano" must be an object with keys x, y, T')
        return compose(
            FanoParams(
                x=_real_array(fano["x"], (3,), '"x"'),
                y=_real_array(fano["y"], (3,), '"y"'),
                t=_real_array(fano["T"], (3, 3), '"T"'),
            )
        )
    raise StateFileError('state file must contain exactly one of "matrix" or "fano"')


def load_state_file(path) -> np.ndarray:
    _require_path(path, "read")
    try:
        with open(path, "r", encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise StateFileError(f"cannot read state file: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise StateFileError(f"state file is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StateFileError(f"invalid JSON in state file: {exc}") from exc
    except RecursionError as exc:
        raise StateFileError("state file nests too deeply to parse") from exc
    return state_from_dict(doc)


def _matrix_doc(rho, who) -> dict:
    # the 4x4 and finiteness rules, naming the public call `who`
    rho = _as_4x4(rho, who)
    _require_finite(rho, who)
    return {"matrix": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}


def state_to_dict(rho) -> dict:
    """The matrix state-file object of a finite 4x4 rho; any other shape or a
    non-finite entry raises ValueError."""
    return _matrix_doc(rho, "state_to_dict")


def save_state_file(path, rho) -> None:
    """Write rho as a matrix state file; rho is checked before the file is opened."""
    doc = _matrix_doc(rho, "save_state_file")
    _require_path(path, "write")
    try:
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, sort_keys=True, indent=2)
            fp.write("\n")
    except OSError as exc:
        raise StateFileError(f"cannot write state file: {exc}") from exc
