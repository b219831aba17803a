import os

import numpy as np
import pytest

from lazystates.stateio import (
    StateFileError,
    load_state_file,
    save_state_file,
    state_from_dict,
    state_to_dict,
)

NAN_ENTRY = np.eye(4, dtype=complex) / 4.0
NAN_ENTRY[2, 3] = complex(np.nan, 0.0)


# the matrix is checked before the file is opened, so a file already there
# keeps its bytes: a 3x3 matrix used to leave it empty, a 5x5 one to save its
# top-left block, and NaN to write a token load_state_file rejects
@pytest.mark.parametrize(
    "bad,message",
    [
        (np.eye(3) / 3.0, "expected a 4x4 matrix, got shape (3, 3)"),
        (np.eye(5) / 5.0, "expected a 4x4 matrix, got shape (5, 5)"),
        (NAN_ENTRY, "save_state_file: input has non-finite entries"),
    ],
    ids=["3x3", "5x5", "nan"],
)
def test_a_bad_matrix_leaves_the_state_file_as_it_was(tmp_path, bad, message):
    path = tmp_path / "state.json"
    save_state_file(path, np.eye(4) / 4.0)
    before = path.read_bytes()
    with pytest.raises(ValueError) as exc:
        save_state_file(path, bad)
    assert str(exc.value) == message
    assert path.read_bytes() == before
    assert np.array_equal(load_state_file(path), np.eye(4) / 4.0)


# state_to_dict applies the same rules, naming itself: a 5x5 matrix used to
# give its top-left block, a 3x3 one an IndexError, and NaN a NaN entry
@pytest.mark.parametrize(
    "bad,message",
    [
        (np.eye(3) / 3.0, "expected a 4x4 matrix, got shape (3, 3)"),
        (np.eye(5) / 5.0, "expected a 4x4 matrix, got shape (5, 5)"),
        (NAN_ENTRY, "state_to_dict: input has non-finite entries"),
    ],
    ids=["3x3", "5x5", "nan"],
)
def test_state_to_dict_rejects_a_bad_matrix(bad, message):
    with pytest.raises(ValueError) as exc:
        state_to_dict(bad)
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


def test_state_to_dict_round_trips_a_state():
    rho = np.eye(4, dtype=complex) / 4.0
    rho[0, 1], rho[1, 0] = 0.1j, -0.1j
    assert np.array_equal(state_from_dict(state_to_dict(rho)), rho)


@pytest.mark.parametrize("action", ["read", "write"])
def test_a_file_descriptor_is_not_a_path_and_stays_open(tmp_path, action):
    # open() would take the int as a file descriptor, read or write through
    # it and close it: load_state_file(True) closed the process's stdout
    path = tmp_path / "state.json"
    save_state_file(path, np.eye(4) / 4.0)
    with open(path, "r+", encoding="utf-8") as fp:
        fd = fp.fileno()
        with pytest.raises(StateFileError) as exc:
            if action == "read":
                load_state_file(fd)
            else:
                save_state_file(fd, np.eye(4) / 4.0)
        assert str(exc.value) == f"cannot {action} state file: not a path: {fd!r}"
        os.fstat(fd)
