import numpy as np
import pytest

from lazystates.stateio import load_state_file, save_state_file

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
