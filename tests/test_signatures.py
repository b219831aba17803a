"""Which public functions of the package take a tolerance, and what each
public callable does with an argument of the wrong type.

classify reports one witness per verdict and alone compares each with tol,
so a tolerance parameter anywhere else would be a second copy of a
threshold rule.  This walks every public function of every lazystates
module with inspect.signature, in the spirit of test_imports.py.
"""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import lazystates
from lazystates.matcore import InvalidArgument
from lazystates.stateio import state_to_dict


def _public_functions():
    names = [m.name for m in pkgutil.iter_modules(lazystates.__path__, "lazystates.")]
    for module in [importlib.import_module(n) for n in names if n != "lazystates.__main__"]:
        for name, obj in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == module.__name__
            ):
                yield obj


def test_only_classify_takes_a_tolerance():
    tolerances = {
        (fn.__name__, param)
        for fn in _public_functions()
        for param in inspect.signature(fn).parameters
        if param.endswith("tol")
    }
    assert tolerances == {("classify", "tol")}


def _required_positionals(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except ValueError:  # an exception class built into CPython shows no signature
        return ["message"]
    positional = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
    return [p.name for p in params if p.default is p.empty and p.kind in positional]


@pytest.mark.parametrize("value", [None, "a"])
def test_a_wrong_argument_type_returns_or_raises_a_value_error(tmp_path, monkeypatch, value):
    # every callable in __all__, each required positional argument set to
    # value (save_state_file's path is a writable file): a result or a
    # ValueError subclass, never an AttributeError or a TypeError
    monkeypatch.chdir(tmp_path)
    escaped = []
    for name in lazystates.__all__:
        fn = getattr(lazystates, name)
        if not callable(fn):
            continue
        args = [
            str(tmp_path / "state.json") if (name, arg) == ("save_state_file", "path") else value
            for arg in _required_positionals(fn)
        ]
        try:
            fn(*args)
        except ValueError:
            pass
        except Exception as exc:  # any other class is what this test looks for
            escaped.append(f"{name}: {type(exc).__name__}: {exc}")
    assert escaped == []


def fano_params_x(value):
    return lazystates.FanoParams(value, np.zeros(3), np.zeros((3, 3)))


def fano_params_t(value):
    return lazystates.FanoParams(np.zeros(3), np.zeros(3), value)


def save_state_file_rho(value):
    return lazystates.save_state_file("state.json", value)


WRONG_TYPES = (None, "a")
# an array argument that does not convert to floats, or to as many as it
# must hold, is a wrong type too; an int beyond the float range overflows
WRONG_ARRAYS = (None, "a", [0.5] * 2, 10**400)
WRONG_TRIPLES = WRONG_ARRAYS + ([0.5] * 9,)
# a 4x4 argument that converts to an array of the wrong shape keeps the
# shape rule's own message, "expected a 4x4 matrix, got shape ()" for None
WRONG_MATRICES = ("a", 10**400)

# each names its call; a family check raises for the entry that called it
NAMED_WRONG_TYPES = [
    (
        lazystates.census_to_csv,
        InvalidArgument,
        "census_to_csv: report must be a CensusReport",
        WRONG_TYPES,
    ),
    (lazystates.slice_to_csv, InvalidArgument, "slice_to_csv: sl must be a SliceGrid", WRONG_TYPES),
    (
        lazystates.lazy_discordant_compose,
        InvalidArgument,
        "lazy_discordant_compose: q must be a LazyDiscordantParams",
        WRONG_TYPES,
    ),
    (
        lazystates.separable_compose,
        InvalidArgument,
        "separable_compose: s must be a SeparableFamilyParams",
        WRONG_TYPES,
    ),
    (
        lazystates.separable_classify,
        InvalidArgument,
        "separable_classify: s must be a SeparableFamilyParams",
        WRONG_TYPES,
    ),
    (
        lazystates.load_state_file,
        lazystates.StateFileError,
        "cannot read state file: ",
        WRONG_TYPES,
    ),
    (lazystates.bd_region, InvalidArgument, "bd_region: lam must hold 3 reals", WRONG_TRIPLES),
    (lazystates.bd_compose, InvalidArgument, "bd_compose: lam must hold 3 reals", WRONG_TRIPLES),
    (fano_params_x, InvalidArgument, "FanoParams: x must hold 3 reals", WRONG_TRIPLES),
    (fano_params_t, InvalidArgument, "FanoParams: t must hold 3x3 reals", WRONG_ARRAYS),
    (
        lazystates.classify,
        InvalidArgument,
        "classify: rho must be a 4x4 complex matrix",
        WRONG_MATRICES,
    ),
    (
        lazystates.decompose,
        InvalidArgument,
        "decompose: rho must be a 4x4 complex matrix",
        WRONG_MATRICES,
    ),
    (
        lazystates.laziness_dynamics_check,
        InvalidArgument,
        "laziness_dynamics_check: rho must be a 4x4 complex matrix",
        WRONG_MATRICES,
    ),
    (
        save_state_file_rho,
        InvalidArgument,
        "save_state_file: rho must be a 4x4 complex matrix",
        WRONG_MATRICES,
    ),
    (
        state_to_dict,
        InvalidArgument,
        "state_to_dict: rho must be a 4x4 complex matrix",
        WRONG_MATRICES,
    ),
]


@pytest.mark.parametrize(
    "fn,kind,prefix,values",
    NAMED_WRONG_TYPES,
    ids=[row[0].__name__ for row in NAMED_WRONG_TYPES],
)
def test_a_wrong_argument_type_names_the_call(tmp_path, monkeypatch, fn, kind, prefix, values):
    monkeypatch.chdir(tmp_path)
    for value in values:
        with pytest.raises(kind) as exc:
            fn(value)
        assert str(exc.value).startswith(prefix)
        if kind is InvalidArgument:
            assert str(exc.value) == f"{prefix} (got {value!r})"


@pytest.mark.parametrize(
    "fn",
    [row[0] for row in NAMED_WRONG_TYPES if row[3] is WRONG_MATRICES],
    ids=[row[0].__name__ for row in NAMED_WRONG_TYPES if row[3] is WRONG_MATRICES],
)
def test_none_for_a_matrix_keeps_the_shape_message(tmp_path, monkeypatch, fn):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError) as exc:
        fn(None)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "expected a 4x4 matrix, got shape ()"
