"""Which public functions of the package take a tolerance, and what each
public callable does with an argument of the wrong type.

classify reports one witness per verdict and alone compares each with tol,
so a tolerance parameter anywhere else would be a second copy of a
threshold rule.  This walks every public function of every lazystates
module with inspect.signature, in the spirit of test_imports.py.
"""

import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lazystates
from lazystates.belldiag import MAX_WORKERS
from lazystates.matcore import InvalidArgument
from lazystates.stateio import state_to_dict
from sampling import ginibre_state, random_lazy_discordant_params, random_separable_params

FIXTURES = Path(__file__).parent / "fixtures"


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
# must hold, is a wrong type too; an int beyond the float range overflows,
# and a complex number is not real
WRONG_ARRAYS = (None, "a", [0.5] * 2, 10**400)
WRONG_TRIPLES = WRONG_ARRAYS + ([0.5] * 9, np.full(3, 0.5j))
# a 4x4 argument that converts to an array of the wrong shape keeps the
# shape rule's own message, "expected a 4x4 matrix, got shape ()" for None
WRONG_MATRICES = ("a", 10**400)
# numpy would parse a string and read a bool as 0 or 1, as an element of a
# list or as an array's dtype; no scalar argument and no state file takes either
STRING_OR_BOOL_TRIPLES = (
    ["0.5", "0", "0"],
    [b"0.5", 0.0, 0.0],
    [True, False, False],
    [True, 0.5, 0.0],
    [np.bool_(True), 0.5, 0.0],
    [np.array("0.5"), 0.0, 0.0],
    np.array(["0.5", "0", "0"]),
    np.array([True, False, False]),
)
STRING_OR_BOOL_3X3 = ([["0.5"] * 3] * 3, [[True, 0.5, 0.0]] * 3, np.eye(3, dtype=bool))
STRING_OR_BOOL_MATRICES = (
    [["0.25"] * 4] * 4,
    np.full((4, 4), "0.25"),
    [[True, 0.25, 0.0, 0.0]] * 4,
    np.eye(4, dtype=bool),
)

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


# each array argument again, with string and bool elements
STRING_OR_BOOL_ROWS = [
    (
        fn,
        kind,
        prefix,
        STRING_OR_BOOL_3X3 if fn is fano_params_t
        else STRING_OR_BOOL_MATRICES if values is WRONG_MATRICES
        else STRING_OR_BOOL_TRIPLES,
    )
    for fn, kind, prefix, values in NAMED_WRONG_TYPES
    if values is not WRONG_TYPES
]


@pytest.mark.parametrize(
    "fn,kind,prefix,values",
    NAMED_WRONG_TYPES + STRING_OR_BOOL_ROWS,
    ids=[row[0].__name__ for row in NAMED_WRONG_TYPES]
    + [f"{row[0].__name__}-string_or_bool" for row in STRING_OR_BOOL_ROWS],
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


# The contract fuzz: every callable in __all__, each argument drawn from
# valid values (and a few just outside) or from the values a caller gets
# wrong.  A size is small when it is valid, and never a huge int, which the
# call would start to work on
HUGE = 10**400
WRONG_SHAPES = (np.zeros(2), np.eye(3), np.eye(5), np.zeros((4, 4, 1)), [[0.5, 0.5], [0.5]])
WRONG_SCALARS = (
    None, "a", "", True, False, math.nan, math.inf, -math.inf, -HUGE,
    np.float64(math.nan), np.float32(0.5), np.int64(-1), np.bool_(True), np.complex128(1j),
)
any_wrong = st.sampled_from(WRONG_SCALARS + WRONG_SHAPES + (HUGE,))
wrong_size = st.sampled_from(WRONG_SCALARS + WRONG_SHAPES + (0, -1))
unit = st.floats(-1.0, 1.0)
unit_triple = st.lists(unit, min_size=3, max_size=3)
_rng = np.random.default_rng(14)
STATES = (
    np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0,
    np.eye(4) / 4.0,
    np.eye(4, dtype=int),
    ginibre_state(_rng),
    ginibre_state(_rng) + 1e-11j * np.eye(4)[::-1],
    np.full((4, 4), 1e200),
    np.full((4, 4), math.nan),
    (np.eye(4) / 4.0).tolist(),
)
VALID = {
    "rho": st.sampled_from(STATES),
    "tol": st.one_of(st.floats(1e-12, 0.5), st.floats()),
    "lam": st.one_of(unit_triple, st.lists(st.floats(), min_size=3, max_size=3)),
    "samples": st.integers(1, 1000),
    "seed": st.integers(0, 2**64),
    "workers": st.sampled_from([1, 2, MAX_WORKERS + 1]),
    "axis": st.integers(0, 4),
    "value": st.one_of(unit, st.floats()),
    "grid": st.integers(2, 50),
    "n_hamiltonians": st.integers(1, 20),
    "step": st.one_of(st.floats(1e-6, 1e-3), st.floats()),
    "q": st.one_of(
        st.builds(lambda seed: random_lazy_discordant_params(np.random.default_rng(seed)),
                  st.integers(0, 99)),
        st.builds(lazystates.LazyDiscordantParams, *[st.one_of(unit, any_wrong)] * 3),
    ),
    "s": st.one_of(
        st.builds(lambda seed: random_separable_params(np.random.default_rng(seed)),
                  st.integers(0, 99)),
        st.builds(lazystates.SeparableFamilyParams, *[st.one_of(st.floats(0, 3.2), any_wrong)] * 5),
    ),
    "x": unit_triple,
    "y": unit_triple,
    "t": st.lists(unit_triple, min_size=3, max_size=3),
    "p": st.builds(
        lazystates.FanoParams, unit_triple, unit_triple,
        st.lists(unit_triple, min_size=3, max_size=3),
    ),
    "report": st.just(lazystates.bd_census(10, 0)),
    "sl": st.just(lazystates.bd_slice(1, 0.0, 3)),
}
# the arguments that set how much work a call does
SIZES = ("samples", "grid", "n_hamiltonians")


def _argument(name, fn, tmp_path):
    if fn is lazystates.load_state_file:
        fixtures = sorted(FIXTURES.glob("*.json")) + [tmp_path / "missing.json", tmp_path]
        valid = st.sampled_from([str(f) for f in fixtures])
    elif fn is lazystates.save_state_file and name == "path":
        valid = st.sampled_from([str(tmp_path / "state.json"), str(tmp_path)])
    else:
        valid = VALID.get(name, st.nothing())
    return st.one_of(valid, wrong_size if name in SIZES else any_wrong)


@settings(max_examples=15, suppress_health_check=[HealthCheck.function_scoped_fixture],
          derandomize=True, database=None, deadline=None)
@given(data=st.data())
def test_every_public_call_returns_or_raises_a_value_error(tmp_path, monkeypatch, data):
    # each example calls every callable once; an optional argument is passed
    # or left at its default, and an exception class takes any message.  A
    # path drawn as a wrong value, such as "a", is written under tmp_path
    monkeypatch.chdir(tmp_path)
    for name in lazystates.__all__:
        fn = getattr(lazystates, name)
        if isinstance(fn, type) and issubclass(fn, Exception):
            fn(data.draw(any_wrong, label=name))
        elif callable(fn):
            kwargs = {
                p.name: data.draw(_argument(p.name, fn, tmp_path), label=f"{name}: {p.name}")
                for p in inspect.signature(fn).parameters.values()
                if p.default is p.empty or data.draw(st.booleans(), label=f"{name}: {p.name}?")
            }
            try:
                fn(**kwargs)
            except ValueError:
                pass
