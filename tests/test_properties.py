"""Property tests: the CLI's exit-code contract under arbitrary input, and
local-unitary invariance of every verdict under drawn unitaries.

Runs are derandomized and keep no example database, so the suite is
reproducible and leaves nothing behind.
"""

import contextlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lazystates import cli
from lazystates.belldiag import bd_compose
from lazystates.classify import classify
from lazystates.families import lazy_discordant_compose
from lazystates.matcore import kron
from lazystates.stateio import state_from_dict
from lazystates.sampling import (
    ginibre_state,
    random_bell_diagonal_point,
    random_lazy_discordant_params,
    random_product_state,
)

PROPERTY_SETTINGS = dict(derandomize=True, database=None, deadline=None)
FIELDS = ("physical", "pure", "product", "zero_discord_a", "lazy_a", "separable")

any_float = st.floats(allow_nan=True, allow_infinity=True)
json_number = st.one_of(
    any_float,
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
)
json_leaf = st.one_of(st.none(), st.booleans(), json_number, st.text(max_size=5))
json_value = st.recursive(
    json_leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
    ),
    max_leaves=40,
)


def _nested(shape, leaf):
    if not shape:
        return leaf
    return st.lists(_nested(shape[1:], leaf), min_size=shape[0], max_size=shape[0])


# mostly near-schema documents, so the numeric paths are reached, plus
# arbitrary JSON and wrong keys
matrix_doc = st.builds(
    lambda m: {"matrix": m},
    _nested((4, 4, 2), st.one_of(any_float, st.floats(-1.0, 1.0), json_number)),
)
fano_doc = st.builds(
    lambda x, y, t: {"fano": {"x": x, "y": y, "T": t}},
    _nested((3,), st.floats(-1.0, 1.0)),
    _nested((3,), json_number),
    _nested((3, 3), st.one_of(st.floats(-1.0, 1.0), any_float)),
)
state_doc = st.one_of(
    matrix_doc,
    fano_doc,
    st.dictionaries(st.sampled_from(["matrix", "fano", "Matrix", "T"]), json_value,
                    max_size=2),
    json_value,
)

# flag text: numbers of every kind, plus free text (digits excluded, so no
# string parses to a huge sample or coupling count)
flag_text = st.one_of(
    any_float.map(repr),
    st.integers(-3, 10**30).map(str),
    st.text(alphabet=st.characters(exclude_categories=("Nd", "Cs")), max_size=6),
)
small_count = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["", "x", "1.5"]))


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def cli_argv(draw, state_path):
    command = draw(st.sampled_from(
        ["classify", "normal-form", "dynamics-check", "bd", "family-ld", "family-sep"]
    ))
    if command == "classify":
        return ["classify", state_path] + draw(_optional("--tol", flag_text))
    if command == "normal-form":
        return ["normal-form", state_path]
    if command == "dynamics-check":
        argv = ["dynamics-check", state_path, "--hamiltonians", draw(small_count)]
        for flag in ("--seed", "--step", "--rate-tol", "--nonzero-tol"):
            argv += draw(_optional(flag, flag_text))
        return argv
    if command == "bd":
        lam = draw(st.one_of(
            st.lists(flag_text, min_size=3, max_size=3).map(",".join), flag_text
        ))
        return ["bd", "classify", "--lambda", lam] + draw(_optional("--tol", flag_text))
    if command == "family-ld":
        return ["family", "lazy-discordant", "--y1", draw(flag_text),
                "--l2", draw(flag_text), "--l3", draw(flag_text)]
    argv = ["family", "separable"]
    for flag in ("--p", "--alpha", "--beta", "--a", "--b"):
        argv += [flag, draw(flag_text)]
    return argv


def _run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


# a numpy warning on stderr would break the one-line message promise
@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture],
          **PROPERTY_SETTINGS)
@given(doc=state_doc, data=st.data())
def test_cli_exits_with_a_documented_code(monkeypatch, doc, data):
    # the document is parsed from its JSON text as load_state_file would,
    # without a file per example; test_cli covers reading real files
    text = json.dumps(doc)
    monkeypatch.setattr(cli, "load_state_file", lambda path: state_from_dict(json.loads(text)))
    argv = data.draw(cli_argv("state.json"))
    assert _run_main(argv) in (0, 1, 2, 3)


def _qubit_unitary(theta, phi, lam):
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return np.array(
        [[c, -np.exp(1j * lam) * s], [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]]
    )


_KINDS = {
    "ginibre": ginibre_state,
    "product": random_product_state,
    "bell_diagonal": lambda rng: bd_compose(random_bell_diagonal_point(rng)),
    "lazy_discordant": lambda rng: lazy_discordant_compose(
        random_lazy_discordant_params(rng)
    ),
}
angle = st.floats(0.0, 2.0 * math.pi)


@settings(max_examples=150, **PROPERTY_SETTINGS)
@given(
    kind=st.sampled_from(sorted(_KINDS)),
    seed=st.integers(0, 2**32 - 1),
    angles=st.tuples(*[angle] * 6),
)
def test_verdicts_invariant_under_local_unitaries(kind, seed, angles):
    rho = _KINDS[kind](np.random.default_rng(seed))
    u = kron(_qubit_unitary(*angles[:3]), _qubit_unitary(*angles[3:]))
    a, b = classify(rho), classify(u @ rho @ u.conj().T)
    assert [getattr(a, f) for f in FIELDS] == [getattr(b, f) for f in FIELDS]
