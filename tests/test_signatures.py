"""Which public functions of the package take a tolerance.

classify reports one witness per verdict and alone compares each with tol,
so a tolerance parameter anywhere else would be a second copy of a
threshold rule.  This walks every public function of every lazystates
module with inspect.signature, in the spirit of test_imports.py.
"""

import importlib
import inspect
import pkgutil

import lazystates


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


def test_only_classify_bd_region_and_the_dynamics_check_take_a_tolerance():
    tolerances = {
        (fn.__name__, param)
        for fn in _public_functions()
        for param in inspect.signature(fn).parameters
        if param.endswith("tol")
    }
    assert tolerances == {
        ("classify", "tol"),
        ("bd_region", "tol"),
        ("laziness_dynamics_check", "rate_tol"),
        ("laziness_dynamics_check", "nonzero_tol"),
    }
