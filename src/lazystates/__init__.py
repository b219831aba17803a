"""2-qubit laziness / discord / entanglement hierarchy toolkit."""

from types import ModuleType as _ModuleType

from ._version import __version__
from .belldiag import (
    REGION_LABELS,
    CensusReport,
    SliceGrid,
    bd_census,
    bd_compose,
    bd_region,
    bd_slice,
    census_to_csv,
    slice_to_csv,
)
from .classify import DEFAULT_TOL, Classification, ConsistencyError, classify
from .dynamics import DynamicsCheckReport, laziness_dynamics_check
from .families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    lazy_discordant_compose,
    separable_classify,
    separable_compose,
)
from .fano import FanoParams, NormalForm, compose, decompose, normal_form
from .stateio import StateFileError, load_state_file, save_state_file

# every name imported above is public, and nothing else
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
