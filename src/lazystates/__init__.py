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
    bd_spectrum,
    census_to_csv,
    slice_to_csv,
)
from .classify import (
    DEFAULT_TOL,
    Classification,
    ConsistencyError,
    classify,
    is_product,
    lazy_by_commutator,
    lazy_by_parallelism,
    pure_schmidt,
    separable_ppt,
    zero_discord_a,
)
from .dynamics import DynamicsCheckReport, laziness_dynamics_check
from .families import (
    LazyDiscordantParams,
    SeparableFamilyParams,
    lazy_discordant_compose,
    lazy_discordant_spectrum,
    separable_classify,
    separable_compose,
    separable_fano,
)
from .fano import FanoParams, NormalForm, PhysicalityReport, compose, decompose, normal_form, validate
from .stateio import StateFileError, load_state_file, save_state_file

# every name imported above is public, and nothing else
__all__ = ["__version__"] + [
    name for name, value in globals().items()
    if not (name.startswith("_") or isinstance(value, _ModuleType))
]
