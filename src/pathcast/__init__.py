"""pathcast: empirical radio path-loss models (SUI, Okumura, COST-231 Hata,
COST-231 Walfisch-Ikegami, Ericsson 9999) with curve tables, scenario sweeps,
reference comparison and cell-range inversion."""

from .curves import (
    CurveTable,
    amu_lookup,
    garea_lookup,
    load_curves,
    load_default_curves,
)
from .errors import (
    BoundsError,
    CurveLookupError,
    CurveParseError,
    DomainError,
    PathcastError,
)
from .propagation import (
    LIGHT_SPEED_M_S,
    Environment,
    EricssonCoefficients,
    FidelityMode,
    PathLossResult,
    RadioLink,
    WiGeometry,
    cost231_hata,
    ericsson,
    okumura,
    sui,
    wi_los,
    wi_nlos,
)
from .scenario import (
    DiscrepancyLedger,
    LedgerEntry,
    ModelId,
    ReferenceRow,
    Scenario,
    bind,
    compare_against_reference,
    default_scenario,
    evaluate,
    invert_cell_range,
    load_reference_rows,
    sweep,
)

__version__ = "0.1.0"
