"""pathcast: empirical radio path-loss models (SUI, Okumura, COST-231 Hata,
COST-231 Walfisch-Ikegami, Ericsson 9999) with curve tables, scenario sweeps,
reference comparison and cell-range inversion.

Every public name is imported from its module on first access (PEP 562), so
that ``import pathcast`` loads nothing a caller does not read: the curve
table and the reference comparison load only when asked for.
"""

__version__ = "0.1.0"

# Public name -> the module that defines it.
_HOMES = {
    **dict.fromkeys(("CurveTable", "garea_lookup", "load_curves", "load_default_curves",
                     "okumura"), "curves"),
    **dict.fromkeys(("BoundsError", "CurveLookupError", "CurveParseError", "DomainError",
                     "PathcastError"), "errors"),
    **dict.fromkeys(("LIGHT_SPEED_M_S", "Environment", "EricssonCoefficients",
                     "FidelityMode", "PathLossResult", "RadioLink", "WiGeometry",
                     "cost231_hata", "ericsson", "sui", "wi_los", "wi_nlos"), "propagation"),
    **dict.fromkeys(("ModelId", "Scenario", "bind", "default_scenario", "evaluate",
                     "invert_cell_range"), "scenario"),
    **dict.fromkeys(("DiscrepancyLedger", "LedgerEntry", "ReferenceRow",
                     "compare_against_reference", "load_reference_rows"), "reference"),
}
_SUBMODULES = frozenset(_HOMES.values())

__all__ = sorted(_HOMES)


def __getattr__(name):
    from importlib import import_module
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
