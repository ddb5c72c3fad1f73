"""The README's Python examples run against the current API, and the API is
the public surface the README lists."""

import re
import types
from pathlib import Path

import pytest

import pathcast

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = sorted([
    # models: the binders and their inputs and results
    "sui", "okumura", "cost231_hata", "wi_los", "wi_nlos", "ericsson",
    "RadioLink", "WiGeometry", "EricssonCoefficients", "Environment", "FidelityMode",
    "PathLossResult", "LIGHT_SPEED_M_S",
    # scenarios, sweeps, inversion and the reference comparison
    "ModelId", "Scenario", "default_scenario", "bind", "evaluate",
    "invert_cell_range", "compare_against_reference", "load_reference_rows",
    "ReferenceRow", "LedgerEntry", "DiscrepancyLedger",
    # curve tables
    "CurveTable", "load_curves", "load_default_curves", "garea_lookup",
    # errors
    "PathcastError", "DomainError", "BoundsError", "CurveLookupError", "CurveParseError",
])


def test_python_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text("utf-8"), re.S | re.M)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert "distance 150 km above grid maximum 100 km" in capsys.readouterr().out


def test_public_names_are_the_listed_surface():
    """pathcast resolves its names on first access, so the surface is what
    __all__, dir() and getattr give, not what the module has loaded yet."""
    assert pathcast.__all__ == PUBLIC_NAMES
    names = sorted(name for name in dir(pathcast) if not name.startswith("_")
                   and not isinstance(getattr(pathcast, name), types.ModuleType))
    assert names == PUBLIC_NAMES
    star = {}
    exec("from pathcast import *", star)
    assert sorted(name for name in star if name != "__builtins__") == PUBLIC_NAMES
    with pytest.raises(AttributeError, match="has no attribute 'Reference'"):
        pathcast.Reference
    library = README.read_text("utf-8").split("\n## Library\n", 1)[1]
    assert [name for name in PUBLIC_NAMES if f"`{name}`" not in library] == []
