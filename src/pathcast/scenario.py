"""Scenario binding, model dispatch, distance sweeps, reference comparison and
cell-range inversion.

A Scenario is one fully-bound evaluation context.  Defaults reproduce the
simulation parameters of the embedded comparison: 1900/2100 MHz, 5 km, BS
30/80 m, receiver 3 m, street width 25 m, building separation 50 m, roof
height 15 m, orientation 30 deg urban / 40 deg suburban, shadow margin
10.6 dB urban / 8.2 dB suburban and rural (carried but only applied on
explicit request).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional

from .curves import CurveTable
from .errors import BoundsError, DomainError, PathcastError
from .propagation import (
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


class ModelId(Enum):
    SUI = "sui"
    OKUMURA = "okumura"
    COST231_HATA = "cost231_hata"
    WALFISCH_IKEGAMI = "walfisch_ikegami"
    ERICSSON9999 = "ericsson9999"


DEFAULT_SHADOW_MARGIN_DB = {
    Environment.URBAN: 10.6,
    Environment.SUBURBAN: 8.2,
    Environment.RURAL: 8.2,
}
DEFAULT_ORIENTATION_DEG = {
    Environment.URBAN: 30.0,
    Environment.SUBURBAN: 40.0,
    Environment.RURAL: 40.0,
}
DEFAULT_METRO_K = {
    Environment.URBAN: 1.5,
    Environment.SUBURBAN: 0.7,
    Environment.RURAL: 0.7,
}


@dataclass(frozen=True)
class Scenario:
    link: RadioLink
    environment: Environment
    wi_geometry: WiGeometry
    ericsson: EricssonCoefficients = EricssonCoefficients()
    mode: FidelityMode = FidelityMode.CORRECTED
    shadow_margin_db: float = 10.6
    apply_shadow_margin: bool = False
    include_sui_shadowing: bool = True


def default_scenario(environment: Environment,
                     *,
                     frequency_mhz: float = 1900.0,
                     distance_m: float = 5000.0,
                     bs_height_m: float = 30.0,
                     rx_height_m: float = 3.0,
                     sui_reference_distance_m: float = 100.0,
                     street_width_m: float = 25.0,
                     building_separation_m: float = 50.0,
                     roof_height_m: float = 15.0,
                     orientation_deg: Optional[float] = None,
                     metro_factor_k: Optional[float] = None,
                     wi_los: Optional[bool] = None,
                     ericsson: EricssonCoefficients = EricssonCoefficients(),
                     mode: FidelityMode = FidelityMode.CORRECTED,
                     shadow_margin_db: Optional[float] = None,
                     apply_shadow_margin: bool = False,
                     include_sui_shadowing: bool = True) -> Scenario:
    """Scenario with the standard simulation defaults for ``environment``.

    Unset geometry fields take the environment-specific defaults; rural links
    default to the line-of-sight dispatch.
    """
    link = RadioLink(frequency_mhz, distance_m, bs_height_m, rx_height_m,
                     sui_reference_distance_m)
    geometry = WiGeometry(
        street_width_m=street_width_m,
        building_separation_m=building_separation_m,
        roof_height_m=roof_height_m,
        orientation_deg=DEFAULT_ORIENTATION_DEG[environment]
        if orientation_deg is None else orientation_deg,
        metro_factor_k=DEFAULT_METRO_K[environment]
        if metro_factor_k is None else metro_factor_k,
        los=(environment is Environment.RURAL) if wi_los is None else wi_los,
    )
    return Scenario(
        link=link,
        environment=environment,
        wi_geometry=geometry,
        ericsson=ericsson,
        mode=mode,
        shadow_margin_db=DEFAULT_SHADOW_MARGIN_DB[environment]
        if shadow_margin_db is None else shadow_margin_db,
        apply_shadow_margin=apply_shadow_margin,
        include_sui_shadowing=include_sui_shadowing,
    )


def bind(model: ModelId, scenario: Scenario,
         curves: Optional[CurveTable] = None):
    """Bind one scenario to the matching model; returns ``at(distance_m)``.

    The returned evaluator ignores ``scenario.link.distance_m`` and computes
    only the distance-dependent terms per call.  Walfisch-Ikegami follows the
    geometry's LOS flag (rural defaults to LOS, urban/suburban to NLOS).  The
    scenario's shadow margin is appended as a labeled component only when
    apply_shadow_margin is set.
    """
    link = scenario.link
    if model is ModelId.SUI:
        at = sui(link, scenario.environment, scenario.include_sui_shadowing)
    elif model is ModelId.OKUMURA:
        if curves is None:
            raise DomainError("curve table required for the okumura model")
        at = okumura(link, scenario.environment, curves)
    elif model is ModelId.COST231_HATA:
        at = cost231_hata(link, scenario.environment, scenario.mode)
    elif model is ModelId.WALFISCH_IKEGAMI:
        if scenario.wi_geometry.los:
            at = wi_los(link)
        else:
            at = wi_nlos(scenario.wi_geometry, link, scenario.mode)
    elif model is ModelId.ERICSSON9999:
        at = ericsson(link, scenario.ericsson, scenario.mode)
    else:
        raise DomainError(f"unknown model {model!r}")

    if not scenario.apply_shadow_margin:
        return at
    margin_component = (("shadow_margin", scenario.shadow_margin_db),)

    def at_with_margin(distance_m: float) -> PathLossResult:
        result = at(distance_m)
        return PathLossResult(result.components + margin_component, result.warnings)
    return at_with_margin


def evaluate(model: ModelId, scenario: Scenario,
             curves: Optional[CurveTable] = None) -> PathLossResult:
    """Evaluate one scenario at its own distance; see :func:`bind`."""
    return bind(model, scenario, curves)(scenario.link.distance_m)


def sweep_distances(d_min_m: float, d_max_m: float, steps: int,
                    spacing: str = "log") -> list[float]:
    """Inclusive distance samples, log-spaced by default."""
    if steps < 2:
        raise DomainError("a sweep needs at least 2 steps")
    if not d_min_m < d_max_m:
        raise DomainError("sweep requires d_min < d_max")
    if spacing == "log":
        if d_min_m <= 0:
            raise DomainError("log spacing requires d_min > 0")
        ratio = d_max_m / d_min_m
        points = [d_min_m * ratio ** (i / (steps - 1)) for i in range(steps)]
    elif spacing == "linear":
        span = d_max_m - d_min_m
        points = [d_min_m + span * i / (steps - 1) for i in range(steps)]
    else:
        raise DomainError(f"unknown spacing {spacing!r} (expected log or linear)")
    points[0], points[-1] = d_min_m, d_max_m
    return points


def sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
          d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
          spacing: str = "log") -> tuple[tuple[float, PathLossResult], ...]:
    """Evaluate the model over a distance sweep; ascending and deterministic.

    The scenario is bound once and each point evaluates only the
    distance-dependent terms; every point equals :func:`evaluate` at that
    distance.  A failure names the distance it occurred at (the first one if
    the scenario itself cannot be bound).
    """
    distances = sweep_distances(d_min_m, d_max_m, steps, spacing)
    distance = distances[0]
    try:
        at = bind(model, scenario, curves)
        results = []
        for distance in distances:
            results.append(at(distance))
    except PathcastError as exc:
        raise DomainError(f"sweep aborted at {distance:.2f} m: {exc}") from exc
    return tuple(zip(distances, results))


# --------------------------------------------------------------------------
# Reference comparison
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ReferenceRow:
    """One printed row of the embedded comparison table."""

    model: ModelId
    freq_mhz: float
    dist_km: float
    bs_m: float
    rx_m: float
    urban_db: float
    suburban_db: float
    rural_db: float

    def printed(self, environment: Environment) -> float:
        return {
            Environment.URBAN: self.urban_db,
            Environment.SUBURBAN: self.suburban_db,
            Environment.RURAL: self.rural_db,
        }[environment]


@dataclass(frozen=True)
class LedgerEntry:
    row: ReferenceRow
    environment: Environment
    printed_db: float
    computed_db: Optional[float]
    delta_db: Optional[float]
    verdict: str  # "match" | "mismatch"
    notes: tuple[str, ...]


@dataclass(frozen=True)
class DiscrepancyLedger:
    entries: tuple[LedgerEntry, ...]
    tolerance_db: float
    mode: FidelityMode

    @property
    def matched(self) -> int:
        return sum(1 for e in self.entries if e.verdict == "match")

    @property
    def summary(self) -> str:
        return (f"matched {self.matched}/{len(self.entries)} "
                f"within {self.tolerance_db:.2f} dB")


def load_reference_rows() -> tuple[ReferenceRow, ...]:
    """The embedded reference table (19 printed rows)."""
    data = resources.files("pathcast.data").joinpath("table3.csv").read_text("utf-8")
    rows = []
    for record in csv.DictReader(io.StringIO(data)):
        rows.append(ReferenceRow(
            model=ModelId(record["model"]),
            freq_mhz=float(record["freq_mhz"]),
            dist_km=float(record["dist_km"]),
            bs_m=float(record["bs_m"]),
            rx_m=float(record["rx_m"]),
            urban_db=float(record["urban_db"]),
            suburban_db=float(record["suburban_db"]),
            rural_db=float(record["rural_db"]),
        ))
    return tuple(rows)


def compare_against_reference(reference, tolerance_db: float = 0.5,
                              curves: Optional[CurveTable] = None,
                              mode: FidelityMode = FidelityMode.CORRECTED,
                              ) -> DiscrepancyLedger:
    """Evaluate every (row, environment) pair against its printed value.

    Individual evaluation failures become ledger notes, never aborts.
    """
    if not 0.0 < tolerance_db < math.inf:
        raise DomainError("tolerance must be positive and finite")
    entries = []
    for row in reference:
        anomaly = row.rural_db > row.urban_db
        for environment in Environment:
            scenario = default_scenario(
                environment,
                frequency_mhz=row.freq_mhz,
                distance_m=row.dist_km * 1000.0,
                bs_height_m=row.bs_m,
                rx_height_m=row.rx_m,
                mode=mode,
            )
            notes = [f"mode={mode.value}"]
            if anomaly:
                notes.append("printed reference anomaly: rural exceeds urban")
            printed = row.printed(environment)
            try:
                computed = evaluate(row.model, scenario, curves).total_db
            except PathcastError as exc:
                entries.append(LedgerEntry(
                    row=row, environment=environment, printed_db=printed,
                    computed_db=None, delta_db=None, verdict="mismatch",
                    notes=tuple(notes + [f"evaluation failed: {exc}"])))
                continue
            delta = computed - printed
            verdict = "match" if abs(delta) <= tolerance_db else "mismatch"
            entries.append(LedgerEntry(
                row=row, environment=environment, printed_db=printed,
                computed_db=computed, delta_db=delta, verdict=verdict,
                notes=tuple(notes)))
    return DiscrepancyLedger(tuple(entries), tolerance_db, mode)


# --------------------------------------------------------------------------
# Cell-range inversion
# --------------------------------------------------------------------------

_INVERT_TOL_DB = 1e-6
_INVERT_TOL_M = 1e-3
_MONOTONE_SAMPLES = 17


def invert_cell_range(model: ModelId, scenario: Scenario, max_loss_db: float,
                      d_min_m: float = 1000.0, d_max_m: float = 10000.0,
                      curves: Optional[CurveTable] = None) -> float:
    """Largest distance whose loss does not exceed ``max_loss_db``.

    Bisection over [d_min, d_max]; requires the loss to bracket the target
    and to be monotone increasing over the bracket (checked by sampling).
    The scenario is bound once, so each probe evaluates only the
    distance-dependent terms.  The returned distance satisfies
    PL(d) <= max_loss within 1e-6 dB.
    """
    if not d_min_m < d_max_m:
        raise DomainError("bracket requires d_min < d_max")

    samples = sweep_distances(d_min_m, d_max_m, _MONOTONE_SAMPLES, "log")
    at = bind(model, scenario, curves)

    def loss(distance):
        return at(distance).total_db

    values = [loss(d) for d in samples]
    for (d_a, v_a), (d_b, v_b) in zip(zip(samples, values), zip(samples[1:], values[1:])):
        if v_b < v_a:
            raise DomainError(
                f"loss is not monotone increasing over the bracket: "
                f"PL({d_a:.2f} m) = {v_a:.4f} dB > PL({d_b:.2f} m) = {v_b:.4f} dB")

    pl_min, pl_max = values[0], values[-1]
    if not pl_min <= max_loss_db <= pl_max:
        raise BoundsError(
            f"target {max_loss_db:.4f} dB outside bracket: "
            f"PL({d_min_m:g} m) = {pl_min:.4f} dB, PL({d_max_m:g} m) = {pl_max:.4f} dB")
    if max_loss_db == pl_max:
        return d_max_m
    if max_loss_db == pl_min:
        return d_min_m

    lo, hi, lo_loss = d_min_m, d_max_m, pl_min
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = loss(mid)
        if value <= max_loss_db:
            lo, lo_loss = mid, value
            if max_loss_db - value <= _INVERT_TOL_DB:
                break
        else:
            hi = mid
        # secondary safety stop for degenerate brackets
        if hi - lo <= _INVERT_TOL_M and max_loss_db - lo_loss <= _INVERT_TOL_DB:
            break
    return lo
