"""Scenario binding, model dispatch, distance sweeps, reference comparison and
cell-range inversion.

A Scenario is one fully-bound evaluation context with no field defaults;
:func:`default_scenario` is their one source.  Its defaults reproduce the
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
from itertools import chain
from typing import Iterator, Optional

from .curves import CurveTable, okumura
from .errors import BoundsError, DomainError, PathcastError
from .propagation import (
    Environment,
    EricssonCoefficients,
    FidelityMode,
    PathLossResult,
    RadioLink,
    WiGeometry,
    _AFFINE_LIMIT_DB,
    _finite_total,
    _moderate,
    cost231_hata,
    ericsson,
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


@dataclass(frozen=True, init=False)
class Scenario:
    link: RadioLink
    environment: Environment
    wi_geometry: WiGeometry
    ericsson: EricssonCoefficients
    mode: FidelityMode
    shadow_margin_db: float
    apply_shadow_margin: bool
    include_sui_shadowing: bool

    # Not generated, for speed; see the note above pathcast.propagation.RadioLink
    def __init__(self, link: RadioLink, environment: Environment, wi_geometry: WiGeometry,
                 ericsson: EricssonCoefficients, mode: FidelityMode, shadow_margin_db: float,
                 apply_shadow_margin: bool, include_sui_shadowing: bool):
        fields = vars(self)
        fields["link"] = link
        fields["environment"] = environment
        fields["wi_geometry"] = wi_geometry
        fields["ericsson"] = ericsson
        fields["mode"] = mode
        fields["shadow_margin_db"] = shadow_margin_db
        fields["apply_shadow_margin"] = apply_shadow_margin
        fields["include_sui_shadowing"] = include_sui_shadowing


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
    scenario's shadow margin is appended as a ``shadow_margin`` component, a
    label no binder emits, only when apply_shadow_margin is set; its
    ``loss`` adds the margin to the model's.  The evaluator carries the
    model's ``loss``, ``branch_points`` and ``affine_from_m`` (see
    :mod:`pathcast.propagation`); a margin over 1e4 dB makes the last
    ``math.inf``.
    """
    link = scenario.link
    if model is ModelId.SUI:
        at = sui(link, scenario.environment, scenario.include_sui_shadowing)
    elif model is ModelId.OKUMURA:
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
    margin_db = scenario.shadow_margin_db
    margin_component = (("shadow_margin", margin_db),)
    inner_loss = at.loss

    def at_with_margin(distance_m: float) -> PathLossResult:
        result = at(distance_m)
        return PathLossResult(result.components + margin_component, result.warnings)

    def loss(distance_m: float) -> float:
        return _finite_total(inner_loss(distance_m) + margin_db)
    at_with_margin.branch_points, at_with_margin.loss = at.branch_points, loss
    at_with_margin.affine_from_m = at.affine_from_m if _moderate(margin_db) else math.inf
    return at_with_margin


def evaluate(model: ModelId, scenario: Scenario,
             curves: Optional[CurveTable] = None) -> PathLossResult:
    """Evaluate one scenario at its own distance; see :func:`bind`."""
    return bind(model, scenario, curves)(scenario.link.distance_m)


def sweep_distances(d_min_m: float, d_max_m: float, steps: int,
                    spacing: str = "log") -> Iterator[float]:
    """Inclusive distance samples, log-spaced by default: ``d_min_m`` and
    ``d_max_m`` exactly, then ``steps - 2`` computed between them.

    The arguments are checked on the call; the distances are computed one at
    a time as they are consumed.
    """
    if steps < 2:
        raise DomainError("a sweep needs at least 2 steps")
    if not d_min_m < d_max_m:
        raise DomainError("sweep requires d_min < d_max")
    if spacing == "log":
        if d_min_m <= 0:
            raise DomainError("log spacing requires d_min > 0")
        ratio = d_max_m / d_min_m
        inner = (d_min_m * ratio ** (i / (steps - 1)) for i in range(1, steps - 1))
    elif spacing == "linear":
        span = d_max_m - d_min_m
        inner = (d_min_m + span * i / (steps - 1) for i in range(1, steps - 1))
    else:
        raise DomainError(f"unknown spacing {spacing!r} (expected log or linear)")
    return chain((d_min_m,), inner, (d_max_m,))


def iter_sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
               d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
               spacing: str = "log") -> Iterator[tuple[float, PathLossResult]]:
    """Evaluate the model over a distance sweep, yielding ``(distance, result)``
    per point as it is computed; ascending and deterministic.

    The scenario is bound once and each point evaluates only the
    distance-dependent terms; every point equals :func:`evaluate` at that
    distance.  A failure names the distance it occurred at (the first one if
    the scenario itself cannot be bound).  As in any generator, the argument
    checks run when the first point is asked for.
    """
    return _sweep_points(model, scenario, d_min_m, d_max_m, steps, curves, spacing,
                         totals_only=False)


def _sweep_points(model, scenario, d_min_m, d_max_m, steps, curves, spacing, totals_only):
    """:func:`iter_sweep`'s loop; with ``totals_only`` each point is
    ``(distance, at.loss(distance))``, the total without a result."""
    distances = sweep_distances(d_min_m, d_max_m, steps, spacing)
    distance = d_min_m
    try:
        at = bind(model, scenario, curves)
        if totals_only:
            at = at.loss
        for distance in distances:
            yield distance, at(distance)
    except PathcastError as exc:
        raise DomainError(f"sweep aborted at {distance:.2f} m: {exc}") from exc


def sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
          d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
          spacing: str = "log") -> tuple[tuple[float, PathLossResult], ...]:
    """Every point of :func:`iter_sweep` in one tuple; ascending and deterministic."""
    return tuple(iter_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing))


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
        return getattr(self, f"{environment.value}_db")


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
    numbers = ("freq_mhz", "dist_km", "bs_m", "rx_m", "urban_db", "suburban_db", "rural_db")
    return tuple(ReferenceRow(ModelId(record["model"]), *(float(record[k]) for k in numbers))
                 for record in csv.DictReader(io.StringIO(data)))


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
                delta = computed - printed
            except PathcastError as exc:
                computed = delta = None
                notes.append(f"evaluation failed: {exc}")
            verdict = "match" if delta is not None and abs(delta) <= tolerance_db else "mismatch"
            entries.append(LedgerEntry(row, environment, printed, computed, delta, verdict,
                                       tuple(notes)))
    return DiscrepancyLedger(tuple(entries), tolerance_db, mode)


# --------------------------------------------------------------------------
# Cell-range inversion
# --------------------------------------------------------------------------

_INVERT_TOL_DB = 1e-6
_INVERT_TOL_M = 1e-3
# Ten times the 1e-10 dB a log-affine loss may stray from its chord, and far
# below the 1e-6 dB stop tolerance; a distance computed from a chord widens
# by a relative 1e-12, far above its own rounding.
_CHORD_EPS_DB = 1e-9
_CHORD_WIDEN = 1e-12
_UNDECIDED = (0.0, 0.0, 0.0, math.inf)  # no midpoint decided without an evaluation


def invert_cell_range(model: ModelId, scenario: Scenario, max_loss_db: float,
                      d_min_m: float = 1000.0, d_max_m: float = 10000.0,
                      curves: Optional[CurveTable] = None) -> float:
    """Largest distance whose loss does not exceed ``max_loss_db``.

    Bisection over [d_min, d_max]; requires the loss to bracket the target
    and to be monotone increasing over the bracket.  Monotonicity is proved,
    not sampled: between the model's branch points the loss is affine in
    log d or a sum of non-decreasing terms, so losses ordered at d_min, at
    each branch point inside the bracket and at d_max prove it.  The
    scenario is bound once, and each evaluation reads ``at.loss``, which
    computes only the distance-dependent terms and builds no result.  The
    returned distance satisfies PL(d) <= max_loss within 1e-6 dB.

    Where the piece between two checked points that holds the target lies
    wholly at or beyond the model's ``at.affine_from_m``, it is a line in
    log d through their two exact losses.  The distances where that line
    crosses the stop levels (the target and the target less 1e-6 dB, each
    +-1e-9 dB) are computed once, and a midpoint that falls clear of them,
    on the piece or where monotonicity alone decides it, is decided by
    comparing distances; only midpoints within a hair of a level are
    evaluated.  The midpoints, the stops and the returned distance are those
    of plain bisection, float for float.  A closed-form model typically evaluates only d_min and d_max
    when no branch point lies inside the bracket and d_min is at or beyond
    ``at.affine_from_m`` (for Walfisch-Ikegami NLOS, past its floor's kink
    and, below the roofs, from 500 m); Okumura evaluates the grid nodes
    inside the bracket and a few midpoints off the target's piece.
    """
    if not d_min_m < d_max_m:
        raise DomainError("bracket requires d_min < d_max")
    if d_min_m <= 0:
        raise DomainError("bracket requires d_min > 0")

    at = bind(model, scenario, curves)
    loss = at.loss
    checked = [d_min_m, *(d for d in at.branch_points if d_min_m < d < d_max_m), d_max_m]
    values = [loss(d) for d in checked]
    for (d_a, v_a), (d_b, v_b) in zip(zip(checked, values), zip(checked[1:], values[1:])):
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

    below, stop_from, stop_to, above = _chord_regions(checked, values, max_loss_db,
                                                      at.affine_from_m)
    lo, hi, lo_loss = d_min_m, d_max_m, pl_min
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid < below:  # loss more than 1e-6 dB under the target, as lo_loss is
            lo = mid
        elif stop_from < mid < stop_to:  # loss within 1e-6 dB under the target
            lo = mid
            break
        elif mid > above:  # loss over the target
            hi = mid
        else:
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


def _chord_regions(checked, values, target, affine_from_m):
    """Distances that decide a bisection step on a log-affine loss, as
    ``(below, stop_from, stop_to, above)``: the loss is more than 1e-6 dB
    under ``target`` below ``below``, within 1e-6 dB under it strictly
    between ``stop_from`` and ``stop_to``, and over it above ``above``.

    They come from the chord, in log d, of the first checked piece whose end
    reaches the target, if that piece starts at or beyond ``affine_from_m``.
    The stop region keeps to that piece; the other two reach past it only
    where the piece's end values decide them, since the loss is monotone.
    Nothing is decided when a midpoint may overflow to inf, which
    ``lo + hi <= 2 d_max`` rules out, so that its evaluation raises as in
    plain bisection.
    """
    if not math.isfinite(checked[-1] + checked[-1]):
        return _UNDECIDED
    i = next(i for i, v in enumerate(values) if v >= target)
    a, b, v_a, v_b = checked[i - 1], checked[i], values[i - 1], values[i]
    if a < affine_from_m or max(-v_a, v_b) > _AFFINE_LIMIT_DB:  # the chord may stray further
        return _UNDECIDED
    ratio, span = b / a, v_b - v_a  # span >= target - v_a > 0

    def crossing(level):
        e = (level - v_a) / span  # out of [0, 1] on a nearly flat piece
        return a if e <= 0.0 else b if e >= 1.0 else a * ratio ** e

    stop = target - _INVERT_TOL_DB
    low, high = 1.0 - _CHORD_WIDEN, 1.0 + _CHORD_WIDEN
    below = crossing(stop - _CHORD_EPS_DB) * low if stop - _CHORD_EPS_DB > v_a else 0.0
    above = crossing(target + _CHORD_EPS_DB) * high if target + _CHORD_EPS_DB < v_b else math.inf
    return (below, crossing(stop + _CHORD_EPS_DB) * high,
            crossing(target - _CHORD_EPS_DB) * low, above)
