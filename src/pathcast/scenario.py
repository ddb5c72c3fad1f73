"""Scenario binding, model dispatch, distance sweeps and cell-range inversion;
the reference comparison, which builds on them, is :mod:`pathcast.reference`.

A Scenario is one fully-bound evaluation context with no field defaults;
:func:`default_scenario` is their one source, and reproduces the simulation
parameters of the embedded comparison.  The link and street geometry take
the field defaults of :class:`RadioLink` and :class:`WiGeometry`; what
differs by environment is one row of ``_ENVIRONMENT_DEFAULTS``, whose shadow
margin is carried but only applied on explicit request.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import TYPE_CHECKING, Iterator, Optional

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

if TYPE_CHECKING:
    from .curves import CurveTable


class ModelId(Enum):
    SUI = "sui"
    OKUMURA = "okumura"
    COST231_HATA = "cost231_hata"
    WALFISCH_IKEGAMI = "walfisch_ikegami"
    ERICSSON9999 = "ericsson9999"


# The one source of each per-environment default of default_scenario:
# (orientation_deg, metro_factor_k, shadow_margin_db, wi_los)
_ENVIRONMENT_DEFAULTS = {
    Environment.URBAN: (30.0, 1.5, 10.6, False),
    Environment.SUBURBAN: (40.0, 0.7, 8.2, False),
    Environment.RURAL: (40.0, 0.7, 8.2, True),
}
# The match tolerance of the reference comparison (pathcast.reference)
DEFAULT_TOLERANCE_DB = 0.5

_curves = None  # pathcast.curves, which only the Okumura model reads; see _import_curves


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
                     sui_reference_distance_m: float = RadioLink.sui_reference_distance_m,
                     street_width_m: float = WiGeometry.street_width_m,
                     building_separation_m: float = WiGeometry.building_separation_m,
                     roof_height_m: float = WiGeometry.roof_height_m,
                     orientation_deg: Optional[float] = None,
                     metro_factor_k: Optional[float] = None,
                     wi_los: Optional[bool] = None,
                     ericsson: EricssonCoefficients = EricssonCoefficients(),
                     mode: FidelityMode = FidelityMode.CORRECTED,
                     shadow_margin_db: Optional[float] = None,
                     apply_shadow_margin: bool = False,
                     include_sui_shadowing: bool = True) -> Scenario:
    """Scenario with the standard simulation defaults for ``environment``.

    Unset per-environment fields take the environment's row of
    ``_ENVIRONMENT_DEFAULTS``.
    """
    try:
        orientation, metro_k, margin, los = _ENVIRONMENT_DEFAULTS[environment]
    except KeyError:
        raise DomainError(f"unknown environment {environment!r}") from None
    link = RadioLink(frequency_mhz, distance_m, bs_height_m, rx_height_m,
                     sui_reference_distance_m)
    geometry = WiGeometry(street_width_m, building_separation_m, roof_height_m,
                          orientation if orientation_deg is None else orientation_deg,
                          metro_k if metro_factor_k is None else metro_factor_k,
                          los if wi_los is None else wi_los)
    return Scenario(link, environment, geometry, ericsson, mode,
                    margin if shadow_margin_db is None else shadow_margin_db,
                    apply_shadow_margin, include_sui_shadowing)


def bind(model: ModelId, scenario: Scenario,
         curves: Optional[CurveTable] = None):
    """Bind one scenario to the matching model; returns ``at(distance_m)``.

    The returned evaluator ignores ``scenario.link.distance_m`` and computes
    only the distance-dependent terms per call.  Walfisch-Ikegami follows the
    geometry's LOS flag.  The scenario's shadow margin is appended as a
    ``shadow_margin`` component, a label no binder emits, only when
    apply_shadow_margin is set; its ``loss`` adds the margin to the model's.
    The evaluator carries the model's ``loss``, ``branch_points`` and
    ``affine_from_m`` (see :mod:`pathcast.propagation`); a margin over 1e4 dB
    makes the last ``math.inf``.
    """
    link = scenario.link
    if model is ModelId.SUI:
        at = sui(link, scenario.environment, scenario.include_sui_shadowing)
    elif model is ModelId.OKUMURA:
        at = (_curves or _import_curves()).okumura(link, scenario.environment, curves)
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
        try:
            total = inner_loss(distance_m) + margin_db
        except OverflowError:  # an int margin too large for a float
            total = math.inf
        return _finite_total(total)
    at_with_margin.branch_points, at_with_margin.loss = at.branch_points, loss
    at_with_margin.affine_from_m = at.affine_from_m if _moderate(margin_db) else math.inf
    return at_with_margin


def _import_curves():
    """Import :mod:`pathcast.curves` on the first Okumura binding.  ``bind``
    keeps the module, not its binder, so each binding looks ``okumura`` up
    on it and a replaced binder is the one bound."""
    global _curves
    from . import curves
    _curves = curves
    return curves


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
    try:
        float(d_min_m), float(d_max_m)
    except OverflowError:  # an int too large for a float
        raise DomainError("distance must be finite") from None
    if spacing == "log":
        if float(d_min_m) <= 0:  # as a float: a Fraction may round to 0.0
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
        raise DomainError(f"sweep aborted at {float(distance):.2f} m: {exc}") from exc


def sweep(model: ModelId, scenario: Scenario, d_min_m: float = 1000.0,
          d_max_m: float = 5000.0, steps: int = 50, curves: Optional[CurveTable] = None,
          spacing: str = "log") -> tuple[tuple[float, PathLossResult], ...]:
    """Every point of :func:`iter_sweep` in one tuple; ascending and deterministic."""
    return tuple(iter_sweep(model, scenario, d_min_m, d_max_m, steps, curves, spacing))


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
                f"PL({float(d_a):.2f} m) = {v_a:.4f} dB > PL({float(d_b):.2f} m) = {v_b:.4f} dB")

    pl_min, pl_max = values[0], values[-1]
    if not pl_min <= max_loss_db <= pl_max:
        try:
            target = float(max_loss_db)
        except OverflowError:  # an int too large for a float shows as inf
            target = math.inf if max_loss_db > 0 else -math.inf
        raise BoundsError(
            f"target {target:.4f} dB outside bracket: PL({float(d_min_m):g} m) = "
            f"{pl_min:.4f} dB, PL({float(d_max_m):g} m) = {pl_max:.4f} dB")
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
    i = bisect_left(values, target)  # values never decrease; values[0] < target
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
