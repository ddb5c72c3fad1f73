"""Reference comparison: the embedded comparison table and the ledger that
checks every model against it.

Only ``pathcast compare`` and library callers of the comparison read this
module, so no other command loads it, nor the ``csv`` module it reads the
table with.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources
from typing import TYPE_CHECKING, Optional

from .errors import DomainError, PathcastError
from .propagation import Environment, FidelityMode, _check_environment, _check_mode
from .scenario import DEFAULT_TOLERANCE_DB, ModelId, default_scenario, evaluate

if TYPE_CHECKING:
    from .curves import CurveTable


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
        _check_environment(environment)
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


def compare_against_reference(reference, tolerance_db: float = DEFAULT_TOLERANCE_DB,
                              curves: Optional[CurveTable] = None,
                              mode: FidelityMode = FidelityMode.CORRECTED,
                              ) -> DiscrepancyLedger:
    """Evaluate every (row, environment) pair against its printed value.

    Individual evaluation failures become ledger notes, never aborts.
    """
    if not 0.0 < tolerance_db < math.inf:
        raise DomainError("tolerance must be positive and finite")
    _check_mode(mode)
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
