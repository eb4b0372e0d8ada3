"""Ingestion, validation, join, and standardization of the per-year input tables.

Two UTF-8 comma-delimited tables per study year, at :func:`table_paths` (a
leading byte-order mark is skipped):

* vaccination table: ``district_id, district_name`` plus the 14 coverage
  columns listed in :data:`VACCINE_COLUMNS` (percent of eligible children).
* gdsc table: ``district_id`` plus the 9 columns in :data:`GDSC_COLUMNS`
  (eight numeric percentages/scores and the ordinal ``rurality`` category).

Both go through one reader, :func:`_parse_table`. Parsing is strict: missing
columns, empty or duplicate district ids and a table without rows are hard
errors, and a numeric cell must be a plain decimal (no exponent or locale
separator), finite and within its column's :data:`_BOUNDS`, so a decimal too
long for a double is out of range. Missing cells are never imputed.
:func:`csv_text` is the one writer for every CSV artifact the package emits,
and :func:`write_text` the one writer of every file, a failed one a WriteError.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    DataError,
    DuplicateDistrict,
    EmptyTable,
    JoinMismatch,
    MissingColumn,
    OutOfRange,
    RuralityOutOfDomain,
    TooFewRows,
    WriteError,
)

VACCINE_COLUMNS = (
    "DTaP_IPV_5y",
    "DTaP_IPV_Hib_5y",
    "DTaP_IPV_Hib_HepB_12m",
    "DTaP_IPV_Hib_HepB_24m",
    "Hib_MenC_24m",
    "Hib_MenC_5y",
    "MenB_12m",
    "MenB_booster_24m",
    "MMR_24m",
    "MMR1_5y",
    "MMR2_5y",
    "PCV_12m",
    "PCV_24m",
    "Rota_12m",
)

GDSC_COLUMNS = (
    "imd_avg_score",
    "imd_prop_deprived",
    "long_term_unemployed",
    "routine_occupations",
    "no_qualifications",
    "english_proficiency",
    "ethnic_minority",
    "born_outside_uk",
    "rurality",
)

GDSC_NUMERIC_COLUMNS = tuple(c for c in GDSC_COLUMNS if c != "rurality")

RURALITY_CATEGORIES = (1, 2, 3, 4, 5, 6)

# (low, high) of each numeric column: rates and GDSC shares are percents,
# imd_avg_score is a score unbounded above
_BOUNDS = {c: (0.0, 100.0) for c in VACCINE_COLUMNS + GDSC_NUMERIC_COLUMNS}
_BOUNDS["imd_avg_score"] = (0.0, math.inf)

_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_INT_RE = re.compile(r"^[+-]?\d+$")


@dataclass(frozen=True)
class YearDataset:
    """One year's joined districts in id order: row i of every array belongs to
    district ``ids[i]``. The arrays are read-only, so callers share them."""

    year: int
    ids: tuple[str, ...]
    names: tuple[str, ...]
    rates: np.ndarray  # (n, 14) float64, VACCINE_COLUMNS order
    gdsc: np.ndarray  # (n, 8) float64, GDSC_NUMERIC_COLUMNS order
    rurality: np.ndarray  # (n,) int64, categories 1..6
    # ids found in one table only, which a partial join left out
    vaccination_only: tuple[str, ...] = ()
    gdsc_only: tuple[str, ...] = ()

    def __post_init__(self):
        n = len(self.ids)
        shapes = {
            "names": ((len(self.names),), (n,)),
            "rates": (self.rates.shape, (n, len(VACCINE_COLUMNS))),
            "gdsc": (self.gdsc.shape, (n, len(GDSC_NUMERIC_COLUMNS))),
            "rurality": (self.rurality.shape, (n,)),
        }
        for name, (shape, expected) in shapes.items():
            if shape != expected:
                raise ValueError(f"{name} has shape {shape}, expected {expected} for {n} districts")
        for array in (self.rates, self.gdsc, self.rurality):
            array.flags.writeable = False

    def __len__(self) -> int:
        return len(self.ids)

    # the two accessors the acceptance suite calls; code reads the fields
    def vaccination_matrix(self) -> np.ndarray:
        return self.rates

    def rurality_column(self) -> np.ndarray:
        return self.rurality


@dataclass(frozen=True)
class StandardizedMatrix:
    values: np.ndarray
    feature_means: np.ndarray
    feature_sds: np.ndarray
    feature_names: tuple[str, ...]


def _parse_number(row: dict, column: str, district_id: str) -> float:
    """``row[column]`` as a plain decimal, finite and within the column's bounds;
    a malformed cell is reported as written, an out-of-range one as its value."""
    raw = row[column]  # csv.DictReader gives a short row's missing cells as None
    text = "" if raw is None else raw.strip()
    if not _DECIMAL_RE.match(text):
        raise OutOfRange(column, raw, district_id)
    value = float(text)
    low, high = _BOUNDS[column]
    if not (low <= value <= high and math.isfinite(value)):
        raise OutOfRange(column, value, district_id)
    return value


def csv_text(header, rows) -> str:
    """CSV text: a header record, then one record per row, each ending in ``\n``.

    Fields are written with ``str``; those holding a comma, quote or line
    break are quoted, embedded quotes doubled (RFC 4180).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whole or not at all.

    The directory is made; the text goes to ``.NAME.tmp`` beside ``path``,
    a name no artifact pattern matches and every rerun repeats (so does a
    failure's message), then replaces ``path`` in one rename. On any failure
    the temporary file is removed, ``path`` is left as it was and an OSError
    becomes a WriteError, ``cannot write PATH: ...``. Mode follows the umask.
    """
    directory, name = os.path.split(path)
    temporary = os.path.join(directory, f".{name}.tmp")
    try:
        os.makedirs(directory or ".", exist_ok=True)
        with open(temporary, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        os.replace(temporary, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(temporary)
        if isinstance(exc, OSError):
            raise WriteError(f"cannot write {path}: {exc}") from exc
        raise


def _parse_table(stream, year: int, what: str, columns: tuple[str, ...], parse_row) -> dict:
    """``{id: parse_row(row, id)}`` over the rows of one table.

    The header must hold ``district_id`` and ``columns``. Ids are stripped; an
    empty or repeated id is an error, and so is a table without rows.
    """
    reader = csv.DictReader(stream)
    header = reader.fieldnames or []
    for column in ("district_id", *columns):
        if column not in header:
            raise MissingColumn(column)
    parsed = {}
    for row in reader:
        district_id = (row["district_id"] or "").strip()
        if not district_id:
            raise OutOfRange("district_id", row["district_id"])
        if district_id in parsed:
            raise DuplicateDistrict(district_id)
        parsed[district_id] = parse_row(row, district_id)
    if not parsed:
        raise EmptyTable(f"{what} table for year {year} has no data rows")
    return parsed


def _vaccination_row(row: dict, district_id: str) -> tuple[str, tuple[float, ...]]:
    return (row["district_name"] or "").strip(), tuple(_parse_number(row, c, district_id) for c in VACCINE_COLUMNS)


def _gdsc_row(row: dict, district_id: str) -> tuple[tuple[float, ...], int]:
    numeric = tuple(_parse_number(row, c, district_id) for c in GDSC_NUMERIC_COLUMNS)
    rurality_raw = (row["rurality"] or "").strip()
    if not _INT_RE.match(rurality_raw):
        raise RuralityOutOfDomain(row["rurality"], district_id)
    rurality = int(rurality_raw)
    if rurality not in RURALITY_CATEGORIES:
        raise RuralityOutOfDomain(rurality, district_id)
    return numeric, rurality


def parse_vaccination_table(stream, year: int) -> dict[str, tuple[str, tuple[float, ...]]]:
    """Parse one year's vaccination table into ``{id: (name, rates)}``, the 14
    rates in VACCINE_COLUMNS order; header order is irrelevant."""
    return _parse_table(stream, year, "vaccination", ("district_name", *VACCINE_COLUMNS), _vaccination_row)


def parse_gdsc_table(stream, year: int) -> dict[str, tuple[tuple[float, ...], int]]:
    """Parse one year's GDSC table into ``{id: (numeric, rurality)}``, the 8
    numeric features in GDSC_NUMERIC_COLUMNS order."""
    return _parse_table(stream, year, "gdsc", GDSC_COLUMNS, _gdsc_row)


def join_year(
    vacc: dict[str, tuple[str, tuple[float, ...]]],
    gdsc: dict[str, tuple[tuple[float, ...], int]],
    year: int,
    allow_partial: bool = False,
) -> YearDataset:
    """Inner-join the two parsed tables on district id, sorted by id.

    A district present in exactly one table raises :class:`JoinMismatch`
    unless ``allow_partial`` is set, in which case unmatched rows are dropped
    and their ids kept in ``vaccination_only`` and ``gdsc_only``.
    """
    left_only = sorted(set(vacc) - set(gdsc))
    right_only = sorted(set(gdsc) - set(vacc))
    if (left_only or right_only) and not allow_partial:
        raise JoinMismatch(left_only, right_only)
    ids = tuple(sorted(set(vacc) & set(gdsc)))
    # reshape keeps an empty partial join two-dimensional
    return YearDataset(
        year=year,
        ids=ids,
        names=tuple(vacc[i][0] for i in ids),
        rates=np.array([vacc[i][1] for i in ids], dtype=np.float64).reshape(-1, len(VACCINE_COLUMNS)),
        gdsc=np.array([gdsc[i][0] for i in ids], dtype=np.float64).reshape(-1, len(GDSC_NUMERIC_COLUMNS)),
        rurality=np.array([gdsc[i][1] for i in ids], dtype=np.int64),
        vaccination_only=tuple(left_only),
        gdsc_only=tuple(right_only),
    )


def table_paths(directory, year: int) -> tuple[str, str]:
    """The paths of ``year``'s vaccination and GDSC tables in ``directory``."""
    return os.path.join(directory, f"vaccination_{year}.csv"), os.path.join(directory, f"gdsc_{year}.csv")


def load_year(vacc_path, gdsc_path, year: int, allow_partial: bool = False) -> YearDataset:
    """Both tables of a year, parsed and joined; a leading byte-order mark is
    skipped. A file that is missing, unreadable, not UTF-8 or not CSV the
    ``csv`` module can read is a DataError naming it."""
    tables = []
    for path, parse in ((vacc_path, parse_vaccination_table), (gdsc_path, parse_gdsc_table)):
        try:
            with open(path, encoding="utf-8-sig", newline="") as f:
                tables.append(parse(f, year))
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise DataError(f"cannot read {path} as UTF-8 CSV: {exc}") from exc
    return join_year(*tables, year, allow_partial=allow_partial)


def standardize(matrix: np.ndarray, feature_names) -> StandardizedMatrix:
    """Column-wise z-score with sample standard deviation (n-1 denominator).

    Constant columns map to all-zero columns with sd recorded as 0.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise TooFewRows("standardize requires at least 2 rows")
    means = matrix.mean(axis=0)
    sds = matrix.std(axis=0, ddof=1)
    constant = sds == 0.0
    safe = np.where(constant, 1.0, sds)
    values = (matrix - means) / safe
    values[:, constant] = 0.0
    return StandardizedMatrix(
        values=values,
        feature_means=means,
        feature_sds=np.where(constant, 0.0, sds),
        feature_names=tuple(feature_names),
    )
