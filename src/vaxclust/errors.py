"""Exception taxonomy shared by all vaxclust modules.

Exit-code mapping used by the CLI: ConfigError -> 1, DataError (an input
that could not be read or used) -> 2, anything else -> 3. An output that
cannot be written, its directory included, is a WriteError (exit 3). ``run``,
and ``stats`` on its one cell, record a VaxclustError or a MemoryError
against its year or (year, k) cell, at the stage that raised it: a year that
fails to load or cluster exits 2, a cell that fails later, a failed write
included, exits 3.
"""

from __future__ import annotations


class VaxclustError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(VaxclustError):
    """Bad run configuration (unknown key, missing field, invalid value)."""


class DataError(VaxclustError):
    """Input tables could not be ingested as specified."""


class WriteError(VaxclustError):
    """An output file or its directory could not be written."""


class MissingColumn(DataError):
    def __init__(self, column: str):
        super().__init__(f"required column missing: {column!r}")
        self.column = column


class OutOfRange(DataError):
    def __init__(self, column: str, value, district_id: str = ""):
        where = f" (district {district_id})" if district_id else ""
        super().__init__(f"value {value!r} out of range for column {column!r}{where}")
        self.column = column
        self.value = value
        self.district_id = district_id


class RuralityOutOfDomain(DataError):
    def __init__(self, value, district_id: str = ""):
        where = f" (district {district_id})" if district_id else ""
        super().__init__(f"rurality {value!r} not in 1..6{where}")
        self.value = value
        self.district_id = district_id


class DuplicateDistrict(DataError):
    def __init__(self, district_id: str):
        super().__init__(f"duplicate district id: {district_id!r}")
        self.district_id = district_id


class EmptyTable(DataError):
    pass


class JoinMismatch(DataError):
    """District id sets of the two tables differ.

    ``left_only``/``right_only`` carry the unmatched ids of the vaccination
    and GDSC tables respectively.
    """

    def __init__(self, left_only: list[str], right_only: list[str]):
        super().__init__(
            f"district ids do not match: {len(left_only)} only in vaccination table, "
            f"{len(right_only)} only in gdsc table"
        )
        self.left_only = list(left_only)
        self.right_only = list(right_only)


class TooFewRows(DataError):
    pass


class NonFiniteInput(VaxclustError):
    pass


class KOutOfRange(VaxclustError):
    pass


class DegenerateLabels(VaxclustError):
    """Training labels miss a class: all rows carry one label, or a class
    below the largest label is absent (a one-district cluster held out by a
    cross-validation fold)."""


class NonFiniteFeature(VaxclustError):
    pass


class FeatureArityMismatch(VaxclustError):
    pass


class NonFiniteModel(VaxclustError):
    """Boosting diverged: a fitted model's training loss is not finite, or
    its leaf values could overflow a prediction or SHAP sum."""


class MissingCover(VaxclustError):
    """Tree ensemble lacks the per-leaf training-row counts needed for attribution."""


class TooManyFeatures(VaxclustError):
    pass


class EmptySample(VaxclustError):
    pass


class KFoldsOutOfRange(VaxclustError):
    pass


class LabelOutOfRange(VaxclustError):
    pass


class LengthMismatch(VaxclustError):
    pass


class EmptyMatrix(VaxclustError):
    pass


class EmptyGroup(VaxclustError):
    pass


class SpecInvalid(VaxclustError):
    """Synthetic-data generation spec violates its own invariants."""


class GeometryKeyMismatch(VaxclustError):
    def __init__(self, missing_ids: list[str]):
        super().__init__(f"no geometry for {len(missing_ids)} district(s): {missing_ids}")
        self.missing_ids = list(missing_ids)
