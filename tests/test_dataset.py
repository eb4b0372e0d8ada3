from __future__ import annotations

import csv
import errno
import io
import math
import os
import re

import numpy as np
import pytest

from conftest import assert_same_dataset, gdsc_csv, gdsc_row, vacc_csv
from vaxclust import dataset as ds
from vaxclust import synth
from vaxclust.errors import (
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


def _rates(start=80.0):
    return [round(start + 0.25 * j, 2) for j in range(14)]


def test_parse_vaccination_maps_columns_by_name():
    stream = vacc_csv([["E1", "Hartlepool", 87.3, *_rates()[1:]]])
    profiles = ds.parse_vaccination_table(stream, 2021)
    (district_id, (name, rates)), = profiles.items()
    assert district_id == "E1"
    assert name == "Hartlepool"
    assert rates[0] == 87.3


def test_parse_vaccination_header_order_is_irrelevant():
    header = ["district_name", *reversed(ds.VACCINE_COLUMNS), "district_id"]
    values = {c: v for c, v in zip(ds.VACCINE_COLUMNS, _rates())}
    row = ["Town", *[values[c] for c in reversed(ds.VACCINE_COLUMNS)], "E9"]
    profiles = ds.parse_vaccination_table(vacc_csv([row], header=header), 2021)
    name, rates = profiles["E9"]
    assert name == "Town"
    assert list(rates) == _rates()


def test_parse_vaccination_rejects_rate_above_100():
    rates = _rates()
    rates[3] = 101.0
    with pytest.raises(OutOfRange):
        ds.parse_vaccination_table(vacc_csv([["E1", "A", *rates]]), 2021)


def test_parse_vaccination_150_rows_sorted_keys():
    rows = [[f"E{i:03d}", f"D{i}", *_rates()] for i in range(150)]
    profiles = ds.parse_vaccination_table(vacc_csv(rows), 2021)
    assert len(profiles) == 150
    ids = sorted(profiles)
    assert ids == [f"E{i:03d}" for i in range(150)]


def test_parse_vaccination_missing_column():
    header = ["district_id", "district_name", *ds.VACCINE_COLUMNS[:-1]]
    with pytest.raises(MissingColumn):
        ds.parse_vaccination_table(vacc_csv([], header=header), 2021)


@pytest.mark.parametrize(
    "make_csv, row, parse",
    [
        (vacc_csv, lambda i: [i, "A", *_rates()], ds.parse_vaccination_table),
        (gdsc_csv, gdsc_row, ds.parse_gdsc_table),
    ],
    ids=["vaccination", "gdsc"],
)
def test_parse_rejects_blank_and_repeated_ids_and_no_rows(make_csv, row, parse):
    with pytest.raises(DuplicateDistrict):
        parse(make_csv([row("E1"), row(" E1 ")]), 2021)
    with pytest.raises(OutOfRange, match="district_id"):
        parse(make_csv([row("E1"), row("  ")]), 2021)
    with pytest.raises(EmptyTable):
        parse(make_csv([]), 2021)


def test_parse_rejects_locale_decimal_separator():
    rates = _rates()
    rates[0] = '"87,3"'  # quoted so the comma stays inside the cell
    with pytest.raises(OutOfRange):
        ds.parse_vaccination_table(vacc_csv([["E1", "A", *rates]]), 2021)


def test_parse_gdsc_rurality_domain():
    profiles = ds.parse_gdsc_table(gdsc_csv([gdsc_row("E1", rurality=6)]), 2021)
    assert profiles["E1"][1] == 6
    with pytest.raises(RuralityOutOfDomain):
        ds.parse_gdsc_table(gdsc_csv([gdsc_row("E2", rurality=0)]), 2021)
    with pytest.raises(RuralityOutOfDomain):
        ds.parse_gdsc_table(gdsc_csv([gdsc_row("E2", rurality="2.5")]), 2021)


def test_parse_gdsc_percent_bounds():
    with pytest.raises(OutOfRange):
        ds.parse_gdsc_table(gdsc_csv([gdsc_row("E1", born_outside_uk=-3)]), 2021)
    # imd_avg_score is a score, not a percent: values above 100 are legal
    profiles = ds.parse_gdsc_table(gdsc_csv([gdsc_row("E1", imd_avg_score=104.5)]), 2021)
    numeric, _ = profiles["E1"]
    assert numeric[ds.GDSC_NUMERIC_COLUMNS.index("imd_avg_score")] == 104.5
    with pytest.raises(OutOfRange):
        ds.parse_gdsc_table(gdsc_csv([gdsc_row("E1", imd_avg_score=-1)]), 2021)


def test_parse_gdsc_rejects_score_beyond_a_double():
    # 400 nines parse as inf, which no bound admits (the parser took it once)
    with pytest.raises(OutOfRange) as err:
        ds.parse_gdsc_table(gdsc_csv([gdsc_row("S0004", imd_avg_score="9" * 400)]), 2021)
    assert str(err.value) == "value inf out of range for column 'imd_avg_score' (district S0004)"


# The two table parsers as they stood before both tables shared one reader,
# kept as the oracles of test_parsers_match_two_reader_oracles.
_ORACLE_DECIMAL_RE = re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)$")
_ORACLE_INT_RE = re.compile(r"^[+-]?\d+$")


def _oracle_parse_decimal(raw, column, district_id):
    if raw is None:
        raise OutOfRange(column, raw, district_id)
    text = raw.strip()
    if not _ORACLE_DECIMAL_RE.match(text):
        raise OutOfRange(column, raw, district_id)
    return float(text)


def _oracle_parse_percent(raw, column, district_id):
    value = _oracle_parse_decimal(raw, column, district_id)
    if not 0.0 <= value <= 100.0:
        raise OutOfRange(column, value, district_id)
    return value


def _oracle_open_reader(stream, required):
    reader = csv.DictReader(stream)
    header = reader.fieldnames or []
    for column in required:
        if column not in header:
            raise MissingColumn(column)
    return reader


def _oracle_parse_vaccination_table(stream, year):
    reader = _oracle_open_reader(stream, ("district_id", "district_name") + ds.VACCINE_COLUMNS)
    profiles = {}
    for row in reader:
        district_id = (row["district_id"] or "").strip()
        if not district_id:
            raise OutOfRange("district_id", row["district_id"])
        if district_id in profiles:
            raise DuplicateDistrict(district_id)
        rates = tuple(_oracle_parse_percent(row[c], c, district_id) for c in ds.VACCINE_COLUMNS)
        profiles[district_id] = ((row["district_name"] or "").strip(), rates)
    if not profiles:
        raise EmptyTable(f"vaccination table for year {year} has no data rows")
    return profiles


def _oracle_parse_gdsc_table(stream, year):
    reader = _oracle_open_reader(stream, ("district_id",) + ds.GDSC_COLUMNS)
    profiles = {}
    for row in reader:
        district_id = (row["district_id"] or "").strip()
        if not district_id:
            raise OutOfRange("district_id", row["district_id"])
        if district_id in profiles:
            raise DuplicateDistrict(district_id)
        imd_avg_score = _oracle_parse_decimal(row["imd_avg_score"], "imd_avg_score", district_id)
        if imd_avg_score < 0:
            raise OutOfRange("imd_avg_score", imd_avg_score, district_id)
        percent = [c for c in ds.GDSC_NUMERIC_COLUMNS if c != "imd_avg_score"]
        numeric = (imd_avg_score, *(_oracle_parse_percent(row[c], c, district_id) for c in percent))
        rurality_raw = (row["rurality"] or "").strip()
        if not _ORACLE_INT_RE.match(rurality_raw):
            raise RuralityOutOfDomain(row["rurality"], district_id)
        rurality = int(rurality_raw)
        if rurality not in ds.RURALITY_CATEGORIES:
            raise RuralityOutOfDomain(rurality, district_id)
        profiles[district_id] = (numeric, rurality)
    if not profiles:
        raise EmptyTable(f"gdsc table for year {year} has no data rows")
    return profiles


_CELLS = ("", " ", "abc", "1e3", "-1", "-0", "101", "100", "0", "100.0000001", "9" * 400, "nan", "inf",
          " 5 ", "+.5", "1,5")


def _battery(header, row):
    """(label, table text) cases around one good ``row`` under ``header``."""
    yield "good", ds.csv_text(header, [row])
    for at, column in enumerate(header):
        if column in ds.VACCINE_COLUMNS or column in ds.GDSC_NUMERIC_COLUMNS:
            for cell in _CELLS:
                yield f"{column}={cell[:12]!r}", ds.csv_text(header, [row[:at] + [cell] + row[at + 1 :]])
            yield f"{column} short row", ds.csv_text(header, [row[:at]])
        if column == "rurality":
            for cell in ("0", "7", "2.5"):
                yield f"rurality={cell}", ds.csv_text(header, [row[:at] + [cell] + row[at + 1 :]])
        yield f"no {column} column", ds.csv_text(header[:at] + header[at + 1 :], [row[:at] + row[at + 1 :]])
    yield "empty id", ds.csv_text(header, [row, [""] + row[1:]])
    yield "duplicate id", ds.csv_text(header, [row, row])
    yield "no rows", ds.csv_text(header, [])
    yield "empty stream", ""


def _outcome(parse, text):
    """The parse result or the error's type and message, as comparable text."""
    try:
        return repr(parse(io.StringIO(text), 2021))
    except DataError as exc:
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize(
    "header, row, parse, oracle",
    [
        (["district_id", "district_name", *ds.VACCINE_COLUMNS], ["E1", "A", *map(str, _rates())],
         ds.parse_vaccination_table, _oracle_parse_vaccination_table),
        (["district_id", *ds.GDSC_COLUMNS], list(map(str, gdsc_row("E1"))),
         ds.parse_gdsc_table, _oracle_parse_gdsc_table),
    ],
    ids=["vaccination", "gdsc"],
)
def test_parsers_match_two_reader_oracles(header, row, parse, oracle):
    outcomes = {label: (_outcome(parse, text), _outcome(oracle, text)) for label, text in _battery(header, row)}
    assert len(outcomes) > 150
    differ = {label: pair for label, pair in outcomes.items() if pair[0] != pair[1]}
    if "imd_avg_score" in header:
        # the one difference: a score too long for a double is out of range, not inf
        assert differ.pop("imd_avg_score='999999999999'")[0] == (
            "OutOfRange: value inf out of range for column 'imd_avg_score' (district E1)"
        )
    assert differ == {}


def _parsed_pair(ids_vacc, ids_gdsc):
    vacc = ds.parse_vaccination_table(
        vacc_csv([[i, f"N{i}", *_rates()] for i in ids_vacc]), 2021
    )
    gdsc = ds.parse_gdsc_table(gdsc_csv([gdsc_row(i) for i in ids_gdsc]), 2021)
    return vacc, gdsc


def test_join_year_matches_and_sorts():
    vacc, gdsc = _parsed_pair(["B", "A", "C"], ["C", "A", "B"])
    joined = ds.join_year(vacc, gdsc, 2021)
    assert joined.ids == ("A", "B", "C")
    assert joined.names == ("NA", "NB", "NC")
    assert len(joined) == 3


def test_join_year_mismatch_reported_both_sides():
    vacc, gdsc = _parsed_pair(["A", "B"], ["B", "C"])
    with pytest.raises(JoinMismatch) as err:
        ds.join_year(vacc, gdsc, 2021)
    assert err.value.left_only == ["A"]
    assert err.value.right_only == ["C"]
    partial = ds.join_year(vacc, gdsc, 2021, allow_partial=True)
    assert partial.ids == ("B",)
    assert (partial.vaccination_only, partial.gdsc_only) == (("A",), ("C",))
    assert partial.rates.shape == (1, 14)
    disjoint = ds.join_year(*_parsed_pair(["A"], ["C"]), 2021, allow_partial=True)
    assert (disjoint.rates.shape, disjoint.gdsc.shape, disjoint.rurality.shape) == ((0, 14), (0, 8), (0,))


def test_join_year_150_districts():
    ids = [f"E{i:03d}" for i in range(150)]
    vacc, gdsc = _parsed_pair(ids, list(reversed(ids)))
    assert len(ds.join_year(vacc, gdsc, 2021)) == 150


def test_join_is_order_insensitive():
    ids = ["D", "A", "C", "B"]
    vacc1, gdsc1 = _parsed_pair(ids, ids)
    vacc2, gdsc2 = _parsed_pair(sorted(ids), sorted(ids, reverse=True))
    assert_same_dataset(ds.join_year(vacc1, gdsc1, 2021), ds.join_year(vacc2, gdsc2, 2021))


def test_standardize_two_point_column():
    sm = ds.standardize(np.array([[2.0], [4.0]]), ["x"])
    expected = 1.0 / math.sqrt(2.0)
    assert sm.values[:, 0] == pytest.approx([-expected, expected], abs=1e-12)
    assert sm.feature_means[0] == 3.0
    assert sm.feature_sds[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_standardize_constant_column_is_zeroed():
    sm = ds.standardize(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), ["a", "b"])
    assert np.all(sm.values[:, 0] == 0.0)
    assert sm.feature_sds[0] == 0.0


def test_standardize_output_moments(rng):
    matrix = rng.normal(loc=50, scale=9, size=(40, 6))
    sm = ds.standardize(matrix, [f"c{j}" for j in range(6)])
    assert np.abs(sm.values.mean(axis=0)).max() < 1e-9
    assert np.abs(sm.values.std(axis=0, ddof=1) - 1).max() < 1e-9


def test_standardize_requires_two_rows():
    with pytest.raises(TooFewRows):
        ds.standardize(np.array([[1.0, 2.0]]), ["a", "b"])


def test_parsing_row_order_insensitive():
    rows = [["E2", "B", *_rates(70)], ["E1", "A", *_rates(60)]]
    a = ds.parse_vaccination_table(vacc_csv(rows), 2021)
    b = ds.parse_vaccination_table(vacc_csv(list(reversed(rows))), 2021)
    assert a == b


def _columns(n, rate_columns=14):
    return {
        "ids": tuple(f"E{i}" for i in range(n)),
        "names": tuple(f"D{i}" for i in range(n)),
        "rates": np.full((n, rate_columns), 80.0),
        "gdsc": np.full((n, 8), 10.0),
        "rurality": np.ones(n, dtype=np.int64),
    }


def test_year_dataset_rejects_disagreeing_shapes():
    ds.YearDataset(year=2021, **_columns(3))
    with pytest.raises(ValueError, match="rates"):
        ds.YearDataset(year=2021, **_columns(3, rate_columns=13))
    for field, short in (
        ("ids", ("E0", "E1")),
        ("names", ("D0", "D1")),
        ("rates", np.full((2, 14), 80.0)),
        ("gdsc", np.full((2, 8), 10.0)),
        ("rurality", np.ones(2, dtype=np.int64)),
    ):
        with pytest.raises(ValueError):
            ds.YearDataset(year=2021, **{**_columns(3), field: short})


def test_year_dataset_arrays_are_read_only():
    dataset, _ = synth.generate(synth.default_spec(n_per_cluster=(3, 3)))
    for array in (dataset.rates, dataset.gdsc, dataset.rurality):
        with pytest.raises(ValueError):
            array[0] = 1


@pytest.mark.parametrize("bom_in", ["vaccination", "gdsc"])
def test_load_year_skips_byte_order_mark(tmp_path, bom_in):
    dataset, truth = synth.generate(synth.default_spec(n_per_cluster=(3, 3), seed=2))
    paths = synth.write_dataset_files(dataset, truth, tmp_path)
    plain = ds.load_year(paths["vaccination"], paths["gdsc"], 2021)
    path = tmp_path / f"{bom_in}_2021.csv"
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert_same_dataset(ds.load_year(paths["vaccination"], paths["gdsc"], 2021), plain)


def test_write_text_writes_the_whole_text_or_leaves_the_file_as_it_was(tmp_path, monkeypatch):
    path = tmp_path / "table.csv"
    ds.write_text(path, "a,b\r\n1,é\n")
    assert path.read_bytes() == "a,b\r\n1,é\n".encode()  # UTF-8, line ends as given
    umask = os.umask(0o022)
    os.umask(umask)
    assert path.stat().st_mode & 0o777 == 0o666 & ~umask  # not tempfile's 0600

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

    monkeypatch.setattr(os, "replace", cross_device)
    with pytest.raises(WriteError) as failed:
        ds.write_text(path, "x,y\n")
    assert isinstance(failed.value.__cause__, OSError)
    assert path.read_bytes() == "a,b\r\n1,é\n".encode()
    assert os.listdir(tmp_path) == ["table.csv"]  # the temporary file is gone
