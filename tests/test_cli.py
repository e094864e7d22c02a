import csv
import io
import json
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carshift import cli, modular


def write_config(tmp_path, kind, params=None, seed=11):
    lines = ["[experiment]", f"kind = {kind}", f"seed = {seed}", "", "[params]"]
    for key, val in (params or {}).items():
        lines.append(f"{key} = {val}")
    path = tmp_path / "config.ini"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_family(tmp_path, lambdas):
    body = "# one exponent per line: Re Im\n"
    body += "".join(f"{l.real} {l.imag}\n" for l in lambdas)
    path = tmp_path / "family.txt"
    path.write_text(body)
    return path.name


LIST_OUTPUT = """\
approx             family (path), t_grid (floats)
blaschke           family (path), samples (int)
car-check          modes (int), trials (int)
conjugacy          nu (float), family (path), horizons (floats), step (float), t_grid (floats)
dilation-check     family (path), step (float), horizon (float), t (float)
extension          nu (float), sizes (ints), case (equal|opposite|finite-rank)
innerness          nu (float), sizes (ints), case (minus-identity|finite-rank)
modular-verify     modes (int), nu (float)
pipeline           family (path), nu (float), step (float), horizons (floats)
prop2              family (path), delta_grid (floats), k_max (int)
quasifree-verify   modes (int), degree (int), trials (int)
"""


def test_list_prints_all_kinds(capsys):
    assert cli.main(["list"]) == 0
    assert capsys.readouterr().out == LIST_OUTPUT


def test_missing_config_is_a_config_error(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "nope.ini")]) == 2


def test_unknown_kind_is_a_config_error(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text("[experiment]\nkind = frobnicate\n")
    assert cli.main(["run", "--config", str(path)]) == 2


def test_bad_parameter_is_a_config_error(tmp_path):
    config = write_config(tmp_path, "car-check", {"modes": "many"})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind", ["blaschke", "pipeline"])
def test_missing_family_is_a_config_error(tmp_path, capsys, kind):
    config = write_config(tmp_path, kind)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert "missing parameter 'family'" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["innerness", "extension"])
def test_unknown_case_is_a_config_error(tmp_path, capsys, kind):
    config = write_config(tmp_path, kind, {"case": "nope"})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert "parameter 'case'" in capsys.readouterr().err


def test_family_failing_condition_1_is_a_config_error(tmp_path, capsys):
    (tmp_path / "family.txt").write_text("1.0 0.0\n")
    config = write_config(tmp_path, "approx", {"family": "family.txt"})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert "config error: parameter 'family': condition (1)" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["innerness", "conjugacy", "modular-verify"])
def test_scalar_nu_outside_unit_interval_is_an_error(tmp_path, kind, capsys):
    # modular-verify takes nu = nan, which the covariance check must refuse
    # before LAPACK fails on it
    nu, error = (("nan", "covariance must have finite entries") if kind == "modular-verify"
                 else (1.5, "nu must lie in (0, 1)"))
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), "nu": nu}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / f"{kind}.csv").exists()
    assert error in capsys.readouterr().err


def test_malformed_family_file(tmp_path):
    (tmp_path / "family.txt").write_text("-1.0\n")
    config = write_config(tmp_path, "blaschke", {"family": "family.txt"})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("entry", ["nan 0.0", "-1.0 inf", "-inf 0.5"])
def test_non_finite_exponent_in_a_family_file_is_a_config_error(tmp_path, capsys, entry):
    # every comparison with NaN is False, so condition (1) alone lets nan through
    # to LAPACK; the loader names the file and the line instead
    (tmp_path / "family.txt").write_text(f"-1.0 0.0\n{entry}\n")
    config = write_config(tmp_path, "blaschke", {"family": "family.txt", "samples": 10})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 2
    assert not (tmp_path / "blaschke.csv").exists()
    err = capsys.readouterr().err
    assert f"family.txt:2: exponent must be finite, got '{entry}'" in err
    assert "SVD" not in err


def test_car_check_passes_and_writes_reports(tmp_path):
    config = write_config(tmp_path, "car-check", {"modes": 3, "trials": 20})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "car-check.json").read_text())
    assert all(v["pass"] for v in report["verdicts"].values())
    header = (tmp_path / "car-check.csv").read_text().splitlines()[0]
    assert header == "trial,anticomm_ff,anticomm_star,norm_residual"


def test_csv_bytes_deterministic(tmp_path):
    fam = write_family(tmp_path, [-1.0 + 0.0j])
    runs = [
        ("blaschke", {"family": fam, "samples": 100}),
        ("conjugacy", {"family": fam}),
        ("pipeline", {"family": fam}),
        ("car-check", {"modes": 4, "trials": 5}),
        ("quasifree-verify", {"modes": 3, "degree": 4, "trials": 5}),
        ("modular-verify", {"modes": 3, "nu": 0.3}),
    ]
    runs += [("innerness", {"case": case}) for case in ("minus-identity", "finite-rank")]
    runs += [("extension", {"case": case}) for case in ("equal", "opposite", "finite-rank")]
    runs += [
        (kind, {"family": fam, **SMALL_PARAMS[kind]})
        for kind in ("approx", "prop2", "dilation-check")
    ]
    assert {kind for kind, _ in runs} == set(cli.EXPERIMENTS)
    for idx, (kind, params) in enumerate(runs):
        config = write_config(tmp_path, kind, params)
        out1, out2 = tmp_path / str(idx) / "a", tmp_path / str(idx) / "b"
        assert cli.main(["run", "--config", config, "--out", str(out1)]) == 0
        assert cli.main(["run", "--config", config, "--out", str(out2)]) == 0
        assert (out1 / f"{kind}.csv").read_bytes() == (out2 / f"{kind}.csv").read_bytes()


SMALL_PARAMS = {
    "car-check": {"modes": 2, "trials": 3},
    "quasifree-verify": {"modes": 2, "degree": 2, "trials": 3},
    "modular-verify": {"modes": 2},
    "innerness": {"sizes": "4 8 16"},
    "extension": {"sizes": "4 8 16"},
    "conjugacy": {"horizons": "12 16"},
    "approx": {},
    "blaschke": {"samples": 20},
    "prop2": {"delta_grid": "0.125 0.0625", "k_max": 8},
    "dilation-check": {"step": 0.0625},
    "pipeline": {"horizons": "12 16"},
}


@pytest.mark.parametrize("kind", sorted(cli.EXPERIMENTS))
def test_csv_cells_are_plain_numbers(tmp_path, kind):
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), **SMALL_PARAMS[kind]}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    assert "np." not in (tmp_path / f"{kind}.csv").read_text()


def reference_csv(columns, rows):
    """Reference CSV bytes, written a row at a time: rows sorted by the str of
    their cells, one _fmt per cell, csv.writer."""

    def fmt(value):
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in sorted(rows, key=lambda r: tuple(str(x) for x in r)):
        writer.writerow([fmt(x) for x in row])
    return buf.getvalue().encode()


def written_csv(out_dir, table):
    config = {"kind": "table", "seed": 0, "params": {}}
    cli.write_reports(str(out_dir), config, table, {}, {}, 0.0)
    return (out_dir / "table.csv").read_bytes()


def table_of(columns, rows):
    """The column table of ``rows``, one list per name in ``columns``."""
    return {name: [row[k] for row in rows] for k, name in enumerate(columns)}


def assert_matches_reference(out_dir, table):
    """The writer's bytes for ``table`` equal the row-at-a-time oracle's;
    returns them."""
    text = written_csv(out_dir, table)
    assert text == reference_csv(list(table), zip(*table.values()))
    return text


@pytest.mark.parametrize("kind", sorted(cli.EXPERIMENTS))
def test_csv_matches_the_row_at_a_time_writer(tmp_path, kind):
    body, spec = cli.EXPERIMENTS[kind]
    fam3 = [-1.0 + 0.0j, -2.0 + 0.5j, -0.5 + 1.0j]
    raw = {"family": write_family(tmp_path, fam3), **SMALL_PARAMS[kind]}
    params = cli.parse_params(spec, {key: str(val) for key, val in raw.items()}, str(tmp_path))
    table, _, _ = body(11, **params)
    assert_matches_reference(tmp_path, table)


def test_csv_matches_the_row_at_a_time_writer_on_edge_values(tmp_path):
    floats = [-0.0, 0.0, 1e16, 1e-05, 5e-324, np.inf, -np.inf, np.nan, 0.1, -2.5, 1.0, 10.0]
    rows = [
        ("flow" if i % 2 else "shift", i, np.int64(-i), x, np.float64(x), 1 if i % 3 else 0.5)
        for i, x in enumerate(floats)
    ]
    rows += rows[:4] + [("condition-1", np.int64(7), 7, np.nan, np.float64(1e16), 1)] * 2
    columns = ["stage", "int", "np_int", "float", "np_float", "mixed"]
    text = assert_matches_reference(tmp_path, table_of(columns, rows))
    assert {line.rsplit(b",", 1)[1] for line in text.splitlines()[1:]} == {b"1", b"0.5"}


def test_csv_quotes_cells_that_need_it(tmp_path):
    rows = [(2, 'say "hi"'), (1, "a,b"), (3, "two\nlines"), (4, "plain")]
    columns = ["n", "note, quoted"]
    text = assert_matches_reference(tmp_path, table_of(columns, rows))
    read = list(csv.reader(io.StringIO(text.decode())))
    assert read == [columns] + [[str(n), note] for n, note in sorted(rows)]


_PY_FLOATS = st.floats()
_NP_FLOATS = st.floats().map(np.float64)
_PY_INTS = st.integers(-(10 ** 20), 10 ** 20)
_NP_INTS = st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64)
_ANY_CELLS = st.one_of(_PY_FLOATS, _NP_FLOATS, _PY_INTS, _NP_INTS)
_FLOAT_ARRAY = object()  # floats handed over as one np.float64 array
_COLUMN_CELLS = [_PY_FLOATS, _NP_FLOATS, _PY_INTS, _NP_INTS, _ANY_CELLS, _FLOAT_ARRAY]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_csv_matches_the_row_at_a_time_writer_on_random_rows(tmp_path_factory, data):
    kinds = data.draw(st.lists(st.sampled_from(_COLUMN_CELLS), min_size=1, max_size=4))
    cells = [_PY_FLOATS if c is _FLOAT_ARRAY else c for c in kinds]
    rows = [tuple(data.draw(c) for c in cells) for _ in range(data.draw(st.integers(0, 12)))]
    if rows:
        rows += data.draw(st.lists(st.sampled_from(rows), max_size=4))
    table = table_of(["c%d" % i for i in range(len(cells))], rows)
    for name, kind in zip(table, kinds):
        if kind is _FLOAT_ARRAY:
            table[name] = np.array(table[name], dtype=np.float64)
    assert_matches_reference(tmp_path_factory.mktemp("csv"), table)


def _float64(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def test_csv_of_float_arrays_on_edge_values(tmp_path):
    # NaNs of both signs and one with a payload all print as "nan"; -0.0 and
    # 0.0 stay apart
    nans = [_float64(0x7FF8000000000000), _float64(0xFFF8000000000000), _float64(0x7FF0000000000123)]
    values = np.array([-0.0, 0.0, *nans, np.inf, -np.inf, 5e-324, 1e16, 1.0])
    assert len({x.tobytes() for x in values}) == len(values)
    first = np.tile(values, 3)
    table = {"x": first, "y": np.roll(first, 6), "n": list(range(len(first)))[::-1]}
    text = assert_matches_reference(tmp_path, table)
    assert text.count(b"\nnan,") == 9 and b"\n-0.0," in text and b"\n0.0," in text


def test_csv_of_a_long_column_with_three_distinct_values(tmp_path):
    rng = np.random.default_rng(5)
    table = {
        "abs_b": rng.choice([1.0, 0.9999999999999999, 1.0000000000000002], 1000),
        "k": rng.integers(0, 1000, 1000).tolist(),
        "y": rng.standard_normal(1000),
    }
    text = assert_matches_reference(tmp_path, table)
    assert len(text.splitlines()) == 1001


def test_csv_of_a_table_with_zero_rows_is_the_header(tmp_path):
    table = {"y": np.empty(0), "abs_b": [], "stage": np.array([], dtype=np.int64)}
    assert assert_matches_reference(tmp_path, table) == b"y,abs_b,stage\n"
    assert json.loads((tmp_path / "table.json").read_text())["rows"] == 0


def test_columns_of_unequal_length_are_refused_before_writing(tmp_path):
    # zip would have cut every column to the shortest
    out_dir = tmp_path / "out"
    with pytest.raises(ValueError, match="table columns differ in length"):
        written_csv(out_dir, {"y": np.zeros(3), "abs_b": [1.0, 1.0]})
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("car-check", "trials", 0),
        ("car-check", "modes", 0),
        ("quasifree-verify", "trials", 0),
        ("quasifree-verify", "modes", -1),
        ("modular-verify", "modes", 0),
        ("blaschke", "samples", 0),
        ("prop2", "k_max", -1),
        ("innerness", "sizes", "0 4"),
        ("extension", "sizes", "4 -8 16"),
    ],
)
def test_count_below_one_is_a_config_error(tmp_path, capsys, kind, name, value):
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), name: value}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: parameter %r: must be a positive integer" % name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("degree", [0, -2, 3])
def test_degree_not_positive_even_is_a_config_error(tmp_path, capsys, degree):
    # half = degree // 2 would check the empty product (0, -2) or degree 2 (3)
    config = write_config(tmp_path, "quasifree-verify", {"modes": 2, "degree": degree, "trials": 2})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: degree must be a positive even integer, got %d" % degree in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("dilation-check", "step", 0),
        ("dilation-check", "horizon", 0),
        ("dilation-check", "t", -0.25),
        ("conjugacy", "horizons", "12 0"),
        ("conjugacy", "t_grid", "-0.25 0.5"),
        ("approx", "t_grid", "-0.0625 0.125"),
        ("prop2", "delta_grid", "0.125 -0.0625"),
        ("pipeline", "step", -0.0625),
        ("pipeline", "horizons", "nan"),
        ("dilation-check", "step", "inf"),
    ],
)
def test_time_or_grid_parameter_not_positive_is_a_config_error(tmp_path, capsys, kind, name, value):
    # unchecked, these reach numpy and LAPACK as a division by zero, empty or
    # negative shapes, or a conjugacy verdict at a negative time
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), name: value}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error: parameter %r: must be a positive number" % name in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params",
    [
        ("approx", {"t_grid": "0.25"}),
        ("prop2", {"delta_grid": "0.125", "k_max": 8}),
        ("innerness", {"sizes": "4 4"}),
    ],
)
def test_slope_of_fewer_than_two_distinct_points_is_an_error(tmp_path, capsys, kind, params):
    # polyfit would warn and fit a slope to one point, which innerness would
    # report and approx and prop2 would judge
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), **params}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "error: a power fit needs two distinct abscissae" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, params",
    [
        # t = 100 is 6.25 turns of the 16-long circle: the compression residual
        # read 0.9998 and the unitarity verdict passed
        ("dilation-check", {"step": 0.0625, "horizon": 8, "t": 100}),
        # t = 16 is two turns of the circle at horizon 4: the criterion read 0.0
        ("conjugacy", {"horizons": "4 8", "t_grid": "16"}),
    ],
)
def test_time_at_or_past_the_smallest_horizon_is_an_error(tmp_path, capsys, kind, params):
    params = {"family": write_family(tmp_path, [-1.0 + 0.0j]), **params}
    config = write_config(tmp_path, kind, params)
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "must lie below the horizon" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_modular_verify_at_six_modes(tmp_path):
    config = write_config(tmp_path, "modular-verify", {"modes": 6})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "modular-verify.json").read_text())
    assert sorted(report["verdicts"]) == [
        "commutant_identity", "delta_spectrum", "involution_formula", "kms_condition"
    ]
    assert all(v["pass"] for v in report["verdicts"].values())
    header = (tmp_path / "modular-verify.csv").read_text().splitlines()[0]
    assert header.endswith(",solve_residual,kms_residual")


@pytest.mark.parametrize("kind", ["modular-verify", "quasifree-verify"])
def test_doubled_representation_beyond_six_modes_is_an_error(tmp_path, capsys, kind):
    # 2 * 7 modes exceed fock.MAX_MODES = 12: refused before anything is built
    config = write_config(tmp_path, kind, {"modes": 7})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert "error: doubled representation needs 2*7 <= 12 modes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_modular_verify_at_the_trace(tmp_path):
    # nu = 1/2, the II_1 case: Delta = 1 on every charge sector, the 0th
    # power of the ratio nu/(1-nu) = 1
    config = write_config(tmp_path, "modular-verify", {"modes": 2, "nu": 0.5})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "modular-verify.json").read_text())
    assert report["verdicts"]["delta_spectrum"]["value"] <= 1e-12


def test_modular_verify_at_small_nu(tmp_path):
    # the eigenvalues of Delta span ((1 - nu)/nu)^(+-5) ~ 1e(+-10): an absolute
    # residual reads the rounding of the largest; a relative one per sector does not
    config = write_config(tmp_path, "modular-verify", {"modes": 5, "nu": 0.01})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "modular-verify.json").read_text())
    assert report["verdicts"]["delta_spectrum"]["value"] <= 1e-12


def test_delta_spectrum_fails_when_two_sectors_exchange_eigenvalues(tmp_path, monkeypatch):
    # sectors 1 and -1 hold ratio and 1/ratio: the same multiset of powers of
    # the ratio, so only a check per sector sees the exchange
    solve = modular.tomita_operator

    def exchanged(rep):
        data = solve(rep)
        w, labels = data.delta_eigenvalues, data.labels
        w[labels == 1], w[labels == -1] = w[labels == -1], w[labels == 1]
        return data

    monkeypatch.setattr(modular, "tomita_operator", exchanged)
    config = write_config(tmp_path, "modular-verify", {"modes": 3})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 1
    verdicts = json.loads((tmp_path / "modular-verify.json").read_text())["verdicts"]
    assert [name for name, v in verdicts.items() if not v["pass"]] == ["delta_spectrum"]


def _conjugacy_values(tmp_path, step):
    fam = write_family(tmp_path, [-1.0 + 0.0j])
    config = write_config(tmp_path, "conjugacy", {"family": fam, "step": step})
    out = tmp_path / str(step)
    assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
    assert json.loads((out / "conjugacy.json").read_text())["extra"]["verdict"] == "converges"
    rows = [line.split(",") for line in (out / "conjugacy.csv").read_text().splitlines()[1:]]
    return sorted((float(t), int(size), float(val)) for t, size, val in rows)


def test_conjugacy_beyond_the_dense_cap(tmp_path):
    # horizons 12/16/20 at step 1/256 give grid dims 6144/8192/10240, above
    # the 6000 cap of DilationOperator.to_dense
    fine = _conjugacy_values(tmp_path, 1.0 / 256)
    coarse = _conjugacy_values(tmp_path, 1.0 / 16)
    assert [size for _, size, _ in fine] == [6144, 8192, 10240] * 2
    for (t, _, val), (t_ref, _, ref) in zip(fine, coarse):
        assert t == t_ref
        assert val == pytest.approx(ref, rel=0, abs=1e-9)


def test_seed_flag_overrides_config(tmp_path):
    config = write_config(tmp_path, "car-check", {"modes": 2, "trials": 5}, seed=1)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", config, "--out", str(out1)])
    cli.main(["run", "--config", config, "--out", str(out2), "--seed", "99"])
    assert (out1 / "car-check.csv").read_text() != (out2 / "car-check.csv").read_text()
    report = json.loads((out2 / "car-check.json").read_text())
    assert report["seed"] == 99


def test_innerness_diverging_case_still_exits_zero(tmp_path):
    # a diverging trend is a finding, not a failure
    config = write_config(tmp_path, "innerness", {"case": "minus-identity", "nu": 0.3})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "innerness.json").read_text())
    assert report["extra"]["verdict"] == "diverges"


def test_prop2_run(tmp_path):
    fam = write_family(tmp_path, [-1.0 + 0.0j])
    config = write_config(
        tmp_path,
        "prop2",
        {"family": fam, "delta_grid": "0.125 0.0625 0.03125 0.015625", "k_max": 24},
    )
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "prop2.json").read_text())
    assert abs(report["extra"]["slope"] - 0.5) <= 0.15


def test_dilation_check_records_its_size(tmp_path):
    from carshift import hardyshift

    lambdas = [-1.0 + 0.0j, -2.0 + 0.5j, -0.5 + 1.0j]
    fam = write_family(tmp_path, lambdas)
    config = write_config(tmp_path, "dilation-check", {"family": fam, "step": 0.0625})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
    extra = json.loads((tmp_path / "dilation-check.json").read_text())["extra"]
    basis = hardyshift.orthogonalize(hardyshift.ExponentialFamily(lambdas))
    flow = hardyshift.GridModel(basis, 8.0, 0.0625).flow_dilation(0.25)
    assert extra["dim"] == 256
    assert extra["factor_columns"] == flow.x.shape[1] > 3


def _pipeline(tmp_path, name, lambdas, **params):
    fam = write_family(tmp_path, lambdas)
    config = write_config(tmp_path, "pipeline", {"family": fam, **params})
    out = tmp_path / name
    status = cli.main(["run", "--config", config, "--out", str(out)])
    return status, json.loads((out / "pipeline.json").read_text()), (out / "pipeline.csv").read_bytes()


def test_pipeline_default_horizons_follow_the_family(tmp_path):
    # slowest decay 1/2: default horizons 24/32/40; 12/16/20 fail the
    # approximation verdict (off-space deviation 1.07e-4 > 1e-6)
    fam3 = [-1.0 + 0.0j, -2.0 + 0.5j, -0.5 + 1.0j]
    status, report, _ = _pipeline(tmp_path, "default", fam3)
    assert status == 0
    assert report["verdicts"]["approximation"]["value"] <= 1e-6
    assert report["extra"]["edge_tail"] == pytest.approx(np.exp(-20.0), rel=1e-12)
    status, report, _ = _pipeline(tmp_path, "fixed", fam3, horizons="12 16 20")
    assert status == 1
    assert report["extra"]["edge_tail"] == pytest.approx(np.exp(-10.0), rel=1e-12)


def test_pipeline_default_horizons_unchanged_for_unit_decay(tmp_path):
    status, report, default = _pipeline(tmp_path, "default", [-1.0 + 0.0j])
    assert status == 0
    assert report["extra"]["edge_tail"] == pytest.approx(np.exp(-20.0), rel=1e-12)
    status, _, explicit = _pipeline(tmp_path, "fixed", [-1.0 + 0.0j], horizons="12 16 20")
    assert status == 0
    assert default == explicit


def test_comment_and_blank_lines_in_family(tmp_path):
    (tmp_path / "family.txt").write_text(
        textwrap.dedent(
            """\
            # family with a comment and a blank line

            -1.0 0.0   # trailing comment
            """
        )
    )
    config = write_config(tmp_path, "blaschke", {"family": "family.txt", "samples": 50})
    assert cli.main(["run", "--config", config, "--out", str(tmp_path)]) == 0
