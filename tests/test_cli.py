import copy
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from dataclasses import astuple, replace
from fractions import Fraction
from pathlib import Path

import pytest

from ridepool import cli, harness, netgraph
from ridepool.cli import main
from ridepool.domain import Request
from ridepool.harness import SUMMARY_METRICS, ScenarioGrid, run_grid, summarize
from ridepool.io import (
    BRACKET_COLUMNS, CELL_COLUMNS, SPLIT_COLUMNS, SUMMARY_COLUMNS, SUMMARY_FIELDS, TRIP_COLUMNS,
    cell_fields, load_run_accounts_csv, load_summary_csv, load_trips_csv,
)
from ridepool.mechanisms import Mechanism
from ridepool.units import MILS, USEC, fmt4, fmt_opt, fmt_seconds, fmt_usd, usec_from_seconds


CONFIG = {
    "network": {"grid": {"rows": 6, "cols": 6, "edge_length_mi": 0.15, "speed_mph": 30}},
    "horizon_s": 1200,
    "tariff": {
        "base_fare_usd": 2.5,
        "per_mile_usd": 2.5,
        "provider_cost_per_mile_usd": 2.945,
        "change_fee_usd": [2.0],
        "discount_factor": [0.8],
        "detour_factor": [0.3],
    },
    "mechanisms": ["SRO", "PCP", "CCP"],
    "max_wait_s": [240],
    "mar": [0.0, 0.5, 1.0],
    "fleet_size": [8],
    "seeds": [1, 2],
    "split_scheme": "goalprog",
}


def simulate(base, config):
    """Run `simulate` on `config` over 100 synthetic trips into `base`."""
    cfg = base / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = base / "out"
    rc = main(["simulate", "--config", str(cfg), "--trips", "synthetic:n=100,seed=4",
               "--out", str(out)])
    assert rc == 0
    return base, cfg, out


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    return simulate(tmp_path_factory.mktemp("cli"), CONFIG)


@pytest.fixture(scope="module")
def outcomes():
    """The cells `simulated` wrote, simulated again through `run_grid`."""
    net = cli._network_from_config(CONFIG)
    grid = cli._grid_from_config(CONFIG)
    return run_grid(grid, cli._load_trips("synthetic:n=100,seed=4", net, grid.horizon // USEC), net)


def output_digests(out):
    """The SHA-256 of each file `simulate` wrote to `out`."""
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("summary.csv", "decisions.csv", "splits.csv", "run_accounts.csv")}


# decisions.csv's column groups, by position: its header names `mechanism`
# twice, the cell's and the decision row's
DECISION_GROUPS = {"cell": range(0, 8), "decision": range(8, 18)}


def group_digests(path, groups=DECISION_GROUPS):
    """The SHA-256 of a CSV's header and of each group's columns over its
    rows, once the groups are seen to partition the header's positions.  A
    column added in a new group leaves the old groups' digests as they were."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert sorted(i for cols in groups.values() for i in cols) == list(range(len(header)))
    parts = {"header": header}
    parts.update({name: [[row[i] for i in cols] for row in rows] for name, cols in groups.items()})
    return {name: hashlib.sha256(json.dumps(part).encode()).hexdigest()
            for name, part in parts.items()}


DECISION_GROUP_PINS = {
    "header": "0b2a8f25ee52cd11408ad14e0eb33fd51cb78dcb837ccd1eed887fa8288f9d44",
    "cell": "88f8f1660f4a28df3f4d0143d632d0fec0eeaa28bdb420a79b21df646d0a0db2",
    "decision": "06ad18f6f91f3295e8379b7c04de88d0bc125ccb8b186057b3bbfe830ebfd7ce",
}


class TestSimulate:
    def test_outputs_exist(self, simulated):
        _, _, out = simulated
        for name in ("summary.csv", "decisions.csv", "splits.csv", "run_accounts.csv"):
            assert (out / name).exists()

    def test_summary_has_row_per_simulation(self, simulated):
        _, _, out = simulated
        lines = (out / "summary.csv").read_text().strip().splitlines()
        # SRO: 2 seeds; PCP and CCP: 3 mars x 2 seeds each
        assert len(lines) == 1 + 2 + 6 + 6

    def test_byte_identical_reruns(self, simulated):
        base, cfg, out = simulated
        out2 = base / "out2"
        assert main(["simulate", "--config", str(cfg), "--trips", "synthetic:n=100,seed=4",
                     "--out", str(out2)]) == 0
        for name in ("summary.csv", "decisions.csv", "splits.csv", "run_accounts.csv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_decision_kinds_present(self, simulated):
        # the pinned outputs below cover every decision kind each mechanism makes
        _, _, out = simulated
        with open(out / "decisions.csv", newline="") as fh:
            kinds = {(row["mechanism"], row["decision"]) for row in csv.DictReader(fh)}
        pooling = {(m, k) for m in ("PCP", "CCP") for k in ("unserved", "solitary", "pooled")}
        assert kinds == pooling | {("SRO", "unserved"), ("SRO", "solitary")}

    def test_outputs_are_pinned(self, simulated):
        # simulate's files for this grid, byte for byte
        _, _, out = simulated
        assert output_digests(out) == {
            "summary.csv": "6fa46d6edc4c894e36bb9196823a9c8c10940a85e7ed55c7e194c9056699e903",
            "decisions.csv": "b7cb256e8b229656af1156c576bb812b05e31e990d52bf01756e4eb87c5dd9f2",
            "splits.csv": "5464ab0bf017e2feba3c6627a1c071270f09a61c439a5a824f14b60495b8081d",
            "run_accounts.csv": "5058144fe63dac34437bd906a798ee581b3812a334379fa742c61fa1c632946f",
        }
        assert group_digests(out / "decisions.csv") == DECISION_GROUP_PINS

    def test_shapley_outputs_are_pinned(self, tmp_path):
        # the same grid under the default split scheme, which changes only
        # the split fares: decisions and run accounts match the pins above
        _, _, out = simulate(tmp_path, dict(CONFIG, split_scheme="shapley"))
        assert output_digests(out) == {
            "summary.csv": "7047910a625bba20384ca675ffda9b814f77a7f2fe38561a7e5ba180aa5e31d7",
            "decisions.csv": "b7cb256e8b229656af1156c576bb812b05e31e990d52bf01756e4eb87c5dd9f2",
            "splits.csv": "9b5bcac248d437b7b90ab13b76b67a443b6491d51e495fd69ef0ae3c2f835ae6",
            "run_accounts.csv": "5058144fe63dac34437bd906a798ee581b3812a334379fa742c61fa1c632946f",
        }
        assert group_digests(out / "decisions.csv") == DECISION_GROUP_PINS

    def test_discount_axis_outputs_are_pinned(self, tmp_path):
        # three discounts, two detours, three MARs and two seeds: the PCP
        # cells past the first discount re-price that cell's decisions, and
        # the files match those of a grid that simulated every cell
        config = copy.deepcopy(CONFIG)
        config["tariff"].update(discount_factor=[0.7, 0.8, 1], detour_factor=[0.3, 0.5])
        _, _, out = simulate(tmp_path, config)
        digests = output_digests(out)
        assert {name: digests[name] for name in ("summary.csv", "decisions.csv")} == {
            "summary.csv": "7179c48593dce9ab58948b2f34024e6c248b934c178e59515c1ed310627c567a",
            "decisions.csv": "161d7e174773b5c288c7a4386e333859a4a8167b39b1384039ff9c62a4c90bfb",
        }
        assert group_digests(out / "decisions.csv") == {
            "header": DECISION_GROUP_PINS["header"],
            "cell": "d3a70bfcb85d31c47287138b92e11c8f7912246765a84739bcebd043e8917130",
            "decision": "770cbfb080b2cfb423da010e706ac94b31ee6f8510e55b9c156f0c7f0e5c9b4e",
        }
        # SRO: 2 seeds; PCP: 3 discounts x 2 detours x 3 mars x 2 seeds; CCP: 3 mars x 2 seeds
        assert len((out / "summary.csv").read_text().splitlines()) == 1 + 2 + 36 + 6

    def test_a_changed_cell_moves_only_its_groups_digest(self, simulated, tmp_path):
        # the header and each group are pinned apart, so a one-cell change,
        # in the header or in any group, fails exactly one of those pins
        _, _, out = simulated
        with open(out / "decisions.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows[0]) == 18
        copied = tmp_path / "decisions.csv"
        for row, col, group in ((0, 3, "header"), (1, 0, "cell"), (5, 7, "cell"),
                                (2, 8, "decision"), (9, 17, "decision")):
            changed = copy.deepcopy(rows)
            changed[row][col] += "x"
            with open(copied, "w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(changed)
            got = group_digests(copied)
            assert {name for name, pin in DECISION_GROUP_PINS.items() if got[name] != pin} == {
                group}

    def test_trip_max_wait_gives_way_to_the_config_axis(self, simulated, tmp_path):
        # every cell replaces each trip's max_wait_s with the max_wait_s
        # axis, so trip files that differ only there give the same outputs
        # as the synthetic trips (600 s) behind `simulated`
        trips = harness.synthetic_trips(cli._network_from_config(CONFIG), 100, 1200, seed=4)
        cfg = simulated[1]
        for wait_s in (1, 5000):
            path = tmp_path / f"trips{wait_s}.csv"
            save_trips_csv([replace(r, max_wait=wait_s * USEC) for r in trips], path)
            out = tmp_path / f"out{wait_s}"
            assert main(["simulate", "--config", str(cfg), "--trips", str(path),
                         "--out", str(out)]) == 0
            assert output_digests(out) == output_digests(simulated[2])

    def test_horizon_in_any_spelling_gives_the_same_outputs(self, tmp_path):
        # the synthetic trips re-read horizon_s with int(), which failed on
        # "1e3" although the grid reads it as 1000 s
        digests = []
        for horizon in (1000, "1e3"):
            (tmp_path / str(horizon)).mkdir()
            _, _, out = simulate(tmp_path / str(horizon), {**CONFIG, "horizon_s": horizon})
            digests.append(output_digests(out))
        assert digests[0] == digests[1]


def fails_cleanly(capsys, argv):
    """Run `main(argv)`, check that it exits 2 having printed only one
    stderr line that names the command, and return that line."""
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"ridepool {argv[0]}: ") and err.count("\n") == 1, err
    return err.rstrip("\n")


def config_error(tmp_path, capsys, config, trips="synthetic:n=5"):
    """Run `simulate` on `config` over `trips`, check that it fails cleanly
    before writing any output, and return its stderr line."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    err = fails_cleanly(capsys, ["simulate", "--config", str(cfg), "--trips", trips,
                                 "--out", str(out)])
    assert not out.exists()
    return err


class TestStrictConfig:
    @pytest.mark.parametrize("edit,section,bad,allowed", [
        (lambda c: c.update(fleet_sizes=[30]), "config", "fleet_sizes", "fleet_size"),
        (lambda c: c["tariff"].update(change_fee=[2.0]), "tariff", "change_fee",
         "change_fee_usd"),
        (lambda c: c["network"]["grid"].update(speed=30), "network.grid", "speed",
         "speed_mph"),
        (lambda c: c["network"].update(grids={}), "network", "grids", "file"),
    ])
    def test_unknown_key_rejected_with_allowed_keys(self, tmp_path, capsys, edit, section, bad,
                                                    allowed):
        cfg = json.loads(json.dumps(CONFIG))
        edit(cfg)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        msg = fails_cleanly(capsys, ["simulate", "--config", str(path), "--trips",
                                     "synthetic:n=10,seed=4", "--out", str(tmp_path / "out")])
        assert f"unknown {section} key(s) {bad!r}" in msg
        assert allowed in msg.split("allowed: ")[1].split(", ")
        assert not (tmp_path / "out").exists()

    def test_defaults_are_pinned(self):
        # each key left out takes ScenarioGrid's default
        grid = cli._grid_from_config({"network": CONFIG["network"]})
        assert grid == ScenarioGrid()
        assert astuple(grid) == (
            (Mechanism.SRO, Mechanism.PCP, Mechanism.CCP), (360 * USEC,), (Fraction(1, 2),),
            (30,), (2000,), (Fraction(4, 5),), (Fraction(3, 10),), (1,),
            2500, 2500, 2945, (166, 195, 225, 254, 283), "shapley",
            (Fraction(5, 100), Fraction(10, 100), Fraction(15, 100), Fraction(20, 100)),
            1800 * USEC,
        )

    def test_readme_keys_and_example(self):
        # the README lists every key once with its default, and its example
        # config gives every key
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| key | default | range |\n|---|---|---|\n")[1].split("\n\n")[0]
        rows = [[cell.strip() for cell in line.strip("|").split("|")]
                for line in table.splitlines()]
        defaults = {"network": CONFIG["network"], "tariff": {}}
        for key, default, _ in rows[1:]:
            section, _, name = key.split("`")[1].rpartition(".")
            (defaults[section] if section else defaults)[name] = json.loads(default.strip("`"))
        assert [row[0].split("`")[1] for row in rows] == [
            *(k for k in cli.CONFIG_KEYS if k != "tariff"), *(f"tariff.{k}" for k in cli.TARIFF_KEYS)]
        assert cli._grid_from_config(defaults) == ScenarioGrid()
        example = json.loads(readme.split("```json\n")[1].split("```")[0])
        assert set(example) == set(cli.CONFIG_KEYS)
        assert set(example["tariff"]) == set(cli.TARIFF_KEYS)
        grid = cli._grid_from_config(example)
        assert (grid.change_fees, grid.max_waits) == ((2000, 2500), (240 * USEC, 360 * USEC))


def flat_metrics(m: dict) -> dict:
    """Cell metrics `m`, each bracket keyed ("brackets", threshold) as in `SUMMARY_FIELDS`."""
    return {key: value for key, value in m.items() if key != "brackets"} | {
        ("brackets", t): value for t, value in m["brackets"].items()}


class TestAnalyze:
    def test_analyze_writes_reports(self, simulated):
        _, _, out = simulated
        assert main(["analyze", "--in", str(out), "--brackets", "--pareto"]) == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "brackets.csv").exists()
        assert (out / "pareto.csv").exists()
        header = (out / "brackets.csv").read_text().splitlines()[0]
        assert header == "setting,mar,br0,br5,br10,br15,br20"

    def test_reports_are_pinned(self, simulated):
        # analyze's reports for this grid, byte for byte
        _, _, out = simulated
        assert main(["analyze", "--in", str(out), "--brackets", "--pareto"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("aggregate.csv", "brackets.csv", "pareto.csv")}
        assert digests == {
            "aggregate.csv": "2fcdd8c6d32afad1bdc6a06bb59501de38ffccea63dc8fe1a38445305bc2c8ef",
            "brackets.csv": "2da705c5158359a5f84f62f7bb954c69eb93f18907452e2b85f315a84a115c63",
            "pareto.csv": "126cb3aee5a05ba80440a06ae3631b3645c53cf637cf5aaa71d1771e8a55b64f",
        }

    def test_unserved_share_matches_summarize(self, simulated, outcomes, tmp_path):
        # both sides are exact: analyze takes the share from the integer
        # counts, so its mean renders as summarize's exact mean does
        _, _, out = simulated
        assert main(["analyze", "--in", str(out), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "aggregate.csv", newline="") as fh:
            analyzed = {(row["setting"], row["mar"]): row["unserved_pct"]
                        for row in csv.DictReader(fh)}
        expected = {}
        for s in summarize(outcomes):
            p = s.params
            setting = "|".join((s.mechanism, fmt_opt(p["fee"], fmt_usd), fmt_opt(p["discount"]),
                                fmt_opt(p["detour"]), str(p["max_wait"] // USEC), str(p["fleet"])))
            for mar in s.mars():
                expected[setting, fmt4(mar)] = fmt_opt(s.per_mar[mar]["unserved_pct"])
        assert len(expected) == 6
        assert analyzed == expected

    def test_zero_request_cell(self, tmp_path):
        # a horizon that ends before the first request leaves every cell
        # without requests, so its shares are n/a
        cfg = dict(CONFIG, horizon_s=5, mechanisms=["SRO", "CCP"], fleet_size=[3])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--trips",
                     "synthetic:n=5,seed=1,horizon_s=1800", "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            assert {row["requests"] for row in csv.DictReader(fh)} == {"0"}
        assert main(["analyze", "--in", str(out), "--brackets", "--pareto"]) == 0
        rows = (out / "aggregate.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[2] == "n/a" for row in rows)

    @pytest.mark.parametrize("edge_mi,priced", [(0.1, False), (0.2, True)])
    def test_zero_baselines_are_left_out_of_relative_savings(self, tmp_path, edge_mi, priced):
        # no base fare, no value of time and a mil per mile: a trip shorter
        # than half a mile has a zero baseline, against which a relative
        # saving is undefined (the metrics used to divide by it)
        grid = {"rows": 3, "cols": 3, "edge_length_mi": edge_mi, "speed_mph": 30}
        cfg = {"network": {"grid": grid}, "mechanisms": ["SRO", "CCP"],
               "value_of_time_usd_per_min": 0,
               "tariff": {"base_fare_usd": 0, "per_mile_usd": 0.001}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--trips", "synthetic:n=20",
                     "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = [row for row in csv.DictReader(fh) if row["mechanism"] == "CCP"]
        assert rows and all(int(row["poolable"]) > 0 for row in rows)
        for row in rows:
            assert row["mean_cost_per_poolable_usd"] != "n/a"
            relative = [row[c] for c in ("cost_reduction_pct", *BRACKET_COLUMNS)]
            assert all((value != "n/a") == priced for value in relative)
        assert main(["analyze", "--in", str(out), "--brackets"]) == 0

    def test_summary_reads_back_each_cells_metrics(self, simulated, outcomes):
        # every metric `aggregate` means, other than the two shares taken
        # from the counts, is a summary column
        assert set(SUMMARY_METRICS) - {key for _, key, _ in SUMMARY_FIELDS} == {
            "unserved_pct", "pooled_share_pct"}
        _, _, out = simulated
        loaded = load_summary_csv(out / "summary.csv")
        assert len(loaded) == len(outcomes) == 14
        units = {key: unit for _, key, unit in SUMMARY_FIELDS}
        for (setting, mar, got), oc in zip(loaded, outcomes):
            assert setting + (fmt4(mar),) == tuple(map(str, cell_fields(oc)[:-1]))
            assert mar == oc.result.config.mar
            want, got = flat_metrics(oc.metrics()), flat_metrics(got)
            assert got.keys() == want.keys()
            for key, value in want.items():
                unit = units.get(key)
                if unit is None or value is None:  # a count, a share or n/a: exact
                    assert got[key] == value and type(got[key]) is type(value), key
                else:
                    assert got[key] == Fraction(fmt4(value, unit)) * unit, key

    def test_missing_summary_columns_named(self, simulated, tmp_path, capsys):
        _, _, out = simulated
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = [rows[0].index("unserved"), rows[0].index("br15")]
        bad = tmp_path / "summary.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows([c for i, c in enumerate(row) if i not in drop]
                                     for row in rows)
        with pytest.raises(ValueError, match=r"lacks columns: \['br15', 'unserved'\]"):
            load_summary_csv(bad)
        assert "lacks columns" in fails_cleanly(capsys, ["analyze", "--in", str(tmp_path)])
        assert len(load_summary_csv(out / "summary.csv")) == len(rows) - 1
        assert tuple(rows[0]) == SUMMARY_COLUMNS

    # a bad MAR used to stop analyze with only "Invalid literal for Fraction: 'abc'"
    @pytest.mark.parametrize("column,text", [("profit_usd", "abc"), ("requests", "1.5"),
                                             ("br5", ""), ("mar", "abc")])
    def test_unreadable_summary_value_names_the_line(self, simulated, tmp_path, capsys,
                                                     column, text):
        _, _, out = simulated
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        rows[3][rows[0].index(column)] = text
        bad = tmp_path / "summary.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        message = f"summary file line 4, column '{column}': cannot read '{text}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            load_summary_csv(bad)
        assert fails_cleanly(capsys, ["analyze", "--in", str(tmp_path)]) == (
            f"ridepool analyze: {message}")

    def test_header_only_summary_fails_cleanly(self, tmp_path, capsys):
        # used to print an unprefixed line and exit 1
        path = tmp_path / "summary.csv"
        path.write_text(",".join(SUMMARY_COLUMNS) + "\n")
        assert fails_cleanly(capsys, ["analyze", "--in", str(tmp_path)]) == (
            f"ridepool analyze: {path} has no rows")

    def test_missing_out_directory_is_created(self, simulated, tmp_path):
        # used to fail with "No such file or directory", while simulate
        # creates its own --out
        _, _, out = simulated
        target = tmp_path / "new" / "reports"
        assert main(["analyze", "--in", str(out), "--out", str(target), "--brackets"]) == 0
        assert sorted(p.name for p in target.iterdir()) == ["aggregate.csv", "brackets.csv"]

    @pytest.mark.parametrize("summary", ["header-only", "missing"])
    def test_unreadable_summary_makes_no_out_directory(self, tmp_path, capsys, summary):
        indir = tmp_path / "in"
        indir.mkdir()
        if summary == "header-only":
            (indir / "summary.csv").write_text(",".join(SUMMARY_COLUMNS) + "\n")
        target = tmp_path / "new" / "reports"
        fails_cleanly(capsys, ["analyze", "--in", str(indir), "--out", str(target)])
        assert not (tmp_path / "new").exists()

    def test_short_summary_row_names_the_line(self, simulated, tmp_path):
        _, _, out = simulated
        lines = (out / "summary.csv").read_text().splitlines()
        bad = tmp_path / "summary.csv"
        bad.write_text("\n".join(lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=r"summary file line 3, column 'br20': the row is short"):
            load_summary_csv(bad)


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "verdicts.csv"
        rc = main(["verify", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "FAIL" not in text
        assert "dichotomy" in text
        # the fixtures' networks, tariffs and verdict details, byte for byte
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cd25d07428ef4a85e51955721d356369d2dffe802d39ab4a4ebac0723de839d8")


class TestSplitCommand:
    def test_round_trip_through_run_accounts(self, simulated, tmp_path):
        # re-split the simulator's own pooled runs, from every CCP cell: the
        # goalprog split with the default thresholds writes splits.csv again
        _, _, out = simulated
        with open(out / "run_accounts.csv", newline="") as fh:
            cells = {tuple(row[c] for c in CELL_COLUMNS) for row in csv.DictReader(fh)}
        assert len(cells) >= 2
        target = tmp_path / "split.csv"
        rc = main(["split", "--runs", str(out / "run_accounts.csv"), "--scheme", "goalprog",
                   "--out", str(target)])
        assert rc == 0
        assert target.read_bytes() == (out / "splits.csv").read_bytes()

    def test_round_trip_at_mixed_denominator_thresholds(self, simulated, tmp_path):
        # thresholds over denominators 5, 4 and 2 (lcm 20): `split` re-splits
        # the runs to the splits.csv that `simulate` wrote at the same ones
        _, _, out = simulate(tmp_path, {**CONFIG, "split_thresholds_pct": [20, 25, 50]})
        target = tmp_path / "split.csv"
        rc = main(["split", "--runs", str(out / "run_accounts.csv"), "--scheme", "goalprog",
                   "--thresholds", "20,25,50", "--out", str(target)])
        assert rc == 0
        assert target.read_bytes() == (out / "splits.csv").read_bytes()
        # the same runs as at the default thresholds, divided otherwise
        default, runs = simulated[2], "run_accounts.csv"
        assert (out / runs).read_bytes() == (default / runs).read_bytes()
        assert target.read_bytes() != (default / "splits.csv").read_bytes()

    def test_run_file_with_some_cell_columns_fails(self, simulated, tmp_path, capsys):
        # used to key runs by run id alone, merging same-id runs of different
        # cells, and to fail on their run fares
        _, _, out = simulated
        with open(out / "run_accounts.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("seed")
        bad = tmp_path / "runs.csv"
        with open(bad, "w", newline="") as fh:
            csv.writer(fh).writerows(row[:drop] + row[drop + 1:] for row in rows)
        assert fails_cleanly(capsys, ["split", "--runs", str(bad), "--scheme", "goalprog"]) == (
            "ridepool split: run file lacks columns: ['seed']")

    def test_shapley_on_pairs_and_clean_error_on_chains(self, tmp_path, capsys):
        pair = tmp_path / "pair.csv"
        pair.write_text(
            "run_id,customer,c_solitary_usd,a_pooled_time_usd,run_fare_usd\n"
            "r1,1,10.0,1.0,14.0\n"
            "r1,2,10.0,1.0,14.0\n"
        )
        out = tmp_path / "pair_split.csv"
        assert main(["split", "--runs", str(pair), "--scheme", "shapley", "--out", str(out)]) == 0
        # a file without the cell columns splits to the bare split columns
        body = out.read_text().splitlines()
        assert body[0] == ",".join(SPLIT_COLUMNS)
        assert "7.0000" in body[1] and "7.0000" in body[2]
        chain = tmp_path / "chain.csv"
        chain.write_text(
            "run_id,customer,c_solitary_usd,a_pooled_time_usd,run_fare_usd\n"
            "r1,1,10.0,1.0,20.0\n"
            "r1,2,10.0,1.0,20.0\n"
            "r1,3,10.0,1.0,20.0\n"
        )
        capsys.readouterr()
        assert main(["split", "--runs", str(chain), "--scheme", "shapley"]) == 2
        err = capsys.readouterr().err
        assert "run r1:" in err and "3 riders" in err and "goalprog" in err

    def test_stdout_is_the_out_file(self, tmp_path, capsysbinary):
        # a run id holding a comma is quoted on both paths
        runs = tmp_path / "runs.csv"
        runs.write_text(RUNS_HEADER + '"v1,r0",1,10.0,1.0,14.0\n"v1,r0",2,10.0,1.0,14.0\n')
        target = tmp_path / "split.csv"
        assert main(["split", "--runs", str(runs), "--scheme", "shapley", "--out", str(target)]) == 0
        capsysbinary.readouterr()
        assert main(["split", "--runs", str(runs), "--scheme", "shapley"]) == 0
        printed = capsysbinary.readouterr().out
        assert printed == target.read_bytes()
        rows = list(csv.reader(printed.decode().splitlines()))
        assert [len(row) for row in rows] == [len(SPLIT_COLUMNS)] * 3
        assert rows[1][0] == rows[2][0] == "v1,r0"

    def test_accounts_loader_validates_fare_consistency(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "run_id,customer,c_solitary_usd,a_pooled_time_usd,run_fare_usd\n"
            "r1,1,10.0,1.0,14.0\n"
            "r1,2,10.0,1.0,15.0\n"
        )
        with pytest.raises(ValueError, match="run r1: inconsistent run_fare_usd"):
            load_run_accounts_csv(bad)

    @pytest.mark.parametrize("row,message", [
        ("r1,x1,10.0,1.0,14.0", r"line 3, column 'customer': cannot read 'x1'"),
        ("r1,2,ten,1.0,14.0", r"line 3, column 'c_solitary_usd': cannot read 'ten'"),
        ("r1,2,10.0", r"line 3, column 'run_fare_usd': the row is short"),
        ("r1,1,10.0,1.0,14.0", r"line 3, column 'customer': run r1 lists customer 1 twice"),
        ("r2,2,10.0,1.0,-8.00", r"line 3, column 'run_fare_usd': '-8.00' is negative"),
        ("r1,2,10.0,-1.0,14.0", r"line 3, column 'a_pooled_time_usd': '-1.0' is negative"),
    ])
    def test_accounts_loader_names_line_and_column(self, tmp_path, row, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "run_id,customer,c_solitary_usd,a_pooled_time_usd,run_fare_usd\n"
            "r1,1,10.0,1.0,14.0\n"
            f"{row}\n"
        )
        with pytest.raises(ValueError, match=rf"run file {message}"):
            load_run_accounts_csv(bad)


RUNS_HEADER = "run_id,customer,c_solitary_usd,a_pooled_time_usd,run_fare_usd\n"


def two_rider_run(tmp_path, fare_usd):
    """A run-account file of one run r1 of two riders, each with a $10
    solitary cost and a $1 pooled time cost, so $18 of willingness."""
    path = tmp_path / "runs.csv"
    path.write_text(RUNS_HEADER + f"r1,1,10.0,1.0,{fare_usd}\nr1,2,10.0,1.0,{fare_usd}\n")
    return str(path)


class TestInputErrors:
    """Bad input ends in exit status 2 and one line on stderr, no traceback."""

    @pytest.mark.parametrize("scheme", ["shapley", "goalprog"])
    def test_infeasible_run(self, tmp_path, capsys, scheme):
        runs = two_rider_run(tmp_path, 30.0)
        err = fails_cleanly(capsys, ["split", "--runs", runs, "--scheme", scheme])
        assert "run r1: fare 30000 exceeds willingness 18000" in err

    @pytest.mark.parametrize("thresholds,message", [
        # these used to print Python's int() text and Fraction reprs
        ("5,x", "--thresholds must be comma-separated whole percents, got '5,x'"),
        ("20,5", "--thresholds must be strictly increasing: 20,5"),
        ("150", "--thresholds must lie in (0, 100): 150"),
        ("10,5", "--thresholds must be strictly increasing: 10,5"),
    ], ids=["not-a-number", "decreasing", "above-100", "halving"])
    def test_malformed_thresholds(self, tmp_path, capsys, thresholds, message):
        runs = two_rider_run(tmp_path, 14.0)
        assert main(["split", "--runs", runs, "--scheme", "goalprog"]) == 0
        err = fails_cleanly(capsys, ["split", "--runs", runs, "--scheme", "goalprog",
                                     "--thresholds", thresholds])
        assert err == f"ridepool split: {message}"

    @pytest.mark.parametrize("command,flag", [("split", "--runs"), ("analyze", "--in")])
    def test_missing_input_file(self, tmp_path, capsys, command, flag):
        argv = [command, flag, str(tmp_path / "missing")]
        argv += ["--scheme", "shapley"] if command == "split" else []
        assert "No such file or directory" in fails_cleanly(capsys, argv)

    @pytest.mark.parametrize("spec,message", [
        ("synthetic:n=7,sed=3",
         "unknown synthetic trips key(s) 'sed'; allowed: n, seed, horizon_s"),
        ("synthetic:n=7,seed=three", "synthetic trips seed='three' is not an integer"),
        ("synthetic:n=", "synthetic trips n='' is not an integer"),
        ("synthetic:n=-1", "synthetic trips n='-1' is negative"),
        ("synthetic:n=5,seed=-3", "synthetic trips seed='-3' is negative"),
        ("synthetic:n=5,horizon_s=-1", "synthetic trips horizon_s='-1' is negative"),
    ])
    def test_bad_synthetic_trips(self, tmp_path, capsys, spec, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--trips", spec, "--out", str(out)]
        assert message in fails_cleanly(capsys, argv)
        assert not out.exists()

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c.pop("network"), "config needs 'network'"),
        (lambda c: c.update(network={}), "network needs 'grid' or 'file'"),
        # the grid used to win silently
        (lambda c: c["network"].update(file="net.csv"),
         "network needs 'grid' or 'file', not both"),
        (lambda c: c["network"]["grid"].pop("edge_length_mi"),
         "network.grid needs 'edge_length_mi'"),
        (lambda c: c.update(fleet_size="x"), "fleet_size must be an integer, got 'x'"),
        (lambda c: c.update(seeds=[1, 2.0]), "seeds must be an integer, got 2.0"),
        (lambda c: c["network"]["grid"].update(rows="4"),
         "network.grid rows must be an integer, got '4'"),
        (lambda c: c.update(tariff=[]), "tariff must be a JSON object, got []"),
        # a fractional percent used to be cut to a whole one
        (lambda c: c.update(split_thresholds_pct=[5, 12.5]),
         "split_thresholds_pct must be an integer, got 12.5"),
        (lambda c: c.update(mar="abc"), "mar: cannot read 'abc' as a number"),
        (lambda c: c.update(max_wait_s="inf"), "max_wait_s: 'inf' is not a finite number"),
        (lambda c: c.update(mar="1e400"), "mar: '1e400' has a decimal exponent beyond +-30"),
        # a JSON boolean used to read as the number 1
        (lambda c: c.update(mar=True), "mar: cannot read True as a number"),
        (lambda c: c.update(max_wait_s=[240, True]), "max_wait_s: cannot read True as a number"),
        # these six used to name the value alone, or blame the first request
        (lambda c: c.update(horizon_s="abc"), "horizon_s: cannot read 'abc' as a number"),
        (lambda c: c.update(max_wait_s="x"), "max_wait_s: cannot read 'x' as a number"),
        (lambda c: c.update(mar=["x"]), "mar: cannot read 'x' as a number"),
        (lambda c: c["tariff"].update(base_fare_usd="x"),
         "base_fare_usd: cannot read 'x' as a number"),
        (lambda c: c.update(value_of_time_usd_per_min=["x"]),
         "value_of_time_usd_per_min: cannot read 'x' as a number"),
        (lambda c: c.update(value_of_time_usd_per_min=[-0.1]),
         "value_of_time_usd_per_min must be non-negative, got -0.1"),
        # these three used to reach numpy or the request check unnamed
        (lambda c: c.update(horizon_s=-1), "horizon_s must be non-negative, got -1"),
        (lambda c: c.update(max_wait_s=0), "max_wait_s must be positive, got 0"),
        (lambda c: c.update(seeds=[1, -3]), "seeds must be at least 0, got -3"),
    ], ids=["no-network", "empty-network", "grid-and-file", "no-edge-length", "fleet-size-text",
            "seed-float", "rows-text", "tariff-list", "fractional-percent", "mar-text", "wait-inf",
            "mar-exponent", "mar-true", "wait-true", "horizon-text", "wait-text", "mar-list-text",
            "base-fare-text",
            "vot-text", "vot-negative", "horizon-negative", "wait-zero", "seed-negative"])
    def test_bad_config(self, tmp_path, capsys, edit, message):
        config = copy.deepcopy(CONFIG)
        edit(config)
        assert config_error(tmp_path, capsys, config) == f"ridepool simulate: {message}"

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c["network"]["grid"].update(edge_length_mi="x"),
         "edge_length_mi: cannot read 'x' as a number"),
        (lambda c: c["network"]["grid"].update(speed_mph=[30]),
         "speed_mph: cannot read [30] as a number"),
        (lambda c: c["network"]["grid"].update(rows=1),
         "network.grid rows must be in [2, 1000], got 1"),
        (lambda c: c["network"]["grid"].update(edge_length_mi=0),
         "edge_length_mi must be positive, got 0"),
        (lambda c: c["network"]["grid"].update(edge_length_mi=1e-7),
         "edge_length_mi must be positive in whole micro-miles, got 1e-07"),
        (lambda c: c["network"]["grid"].update(speed_mph=1e12),
         "speed_mph must leave an edge at least 1 usec of travel, got 1000000000000.0"),
        (lambda c: c["tariff"].update(base_fare_usd=-1),
         "base_fare_usd must be non-negative, got -1"),
        (lambda c: c["tariff"].update(change_fee_usd=[2.0, -0.5]),
         "change_fee_usd must be non-negative, got -0.5"),
        (lambda c: c["tariff"].update(per_mile_usd=0), "per_mile_usd must be positive, got 0"),
        (lambda c: c["tariff"].update(provider_cost_per_mile_usd="-2.945"),
         "provider_cost_per_mile_usd must be positive, got '-2.945'"),
        (lambda c: c["tariff"].update(discount_factor=[0.8, 0]),
         "discount_factor must be in (0, 1], got 0"),
        (lambda c: c["tariff"].update(discount_factor=1.25),
         "discount_factor must be in (0, 1], got 1.25"),
        (lambda c: c["tariff"].update(detour_factor=[0.3, -0.1]),
         "detour_factor must be positive, got -0.1"),
        (lambda c: c["tariff"].update(detour_factor="x"),
         "detour_factor: cannot read 'x' as a number"),
        # a JSON boolean used to read as the number 1
        (lambda c: c["network"]["grid"].update(edge_length_mi=True),
         "edge_length_mi: cannot read True as a number"),
        (lambda c: c["tariff"].update(base_fare_usd=True),
         "base_fare_usd: cannot read True as a number"),
        (lambda c: c["tariff"].update(discount_factor=[True]),
         "discount_factor: cannot read True as a number"),
    ], ids=["edge-length-text", "speed-list", "rows-one", "edge-length-zero",
            "edge-length-below-a-micro-mile", "edge-time-below-a-usec", "base-fare-negative",
            "change-fee-negative", "per-mile-zero", "provider-cost-negative", "discount-zero",
            "discount-above-one", "detour-negative", "detour-text", "edge-length-true",
            "base-fare-true", "discount-true"])
    def test_grid_number_or_tariff_out_of_range(self, tmp_path, capsys, edit, message):
        # the grid numbers used to reach `make_grid` unnamed, and the tariff's
        # ranges were first checked inside the run, after `--out` was made
        config = copy.deepcopy(CONFIG)
        edit(config)
        assert config_error(tmp_path, capsys, config) == f"ridepool simulate: {message}"

    @pytest.mark.parametrize("edit,message", [
        (lambda c: c.update(fleet_size=0), "fleet_size must be at least 1, got 0"),
        (lambda c: c.update(mar=[0.0, 0.5, 1.5]), "mar must be in [0, 1], got 1.5"),
        (lambda c: c.update(split_scheme="foo"),
         "split_scheme must be shapley or goalprog, got 'foo'"),
    ], ids=["fleet-zero", "mar-above-one", "unknown-split-scheme"])
    def test_error_inside_the_grid_writes_no_output(self, tmp_path, capsys, monkeypatch, edit,
                                                    message):
        # these used to be raised by the simulations, naming no config key,
        # after the cells before the bad one had run
        calls, run_sim = [], harness.run_sim
        monkeypatch.setattr(harness, "run_sim", lambda *args: calls.append(args) or run_sim(*args))
        config = copy.deepcopy(CONFIG)
        edit(config)
        assert config_error(tmp_path, capsys, config) == f"ridepool simulate: {message}"
        assert calls == []

    def test_trip_node_off_the_network_is_named(self, tmp_path, capsys):
        trips = tmp_path / "trips.csv"
        trips.write_text(",".join(TRIP_COLUMNS) + "\n5,n000x000,n001x001,,60,\n"
                         "9,n000x001,zzz,,60,\n")
        assert config_error(tmp_path, capsys, CONFIG, str(trips)) == (
            "ridepool simulate: request 1: node 'zzz' is not on the network")

    def test_edge_cases_of_the_tariff_ranges_run(self):
        # zero fees and a discount of exactly one are in range
        tariff = {**CONFIG["tariff"], "base_fare_usd": 0, "change_fee_usd": 0,
                  "discount_factor": 1}
        grid = cli._grid_from_config({**CONFIG, "tariff": tariff})
        assert (grid.base_fare, grid.change_fees, grid.discount_factors) == (0, (0,), (1,))
        assert grid.tariff().discount_factor == 1

    @pytest.mark.parametrize("key", [
        "change_fee_usd", "discount_factor", "detour_factor", "seeds", "mechanisms",
        "max_wait_s", "mar", "fleet_size", "value_of_time_usd_per_min", "split_thresholds_pct",
    ])
    def test_empty_grid_axis(self, tmp_path, capsys, key):
        # an empty axis used to raise an IndexError, write no simulations or
        # silently drop every pooled cell
        config = copy.deepcopy(CONFIG)
        (config["tariff"] if key in cli.TARIFF_KEYS else config)[key] = []
        assert config_error(tmp_path, capsys, config) == (
            f"ridepool simulate: {key} must not be an empty list")

    @pytest.mark.parametrize("key,values,message", [
        ("seeds", [1, 1, 2], "1 and 1"),
        ("mar", [0.5, "0.50"], "0.5 and '0.50'"),
        ("max_wait_s", [240, "240.0"], "240 and '240.0'"),
        ("mechanisms", ["CCP", "SRO", "CCP"], "'CCP' and 'CCP'"),
        ("fleet_size", [8, 8], "8 and 8"),
        ("change_fee_usd", [2, 2.0], "2 and 2.0"),
        ("discount_factor", [0.8, "0.80"], "0.8 and '0.80'"),
        ("detour_factor", [0.3, 0.3], "0.3 and 0.3"),
    ], ids=["seeds", "mar", "max-wait", "mechanisms", "fleet-size", "change-fee", "discount",
            "detour"])
    def test_repeated_grid_axis_value(self, tmp_path, capsys, key, values, message):
        # a repeated value used to run its cells twice and weigh them double
        # in every mean, with exit status 0
        config = copy.deepcopy(CONFIG)
        (config["tariff"] if key in cli.TARIFF_KEYS else config)[key] = values
        assert config_error(tmp_path, capsys, config) == (
            f"ridepool simulate: {key} gives one value twice: {message}")

    def test_repeated_value_of_time_is_drawn_twice_as_often(self):
        # not a grid axis: the values are drawn per request, so a repeat is a weight
        grid = cli._grid_from_config({**CONFIG, "value_of_time_usd_per_min": [0.2, 0.2, 0.3]})
        assert grid.vot_values == (200, 200, 300)

    def test_scalar_value_of_time_reads_as_one_value(self):
        # like every other list-valued key; it used to end in a TypeError
        grid = cli._grid_from_config({**CONFIG, "value_of_time_usd_per_min": 0.2})
        assert grid.vot_values == (200,)

    def test_negative_request_time(self, tmp_path, capsys):
        # every route starts at time 0, so a trip before it used to end in an IndexError
        trips = tmp_path / "trips.csv"
        trips.write_text(",".join(TRIP_COLUMNS) + "\n-5,n000x000,n001x001,,60,\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(CONFIG))
        out = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg), "--trips", str(trips), "--out", str(out)]
        assert fails_cleanly(capsys, argv) == (
            "ridepool simulate: trip file line 2, column 'request_time_s': '-5' is negative")
        assert not out.exists()

    def test_arc_too_long_for_path_sums(self, tmp_path, capsys):
        net = tmp_path / "net.csv"
        net.write_text("node,a\nnode,b\narc,a,b,1e30,30\narc,b,a,0.1,30\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**CONFIG, "network": {"file": str(net)}}))
        argv = ["simulate", "--config", str(cfg), "--trips", "synthetic:n=5", "--out",
                str(tmp_path / "out")]
        assert fails_cleanly(capsys, argv) == (
            "ridepool simulate: arc ('a', 'b') is too long for exact path sums: "
            "'1e30' mi, '30' s")

    def test_grid_too_large_for_memory(self, tmp_path, capsys, monkeypatch):
        # a 3x3 grid stands in for one whose tables outgrow the machine
        monkeypatch.setattr(netgraph, "_PHYSICAL_MEMORY", 20 * 81 - 1)
        config = copy.deepcopy(CONFIG)
        config["network"]["grid"].update(rows=3, cols=3)
        assert config_error(tmp_path, capsys, config) == (
            "ridepool simulate: a network of 9 nodes needs 1620 bytes of shortest-path tables, "
            "more than the 1619 bytes of physical memory")

    def test_thresholds_checked_only_for_goalprog_before_the_runs(self, tmp_path, capsys):
        empty = tmp_path / "runs.csv"
        empty.write_text(RUNS_HEADER)
        # shapley never reads the thresholds
        assert main(["split", "--runs", str(empty), "--scheme", "shapley",
                     "--thresholds", "5,x"]) == 0
        err = fails_cleanly(capsys, ["split", "--runs", str(empty), "--scheme", "goalprog",
                                     "--thresholds", "20,5"])
        assert err == "ridepool split: --thresholds must be strictly increasing: 20,5"
        # checked before the run file is opened
        err = fails_cleanly(capsys, ["split", "--runs", str(tmp_path / "missing"),
                                     "--scheme", "goalprog", "--thresholds", "150"])
        assert err == "ridepool split: --thresholds must lie in (0, 100): 150"

    def test_simulate_checks_goalprog_thresholds_up_front(self, tmp_path, capsys):
        # the percents as given, where Fraction reprs of the thresholds used to be shown
        for percents, message in [([20, 5], "must be strictly increasing: [20, 5]"),
                                  ([10, 5], "must be strictly increasing: [10, 5]"),
                                  ([200], "must lie in (0, 100): [200]"),
                                  (200, "must lie in (0, 100): 200")]:
            config = {**CONFIG, "split_thresholds_pct": percents}
            assert config_error(tmp_path, capsys, config) == (
                f"ridepool simulate: split_thresholds_pct {message}")

    def test_module_invocation_prints_no_traceback(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ridepool.cli", "split", "--runs", two_rider_run(tmp_path, 30.0),
             "--scheme", "shapley"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "ridepool split: run r1: fare 30000 exceeds willingness 18000\n"


def save_trips_csv(requests, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIP_COLUMNS)
        for r in requests:
            writer.writerow(
                [
                    fmt_seconds(r.request_time),
                    r.origin,
                    r.destination,
                    "" if r.value_of_time is None else fmt4(r.value_of_time, MILS),
                    fmt_seconds(r.max_wait),
                    "" if r.poolable is None else int(r.poolable),
                ]
            )


class TestTripFiles:
    def test_round_trip(self, tmp_path, grid10):
        reqs = [
            Request(0, "n000x000", "n003x004", 12 * USEC, 225, 300 * USEC, True),
            Request(1, "n001x001", "n009x009", usec_from_seconds(40.5), None, 240 * USEC, None),
        ]
        path = tmp_path / "trips.csv"
        save_trips_csv(reqs, path)
        back = load_trips_csv(path)
        assert back == reqs

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "trips.csv"
        path.write_text("request_time_s,origin_node\n0,a\n")
        with pytest.raises(ValueError):
            load_trips_csv(path)

    def write(self, tmp_path, *rows):
        path = tmp_path / "trips.csv"
        path.write_text("\n".join((",".join(TRIP_COLUMNS),) + rows) + "\n")
        return path

    def test_short_row_names_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "0,n000x000,n001x001,,300,1", "5,n000x000,n001x001")
        with pytest.raises(ValueError, match=r"line 3, column 'value_of_time_usd_per_min'.*short"):
            load_trips_csv(path)

    def test_unparsable_number_names_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "0,n000x000,n001x001,,3x0,1")
        with pytest.raises(ValueError, match=r"line 2, column 'max_wait_s': cannot read '3x0'"):
            load_trips_csv(path)

    def test_negative_request_time_names_line_and_column(self, tmp_path):
        path = self.write(tmp_path, "0,n000x000,n001x001,,300,", "-0.5,n000x000,n001x001,,300,")
        with pytest.raises(ValueError,
                           match=r"line 3, column 'request_time_s': '-0.5' is negative"):
            load_trips_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("0,n000x000,n000x000,,300,", r"column 'dest_node': 'n000x000' equals origin_node"),
        ("0,n000x000,n001x001,,0,", r"column 'max_wait_s': '0' is not positive"),
        ("0,n000x000,n001x001,,-5,", r"column 'max_wait_s': '-5' is not positive"),
        ("0,n000x000,n001x001,-0.1,300,",
         r"column 'value_of_time_usd_per_min': '-0.1' is negative"),
    ])
    def test_request_check_names_line_and_column(self, tmp_path, row, message):
        # the checks a Request makes on itself, read from a file
        path = self.write(tmp_path, "0,n000x000,n001x001,,300,", row)
        with pytest.raises(ValueError, match=rf"^trip file line 3, {message}$"):
            load_trips_csv(path)

    @pytest.mark.parametrize("flag", ["maybe", "no", "yes", "2"])
    def test_unknown_poolable_flag_names_line_and_column(self, tmp_path, flag):
        path = self.write(tmp_path, "0,n000x000,n001x001,,300,", f"1,n000x000,n001x001,,300,{flag}")
        with pytest.raises(ValueError, match=rf"line 3, column 'poolable': cannot read '{flag}'"):
            load_trips_csv(path)

    def test_poolable_flags_read_in_any_case(self, tmp_path):
        flags = ["", "0", "1", "true", "false", "TRUE", "FALSE", "False", " True "]
        rows = [f"{i},n000x000,n001x001,,300,{flag}" for i, flag in enumerate(flags)]
        got = [r.poolable for r in load_trips_csv(self.write(tmp_path, *rows))]
        assert got == [None, False, True, True, False, True, False, False, True]


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ridepool.cli", "verify"],
            capture_output=True, text=True,
            # the package imports as it does here, installed or from the checkout
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
