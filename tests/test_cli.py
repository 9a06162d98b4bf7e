"""End-to-end command-line tests driven through main()."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from bdmtsp import cli
from bdmtsp.cam import (
    TERMS,
    Configuration,
    backward_select,
    feature_matrix,
    model_from_json,
    step_model,
    sweep_configs,
    sweep_from_csv,
    sweep_to_csv,
)
from bdmtsp.harness import ExperimentSpec, run_sweep
from bdmtsp.warehouse import AisleSpec, grid_network

import reference
from conftest import layout_text

TINY = """NAME : tiny
DIMENSION : 5
EDGE_WEIGHT_TYPE : EUC_2D
NODE_COORD_SECTION
1 0.0 0.0
2 1.0 0.0
3 2.0 0.0
4 0.0 1.0
5 0.0 2.0
EOF
"""

TAXI_CSV = (
    "pickup_datetime,pickup_latitude,pickup_longitude,dropoff_latitude,"
    "dropoff_longitude,trip_duration,dist_meters,wait_sec\n"
    "2016-12-10 08:00:00,19.40,-99.15,19.45,-99.10,600,4000,300\n"
    "2016-12-10 09:00:00,19.45,-99.10,19.50,-99.20,900,6000,100\n"
    "2016-12-10 10:00:00,19.38,-99.18,19.42,-99.12,700,5000,7200\n"
)


@pytest.fixture
def tiny_instance(tmp_path):
    path = tmp_path / "tiny.tsp"
    path.write_text(TINY)
    return path


class TestSolve:
    def test_writes_routes_json(self, tiny_instance, tmp_path, capsys):
        out = tmp_path / "routes.json"
        rc = cli.main(
            ["solve", str(tiny_instance), "--m", "2", "--scope", "absolute:2",
             "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["instance"] == "tiny"
        assert len(payload["routes"]) == 2
        served = sorted(n for r in payload["routes"] for n in r["nodes"][1:])
        assert served == [1, 2, 3, 4]
        assert "total" in capsys.readouterr().out

    def test_closed_flag_increases_total(self, tiny_instance, tmp_path):
        open_out = tmp_path / "o.json"
        closed_out = tmp_path / "c.json"
        cli.main(["solve", str(tiny_instance), "--m", "1", "--scope",
                  "relative:100%", "--out", str(open_out)])
        cli.main(["solve", str(tiny_instance), "--m", "1", "--scope",
                  "relative:100%", "--closed", "--out", str(closed_out)])
        assert (json.loads(closed_out.read_text())["total"]
                > json.loads(open_out.read_text())["total"])

    def test_bad_scope_exits_2(self, tiny_instance, capsys):
        rc = cli.main(["solve", str(tiny_instance), "--m", "2", "--scope", "magic:1"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scope", ["relative:nan", "m-absolute:inf", "m-relative:nan"])
    def test_non_finite_scope_exits_2(self, tiny_instance, scope, capsys):
        rc = cli.main(["solve", str(tiny_instance), "--m", "2", "--scope", scope])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "scope,reason",
        [("relative:nan", "finite"), ("relative:2", "(0, 1]"), ("variable:1,1", "exhausted")],
    )
    def test_scope_error_names_its_reason(self, tiny_instance, scope, reason, capsys):
        rc = cli.main(["solve", str(tiny_instance), "--m", "2", "--scope", scope])
        assert rc == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "old,new", [("2 1.0 0.0", "2 nan 0.0"), ("3 2.0 0.0", "2 2.0 0.0")]
    )
    def test_bad_coordinates_exit_2(self, tmp_path, old, new, capsys):
        # a nan coordinate once gave "total nan"; a repeated id solved silently
        path = tmp_path / "bad.tsp"
        path.write_text(TINY.replace(old, new))
        rc = cli.main(["solve", str(path), "--m", "1", "--scope", "absolute:1",
                       "--algorithm", "cvh"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_coordinate_bound(self, tmp_path, capsys):
        # past 1e150 the kernel's dx*dx could overflow to an inf total
        path = tmp_path / "far.tsp"
        out = tmp_path / "routes.json"
        args = ["solve", str(path), "--m", "1", "--scope", "absolute:1", "--closed"]
        path.write_text(TINY.replace("2 1.0 0.0", "2 1e150 -1e150")
                        .replace("4 0.0 1.0", "4 -1e150 1e150"))
        assert cli.main(args + ["--out", str(out)]) == 0
        assert np.isfinite(json.loads(out.read_text())["total"])
        path.write_text(TINY.replace("2 1.0 0.0", "2 1.1e150 0.0"))
        assert cli.main(args) == 2
        assert "at most 1e+150 in magnitude" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        rc = cli.main(["solve", "nope.tsp", "--m", "2", "--scope", "absolute:1"])
        assert rc == 2

    def test_huge_dimension_exits_2(self, tmp_path, capsys):
        # the rows are counted before the coordinate array is allocated
        path = tmp_path / "huge.tsp"
        path.write_text(TINY.replace("DIMENSION : 5", "DIMENSION : 100000000000000"))
        rc = cli.main(["solve", str(path), "--m", "1", "--scope", "absolute:1"])
        assert rc == 2
        assert "coordinate rows" in capsys.readouterr().err

    def test_directory_input_exits_2(self, tmp_path, capsys):
        rc = cli.main(["solve", str(tmp_path), "--m", "1", "--scope", "absolute:1"])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_directory_out_exits_2(self, tiny_instance, tmp_path, capsys):
        rc = cli.main(["solve", str(tiny_instance), "--m", "1", "--scope", "absolute:1",
                       "--out", str(tmp_path)])
        assert rc == 2
        assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["solve", "{bad}", "--m", "1", "--scope", "absolute:1"],
        ["cam-fit", "--sweep", "{bad}"],
        ["cam-predict", "--model", "{bad}", "3", "100", "15"],
        ["warehouse", "--layout", "{bad}", "--jobs", "{bad}", "--depot", "a",
         "--m", "1", "--scope", "absolute:1"],
        ["taxi", "--csv", "{bad}", "--m", "1", "--scope", "absolute:1"],
    ],
)
def test_non_utf8_input_exits_2(tmp_path, args, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes("NAME : café\n".encode("latin-1"))
    rc = cli.main([a.replace("{bad}", str(bad)) for a in args])
    assert rc == 2
    err = capsys.readouterr().err
    assert "latin1.txt" in err and "UTF-8" in err


class TestSweep:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(
            ["sweep", "--m-list", "2", "--n-list", "30,40", "--d-list", "5",
             "--reps", "2", "--seed", "3", "--out", str(out)]
        )
        assert rc == 0
        text = out.read_text()
        assert text.startswith("m,n,d,open_mean,closed_mean,reps,seed,algorithm\n")
        result = sweep_from_csv(text)
        assert result.configs == (Configuration(2, 30, 5), Configuration(2, 40, 5))
        assert result.reps == 2 and result.seed == 3 and result.algorithm == "avh"
        assert all(0 < o < c for o, c in zip(result.y, result.y_closed))

    def test_matches_library_call(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cli.main(["sweep", "--m-list", "3", "--n-list", "40", "--d-list", "5,10",
                  "--reps", "2", "--seed", "8", "--out", str(out)])
        spec = ExperimentSpec(
            configs=(Configuration(3, 40, 5), Configuration(3, 40, 10)),
            reps=2, seed=8,
        )
        assert sweep_from_csv(out.read_text()) == run_sweep(spec)

    @pytest.mark.parametrize(
        "argv,keep",
        [
            ([], lambda c: True),
            (["--m-list", "2"], lambda c: c.m == 2),
            (["--n-list", "100,300", "--d-list", "10"], lambda c: c.n in (100, 300) and c.d == 10),
        ],
    )
    def test_unlisted_axes_come_from_the_paper_grid(self, monkeypatch, argv, keep):
        specs = []

        def first_config_only(spec):
            specs.append(spec)
            return run_sweep(dataclasses.replace(spec, configs=spec.configs[:1], reps=1))

        monkeypatch.setattr(cli, "run_sweep", first_config_only)
        assert cli.main(["sweep", *argv]) == 0
        assert specs[0].configs == tuple(c for c in sweep_configs() if keep(c))

    def test_gap_mode_prints_percentage(self, capsys):
        rc = cli.main(["sweep", "--m-list", "3", "--n-list", "50", "--d-list", "5",
                       "--reps", "2", "--seed", "1", "--gap"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "closest - assignment" in out
        assert "% open, " in out and out.rstrip().endswith("% closed")

    def test_closed_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--closed", "--m-list", "1", "--n-list", "50",
                      "--d-list", "5", "--reps", "1"])
        assert exc.value.code == 2
        assert "--closed" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, capsys):
        rc = cli.main(["sweep", "--seed", "-1", "--m-list", "1", "--n-list", "50",
                       "--d-list", "5", "--reps", "1"])
        assert rc == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--m-list", "--n-list", "--d-list"])
    def test_bad_list_token_exits_2(self, flag, capsys):
        rc = cli.main(["sweep", flag, "3,a", "--reps", "1"])
        assert rc == 2
        assert "'a'" in capsys.readouterr().err


class TestCamCommands:
    @pytest.mark.parametrize("row", ["1,50", "1,60,5,2.5,3.0,3,0,avh"])
    def test_fit_rejects_bad_sweep_csv(self, tmp_path, row, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(
            "m,n,d,open_mean,closed_mean,reps,seed,algorithm\n"
            "1,50,5,2.5,3.0,10,0,avh\n" + row + "\n"
        )
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "sweep CSV row" in err and repr(row) in err

    def test_fit_rejects_the_open_only_header(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text("m,n,d,mean_len,reps,seed\n1,50,5,2.5,10,0\n")
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv)])
        assert rc == 2
        assert "header m,n,d,open_mean" in capsys.readouterr().err

    def test_fit_then_predict(self, tmp_path, capsys):
        # 80 desk-scale configurations so the 64-column fit is determined
        configs = tuple(
            Configuration(m, n, d)
            for m in (1, 2, 3, 4)
            for n in (30, 40, 50, 60)
            for d in (3, 5, 8, 10, 15)
        )
        result = run_sweep(ExperimentSpec(configs=configs, reps=1, seed=5))
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(sweep_to_csv(result))
        model_path = tmp_path / "model.json"
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv), "--keep", "3",
                       "--out", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "fitting closed-walk means of avh (seed 5, reps 1)"
        assert "features" in out and "mape" in out and "cp" in out
        model = model_from_json(model_path.read_text())
        X = feature_matrix(configs)
        assert model.terms == step_model(backward_select(X, np.asarray(result.y_closed))[2]).terms
        assert model.provenance == "fitted"

        rc = cli.main(["cam-predict", "--model", str(model_path), "2", "40", "5"])
        assert rc == 0
        assert "fitted @" in capsys.readouterr().out

    def test_fit_on_rank_deficient_sweep(self, tmp_path, capsys):
        # `sweep --d-list 10` has 70 rows of rank 16.  The digest is of the
        # table, fitted on the closed means, printed when every candidate
        # was refitted at every stage.
        assert cli.main(["sweep", "--d-list", "10", "--reps", "1"]) == 0
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(capsys.readouterr().out)
        model_path = tmp_path / "model.json"
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv), "--keep", "40",
                       "--out", str(model_path)])
        assert rc == 0
        out = capsys.readouterr().out
        table = out[: out.index("kept 40 features")]
        assert hashlib.sha256(table.encode()).hexdigest() == (
            "13968dde1700a157f27515908814aee8e8e75930a39e554120dab88b7d702772"
        )
        result = sweep_from_csv(sweep_csv.read_text())
        kept = reference.refit_selection(
            feature_matrix(result.configs), np.asarray(result.y_closed)
        )[39]
        model = model_from_json(model_path.read_text())
        assert [term for term, _ in model.terms] == [TERMS[i] for i in kept]

    def test_predict_published(self, capsys):
        rc = cli.main(["cam-predict", "--published", "3f", "3", "100", "15"])
        assert rc == 0
        assert "18.8471" in capsys.readouterr().out

    @pytest.mark.parametrize("keep", ["0", "65", "100"])
    def test_fit_keep_out_of_range_exits_2(self, tmp_path, keep, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(
            "m,n,d,open_mean,closed_mean,reps,seed,algorithm\n"
            + "".join(f"{m},{n},5,{m + n / 10},{m + n / 5},1,0,avh\n"
                      for m in (1, 2) for n in (50, 60))
        )
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv), "--keep", keep])
        assert rc == 2
        assert "1..64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "source", [[], ["--published", "3f", "--model", "model.json"]]
    )
    def test_predict_needs_exactly_one_model_source(self, source, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cam-predict", *source, "3", "100", "15"])
        assert exc.value.code == 2
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "terms,reason",
        [
            ([{"powers": ["nan", 1, 0], "coef": 1.0}], "basis triple"),
            ([], "at least one term"),
            ([{"powers": [1e308, 1, 0], "coef": 1.0}], "basis triple"),
        ],
    )
    def test_predict_rejects_bad_model_terms(self, tmp_path, terms, reason, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"terms": terms}))
        rc = cli.main(["cam-predict", "--model", str(path), "3", "100", "15"])
        assert rc == 2
        assert reason in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model,mnd", [("9f", ["3", str(10**400), "15"]), ("16f", [str(10**200), "100", "15"])]
    )
    def test_predict_overflow_exits_2(self, model, mnd, capsys):
        rc = cli.main(["cam-predict", "--published", model, *mnd])
        assert rc == 2
        assert "overflow" in capsys.readouterr().err

    def test_fit_overflow_exits_2(self, tmp_path, capsys):
        sweep_csv = tmp_path / "sweep.csv"
        sweep_csv.write_text(
            f"m,n,d,open_mean,closed_mean,reps,seed,algorithm\n1,{10**400},5,2.5,3.0,1,0,avh\n"
        )
        rc = cli.main(["cam-fit", "--sweep", str(sweep_csv)])
        assert rc == 2
        assert "overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("mnd", [["9", "-3", "100"], ["0", "100", "15"], ["3", "100", "0"]])
    def test_predict_rejects_nonpositive_configuration(self, mnd, capsys):
        rc = cli.main(["cam-predict", "--published", "9f", *mnd])
        assert rc == 2
        assert "must be >= 1" in capsys.readouterr().err


class TestWarehouseCommand:
    def test_walk_equals_joblevel_plus_internal(self, tmp_path, capsys):
        net = grid_network(3, 4, AisleSpec(dx=2.0, dy=3.0, shelf_len=1.5))
        layout = tmp_path / "layout.txt"
        layout.write_text(layout_text(net))
        jobs = tmp_path / "jobs.csv"
        jobs.write_text(
            "id,source,dest\nj1,s0.0,s1.2\nj2,s2.1,s0.3\nj3,s1.1,s2.3\n"
        )
        rc = cli.main(
            ["warehouse", "--layout", str(layout), "--jobs", str(jobs),
             "--depot", "a0.0", "--m", "2", "--scope", "absolute:2",
             "--storage-locations", "24"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        totals = [ln for ln in out.splitlines() if ln.startswith("total walk")]
        assert len(totals) == 1
        # "total walk length W = job-level J + internal I" must be literal arithmetic
        words = totals[0].split()
        walk, job_level, internal = float(words[3]), float(words[6]), float(words[9])
        assert walk == pytest.approx(job_level + internal, abs=1e-9)
        assert "occupancy 0.1250" in out


    def test_overflowing_default_edge_length_exits_2(self, tmp_path, capsys):
        layout = tmp_path / "layout.txt"
        layout.write_text("node a 0 0\nnode b 1e200 0\nedge a b\n")
        jobs = tmp_path / "jobs.csv"
        jobs.write_text("id,source,dest\nj1,a,b\n")
        rc = cli.main(
            ["warehouse", "--layout", str(layout), "--jobs", str(jobs),
             "--depot", "a", "--m", "1", "--scope", "absolute:1"]
        )
        assert rc == 2
        assert "invalid layout" in capsys.readouterr().err


class TestTaxiCommand:
    def test_counts_and_routing(self, tmp_path, capsys):
        csv_path = tmp_path / "trips.csv"
        csv_path.write_text(TAXI_CSV)
        rc = cli.main(["taxi", "--csv", str(csv_path), "--m", "1",
                       "--scope", "relative:100%"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rows 3: kept 2, dropped 1, malformed 0" in out
        assert "internal trip distance 10.0 km" in out

    def test_all_filtered_is_failure(self, tmp_path, capsys):
        header, row = TAXI_CSV.splitlines()[:2]
        bad = row.replace("19.40", "25.00")
        csv_path = tmp_path / "trips.csv"
        csv_path.write_text(header + "\n" + bad + "\n")
        rc = cli.main(["taxi", "--csv", str(csv_path), "--m", "1",
                       "--scope", "absolute:1"])
        assert rc == 1
        assert "no usable trips" in capsys.readouterr().out


    def test_mixed_utc_offsets_exit_2(self, tmp_path, capsys):
        # one kept row with a UTC offset, one without
        text = TAXI_CSV.replace("2016-12-10 08:00:00", "2016-12-10T08:00:00+00:00")
        csv_path = tmp_path / "trips.csv"
        csv_path.write_text(text)
        rc = cli.main(["taxi", "--csv", str(csv_path), "--m", "1",
                       "--scope", "absolute:1"])
        assert rc == 2
        assert "UTC offset" in capsys.readouterr().err


class TestReproduceCommand:
    def test_all_tables_pass_on_shipped_data(self, data_dir, capsys):
        rc = cli.main(["reproduce", "--table", "all", "--data", str(data_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        states = [line.rsplit(" ", 1)[1] for line in out.splitlines() if "%" in line]
        assert states.count("pass") == 49 and states.count("deviation") == 1
        assert "FAIL" not in out
        assert "closed walks: 14 of 14 gates pass" in out
        assert "closed walks: 36 of 36 gates pass" in out
        assert "expected deviation, published 13600, computed 13353.1" in out

    def test_non_utf8_instance_file_exits_2(self, data_dir, tmp_path, capsys):
        text = (data_dir / "eil51.tsp").read_text().replace("NAME : eil51", "NAME : café")
        (tmp_path / "eil51.tsp").write_bytes(text.encode("latin-1"))
        rc = cli.main(["reproduce", "--table", "set2-absolute", "--data", str(tmp_path)])
        assert rc == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_missing_data_dir_fails(self, tmp_path, capsys):
        rc = cli.main(["reproduce", "--table", "set2-absolute",
                       "--data", str(tmp_path)])
        assert rc == 1
        assert "missing instance files" in capsys.readouterr().out
