"""Experiment-driver tests: generation, sweeps, scope parsing, tables."""

import dataclasses
import math
import os

import numpy as np
import pytest

import bdmtsp.harness
from bdmtsp.cam import Configuration
from bdmtsp.core import BdmtspError, DynamicsScope, Fleet, build_schedule
from bdmtsp.harness import (
    ExperimentSpec,
    compare_sweep,
    gen_uniform,
    instance_for,
    parse_scope,
    reproduce_table,
    run_sweep,
)
from bdmtsp.io import parse_tsplib
from bdmtsp.solvers import ALGORITHMS, bd_avh, bd_cvh


class TestGenUniform:
    def test_deterministic_per_seed(self):
        a = gen_uniform(30, 7)
        b = gen_uniform(30, 7)
        assert np.array_equal(a.coords, b.coords)

    def test_seeds_differ(self):
        assert not np.array_equal(gen_uniform(30, 1).coords, gen_uniform(30, 2).coords)

    def test_strictly_inside_unit_square(self):
        for seed in range(20):
            coords = gen_uniform(200, seed).coords
            assert np.all(coords > 0.0)
            assert np.all(coords < 1.0)

    def test_depot_is_node_zero(self):
        inst = gen_uniform(5, 0)
        assert inst.depot == 0
        assert inst.n == 5

    def test_rejects_tiny(self):
        with pytest.raises(BdmtspError):
            gen_uniform(1, 0)

    def test_accepts_seed_sequence(self):
        ss = np.random.SeedSequence((3, 1, 4))
        a = gen_uniform(10, np.random.SeedSequence((3, 1, 4)))
        b = gen_uniform(10, ss)
        assert np.array_equal(a.coords, b.coords)

    def test_mean_pairwise_distance_matches_unit_square_constant(self):
        # expected distance between uniform points in the unit square
        expected = 0.5214054331647207
        acc = []
        for seed in range(10):
            c = gen_uniform(400, seed).coords
            d = np.hypot(c[:, None, 0] - c[None, :, 0], c[:, None, 1] - c[None, :, 1])
            iu = np.triu_indices(len(c), k=1)
            acc.append(d[iu].mean())
        assert abs(np.mean(acc) - expected) < 0.01


class TestRunSweep:
    CONFIGS = (Configuration(2, 40, 5), Configuration(3, 50, 10))

    def test_single_rep_equals_direct_solve(self):
        config = Configuration(3, 60, 5)
        spec = ExperimentSpec(configs=(config,), reps=1, seed=11)
        result = run_sweep(spec)
        inst = instance_for(11, 0, 0, 60)
        sched = build_schedule(DynamicsScope.absolute(5), inst, 3)
        direct = bd_avh(inst, Fleet(m=3), sched).total
        assert result.y[0] == direct

    def test_mean_over_reps(self):
        spec = ExperimentSpec(configs=(Configuration(2, 30, 5),), reps=3, seed=4)
        result = run_sweep(spec)
        totals = []
        for rep in range(3):
            inst = instance_for(4, 0, rep, 30)
            sched = build_schedule(DynamicsScope.absolute(5), inst, 2)
            totals.append(bd_avh(inst, Fleet(m=2), sched).total)
        assert result.y[0] == pytest.approx(np.mean(totals), rel=1e-12)

    def test_closed_means_come_from_the_same_solves(self, monkeypatch):
        # one call per algorithm and task, in the open mode; the closed
        # means equal those of closed solves, and the open means those of
        # open solves, bit for bit
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return bd_avh(*args, **kwargs)

        monkeypatch.setitem(ALGORITHMS, "avh", counted)
        spec = ExperimentSpec(configs=self.CONFIGS, reps=3, seed=9)
        result = run_sweep(spec)
        monkeypatch.undo()
        assert calls == [{}] * (len(self.CONFIGS) * spec.reps)
        assert result.algorithm == "avh"
        for ci, config in enumerate(self.CONFIGS):
            open_totals, closed_totals = [], []
            for rep in range(spec.reps):
                inst = instance_for(9, ci, rep, config.n)
                sched = build_schedule(DynamicsScope.absolute(config.d), inst, config.m)
                open_totals.append(bd_avh(inst, Fleet(m=config.m), sched).total)
                closed = bd_avh(inst, Fleet(m=config.m), sched, closed=True)
                closed_totals.append(closed.total)
            assert result.y[ci] == float(np.mean(open_totals))
            assert result.y_closed[ci] == float(np.mean(closed_totals))
            assert result.y_closed[ci] > result.y[ci]

    def test_parallel_matches_serial(self):
        spec = ExperimentSpec(configs=self.CONFIGS, reps=3, seed=9)
        serial = run_sweep(spec)
        parallel = run_sweep(dataclasses.replace(spec, workers=2))
        assert serial == parallel

    @pytest.mark.parametrize("cpus,expected", [(64, 6), (2, 2), (1, None)])
    def test_pool_is_capped_at_tasks_and_cpus(self, monkeypatch, cpus, expected):
        # a pool starts every worker up front: never more than there are
        # tasks (2 configs x 3 reps) or usable CPUs; None means no pool
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(bdmtsp.harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(bdmtsp.harness, "_usable_cpus", lambda: cpus)
        spec = ExperimentSpec(configs=self.CONFIGS, reps=3, seed=9)
        result = run_sweep(dataclasses.replace(spec, workers=10**6))
        assert pools == ([] if expected is None else [expected])
        assert result == run_sweep(spec)

    def test_usable_cpus_is_a_positive_count(self):
        assert 1 <= bdmtsp.harness._usable_cpus() <= (os.cpu_count() or 1)

    def test_result_carries_run_parameters(self):
        spec = ExperimentSpec(configs=self.CONFIGS, reps=2, seed=5)
        result = run_sweep(spec)
        assert result.configs == self.CONFIGS
        assert result.reps == 2 and result.seed == 5

    def test_cvh_algorithm_differs(self):
        base = ExperimentSpec(configs=(Configuration(4, 60, 5),), reps=2, seed=3)
        avh = run_sweep(base)
        cvh = run_sweep(dataclasses.replace(base, algorithm="cvh"))
        assert avh.y != cvh.y

    def test_spec_validation(self):
        with pytest.raises(BdmtspError):
            ExperimentSpec(configs=self.CONFIGS, reps=0)
        with pytest.raises(BdmtspError):
            ExperimentSpec(configs=self.CONFIGS, algorithm="magic")
        with pytest.raises(BdmtspError):
            ExperimentSpec(configs=())

    @pytest.mark.parametrize("seed", [-1, True, 1.0, "3", None])
    def test_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(BdmtspError, match="seed"):
            ExperimentSpec(configs=self.CONFIGS, seed=seed)

    @pytest.mark.parametrize("reps", [True, 2.5, -1])
    def test_reps_must_be_a_count(self, reps):
        with pytest.raises(BdmtspError, match="repetitions"):
            ExperimentSpec(configs=self.CONFIGS, reps=reps)

    def test_closed_is_not_a_setting(self):
        with pytest.raises(TypeError):
            ExperimentSpec(configs=self.CONFIGS, closed=True)


class TestCompareSweep:
    def test_deterministic_and_parallel_invariant(self):
        spec = ExperimentSpec(
            configs=(Configuration(3, 60, 5), Configuration(4, 80, 10)),
            reps=3,
            seed=17,
        )
        gap = compare_sweep(spec)
        assert gap == compare_sweep(spec)
        assert gap == compare_sweep(dataclasses.replace(spec, workers=2))

    def test_single_vehicle_gap_is_zero(self):
        # one vehicle: both policies pick the single nearest visible node
        spec = ExperimentSpec(configs=(Configuration(1, 50, 5),), reps=3, seed=2)
        assert compare_sweep(spec) == (0.0, 0.0)

    def test_open_and_closed_gaps_come_from_paired_solves(self):
        config = Configuration(3, 60, 5)
        spec = ExperimentSpec(configs=(config,), reps=2, seed=17)
        deltas = {False: [], True: []}
        for rep in range(2):
            inst = instance_for(17, 0, rep, config.n)
            sched = build_schedule(DynamicsScope.absolute(config.d), inst, config.m)
            for closed in (False, True):
                avh = bd_avh(inst, Fleet(m=3), sched, closed=closed).total
                cvh = bd_cvh(inst, Fleet(m=3), sched, closed=closed).total
                deltas[closed].append((cvh - avh) / avh)
        assert compare_sweep(spec) == (
            float(np.mean(deltas[False])),
            float(np.mean(deltas[True])),
        )


class TestParseScope:
    @pytest.mark.parametrize(
        "text,kind,value",
        [
            ("absolute:5", "absolute", 5),
            ("m-absolute:1.5", "m_absolute", 1.5),
            ("m_absolute:0.5", "m_absolute", 0.5),
            ("relative:20%", "relative", 0.2),
            ("relative:0.2", "relative", 0.2),
            ("m-relative:0.1", "m_relative", 0.1),
            ("variable:3,4,1", "variable", (3, 4, 1)),
        ],
    )
    def test_good(self, text, kind, value):
        scope = parse_scope(text)
        assert scope.kind == kind
        if isinstance(value, float):
            assert scope.value == pytest.approx(value)
        else:
            assert scope.value == value

    @pytest.mark.parametrize(
        "text", ["absolute5", "magic:3", "absolute:x", "relative:many%", ""]
    )
    def test_bad(self, text):
        with pytest.raises(BdmtspError):
            parse_scope(text)


class TestReproduceTable:
    def test_unknown_table(self):
        with pytest.raises(BdmtspError):
            reproduce_table("set9", "data")

    def test_missing_files_reported(self, tmp_path):
        report = reproduce_table("set2-absolute", tmp_path)
        assert report.rows == ()
        assert report.missing == ("eil51.tsp",)
        assert not report.ok
        text = report.to_text()
        assert "missing instance files: eil51.tsp" in text
        assert "nothing to reproduce" in text

    def test_set2_absolute_reproduces(self, data_dir):
        report = reproduce_table("set2-absolute", data_dir)
        assert report.missing == ()
        assert report.ok
        first = report.rows[0]
        assert first.instance == "eil51.tsp" and first.m == 2
        assert len(report.gates) == len(report.rows) == 36
        # every published total reproduces on closed walks to its printed
        # precision, and no cell is a named deviation
        for row, (label, passed, err) in zip(report.rows, report.gates):
            assert abs(row.computed_closed - row.published) <= 0.05, label
            assert passed and err == row.rel_err_closed
            assert "deviation" not in label
            assert row.computed_open < row.computed_closed

    def test_set1_relative_gates_pass(self, data_dir):
        # set1 prints thousands to one decimal: every closed total lies
        # within 50 of its published value, except the one named
        # deviation, which stays at its pinned 13353.1
        report = reproduce_table("set1-relative", data_dir)
        assert report.ok
        assert len(report.gates) == len(report.rows) == 14
        for row, (label, passed, err) in zip(report.rows, report.gates):
            assert passed and err == row.rel_err_closed
            if (row.algorithm, row.scope.value) == ("avh", 1.0):
                assert "expected deviation" in label
                assert "published 13600" in label and "computed 13353.1" in label
                assert abs(row.computed_closed - 13353.1) <= 0.05
            else:
                assert "deviation" not in label
                assert abs(row.computed_closed - row.published) <= 50, label

    @pytest.mark.parametrize("table", ["set1-relative", "set2-absolute"])
    def test_a_cell_fails_once_it_leaves_its_half_unit(self, table, data_dir):
        report = reproduce_table(table, data_dir)
        unit = bdmtsp.harness._TABLES[table][1]  # of the last printed digit
        assert unit == {"set1-relative": 100.0, "set2-absolute": 0.1}[table]
        for row in report.rows:
            pinned = (row.algorithm, row.scope.kind, row.scope.value) == ("avh", "relative", 1.0)
            target, half = (13353.1, 0.05) if pinned else (row.published, unit / 2)
            for offset, passes in ((0.99, True), (1.01, False)):
                for sign in (1, -1):
                    moved = dataclasses.replace(
                        row, computed_closed=target + sign * offset * half
                    )
                    assert bdmtsp.harness._gate(moved, unit)[1] is passes

    @pytest.mark.parametrize("table", ["set1-relative", "set2-absolute"])
    def test_one_solve_per_cell_gives_the_closed_solve_total(
        self, table, data_dir, monkeypatch
    ):
        calls = []
        for name, solver in (("avh", bd_avh), ("cvh", bd_cvh)):

            def counted(*args, _solver=solver, **kwargs):
                calls.append(kwargs.get("closed", False))
                return _solver(*args, **kwargs)

            monkeypatch.setitem(ALGORITHMS, name, counted)
        report = reproduce_table(table, data_dir)
        monkeypatch.undo()
        assert calls == [False] * len(report.rows)
        for row in report.rows:
            inst = parse_tsplib((data_dir / row.instance).read_text())
            schedule = build_schedule(row.scope, inst, row.m)
            solver = {"avh": bd_avh, "cvh": bd_cvh}[row.algorithm]
            closed = solver(inst, Fleet(m=row.m), schedule, closed=True)
            assert row.computed_closed == closed.total  # bit-equal
