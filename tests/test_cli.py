import functools
import gc
import hashlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from disklab.cli import DEFAULT_TOLS, main, parse_args, run
from disklab.quadrature import MAX_DISK_NODES
from disklab.weights import parse_weight_spec

from reference import disk_grid_size


class TestParse:
    def test_verify_isometry_harm(self):
        config = parse_args(["verify", "--suite", "isometry", "--weight", "harm:1,0"])
        assert config.command == "verify"
        assert config.suite == "isometry"
        assert config.weight_spec == "harm:1,0"

    def test_defaults(self):
        config = parse_args(["verify", "--suite", "all"])
        assert config.order == 8
        assert config.series_order == 64
        assert config.radial_order == 120
        assert config.angular_order == 256
        assert config.tols == DEFAULT_TOLS

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--suite", "bogus"])
        assert exc.value.code == 2

    def test_bad_weight_spec_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--weight", "harm:0,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "spec",
        ["harm:nan,0", "log:nan,0", "harm:inf,0", "scaled:nan:harm:1,0",
         "scaled:inf:harm:1,0", "harm:1.7e308,1.7e308"],
    )
    def test_non_finite_spec_is_usage_error(self, spec):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--weight", spec])
        assert exc.value.code == 2

    def test_grid_over_node_budget_is_usage_error(self, tmp_path, capsys):
        # make_disk_grid refuses the grid before allocating; verify builds it first
        nodes = disk_grid_size(120, 256, parse_weight_spec(_NEAR_CIRCLE).singular_radii)
        out = tmp_path / "report.json"
        assert main(["verify", "--weight", _NEAR_CIRCLE, "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: disk grid needs {nodes} nodes, over the budget {MAX_DISK_NODES}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec", ["harm:1,1", "harm:3,7"])
    def test_boundary_pole_off_the_axes_parses(self, spec):
        # the normalised pole has modulus 0.9999999999999999; counts only
        assert parse_args(["verify", "--weight", spec]).weight_spec == spec

    def test_out_of_range_order_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--order", "99"])
        assert exc.value.code == 2

    def test_tol_override(self):
        config = parse_args(["verify", "--tol", "isometry=0.05"])
        assert config.tols["isometry"] == 0.05

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1e-3", "-0.5"])
    def test_non_finite_or_negative_tol_is_usage_error(self, value):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--tol", f"h_identity={value}"])
        assert exc.value.code == 2

    def test_zero_tol_is_accepted(self):
        assert parse_args(["verify", "--tol", "h_identity=0"]).tols["h_identity"] == 0.0

    def test_unknown_tol_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--tol", "nope=1"])
        assert exc.value.code == 2

    def test_missing_subcommand_rejected(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("prog, flags, error", [
        ("disklab dbr build", ["--series-order", "4"],
         "--series-order must lie in [8, 512], got 4"),
        ("disklab verify", ["--order", "99"], "--order must lie in [1, 16], got 99"),
        ("disklab weights info", ["--format", "csv"], "unrecognized arguments: --format csv"),
        ("disklab verify", ["--boundary", "2048"], "unrecognized arguments: --boundary 2048"),
    ], ids=["dbr-build", "verify", "weights-info", "verify-boundary"])
    def test_usage_error_names_the_subcommand(self, prog, flags, error, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*prog.split()[1:], *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h]")
        assert err.endswith(f"\n{prog}: error: {error}\n")



_SUBCOMMANDS = {
    "verify": ["verify"],
    "moments": ["moments"],
    "dbr-build": ["dbr", "build"],
    "weights-info": ["weights", "info"],
}
# every option string each subcommand accepts, as its --help lists them: the
# flags its runner reads
_OPTIONS = {
    "verify": {"-h", "--help", "--suite", "--weight", "--order", "--series-order",
               "--radial", "--angular", "--tol", "--out", "--format"},
    "moments": {"-h", "--help", "--route", "--weight", "--order", "--radial",
                "--angular", "--out"},
    "dbr-build": {"-h", "--help", "--weight", "--series-order", "--radial", "--angular",
                  "--out"},
    "weights-info": {"-h", "--help", "--weight", "--radial", "--angular", "--out"},
}
# a valid value of every settable option of any subcommand
_VALID_VALUES = {
    "--suite": "all", "--route": "auto", "--weight": "harm:1,0", "--order": "8",
    "--series-order": "64", "--radial": "120", "--angular": "256",
    "--tol": "h0=1e-6", "--out": "report.json",
    "--format": "json",
}
# the pole almost on the circle whose graded grid is over the node budget
_NEAR_CIRCLE = "log:0.9999999,0"


def _help(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        parse_args([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestFrontEnd:
    @pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
    def test_each_subcommand_parses_its_command(self, command):
        assert parse_args(_SUBCOMMANDS[command]).command == command

    @pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
    def test_defaults_are_the_help_defaults(self, command, capsys):
        argv = _SUBCOMMANDS[command]
        shown = dict(re.findall(r"(--[a-z-]+) [A-Z_]+\s+[a-z -]+\(default (\d+)\)",
                                _help(argv, capsys)))
        fields = {flag: field for flag, field in (
            ("--order", "order"), ("--series-order", "series_order"),
            ("--radial", "radial_order"), ("--angular", "angular_order"))
            if flag in _OPTIONS[command]}
        assert shown.keys() == fields.keys()
        config = parse_args(argv)
        assert {flag: int(value) for flag, value in shown.items()} == {
            flag: getattr(config, field) for flag, field in fields.items()}

    @pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
    def test_each_subcommand_accepts_its_option_strings(self, command, capsys):
        text = _help(_SUBCOMMANDS[command], capsys)
        section = text.split("options:\n", 1)[1]
        listed = {opt.split()[0] for line in section.splitlines()
                  if line.startswith("  -") for opt in line.strip().split(", ")}
        assert listed == _OPTIONS[command]
        for option, value in _VALID_VALUES.items():
            argv = [*_SUBCOMMANDS[command], option, value]
            if option not in _OPTIONS[command]:
                with pytest.raises(SystemExit) as exc:
                    parse_args(argv)
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err
            elif option in ("--suite", "--route"):
                assert getattr(parse_args(argv), option[2:]) == value

    @pytest.mark.parametrize("argv", [
        ["verify", "--suite", "tensor"],
        ["moments"],
        ["dbr", "build"],
        ["weights", "info"],
    ])
    def test_weight_spec_is_parsed_once_per_main(self, argv, monkeypatch, tmp_path):
        from disklab import cli

        command = parse_args(argv).command
        specs = []
        real = cli.parse_weight_spec
        monkeypatch.setattr(cli, "parse_weight_spec",
                            lambda spec: specs.append(spec) or real(spec))
        out = tmp_path / "out"
        assert main([*argv, "--weight", "harm:1,0",
                     *_fast_flags("--out", str(out), command=command)]) == 0
        assert specs == ["harm:1,0"]

    @pytest.mark.parametrize("route, grids_built", [
        ("auto", 0), ("atom", 0), ("measure", 1)])
    def test_moments_builds_a_grid_only_on_the_measure_route(
        self, route, grids_built, monkeypatch, tmp_path
    ):
        from disklab import weights

        grids = []
        real = weights.make_disk_grid
        monkeypatch.setattr(weights, "make_disk_grid",
                            lambda *a, **k: grids.append(a) or real(*a, **k))
        out = tmp_path / "table.json"
        assert main(["moments", "--weight", "harm:1,0", "--route", route,
                     *_fast_flags("--out", str(out), command="moments")]) == 0
        assert len(grids) == grids_built
        assert json.loads(out.read_text())["table"]["order"] == 4

    def test_a_failed_model_build_runs_once_and_fails_every_dependent_check(
        self, monkeypatch
    ):
        from disklab import cli, dbr

        builds = []
        real = dbr.build_model
        monkeypatch.setattr(dbr, "build_model",
                            lambda *a, **k: builds.append(a) or real(*a, **k))
        ctx = cli._SuiteContext(parse_args(["verify", "--weight", "uniform",
                                            *_fast_flags()]))
        records = cli.suite_dbr(ctx) + cli.suite_isometry(ctx)
        assert len(builds) == 1
        failed = [r.name for r in records if not r.passed]
        assert failed == [r.name for r in records if r.name != "laplacian-identity"]
        assert all(r.detail.startswith("NotDbrWeightError") for r in records
                   if r.name in failed)

    @pytest.mark.parametrize("argv", [["verify", "--suite", "moments"], ["moments"]])
    def test_unwritable_out_is_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "t.json"
        flags = _fast_flags("--out", str(out), command=parse_args(argv).command)
        assert main([*argv, *flags]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"
        assert not out.parent.exists()

    def test_suite_runners_are_the_plain_suite_functions(self):
        # the traced benchmark swaps each runner for its wrapper by identity
        import types

        from disklab import cli

        assert tuple(cli._SUITE_RUNNERS) == cli.SUITES
        for suite, fn in cli._SUITE_RUNNERS.items():
            assert fn is getattr(cli, f"suite_{suite}")
            assert isinstance(fn, types.FunctionType)
            assert fn.__module__ == "disklab.cli" and fn.__name__ == f"suite_{suite}"


_numbers = st.one_of(
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["", " ", "nan", "-inf", "1e999", "1e-400", "5e-324", "0x10",
                     "1_0", "+.5", "1,", "abc", "0.9999999", "-0", "1e308", "1e-300"]),
)
_coordinates = st.floats(-1.5, 1.5).map(repr)
_points = st.one_of(
    st.lists(_numbers, max_size=3).map(",".join),
    st.tuples(_coordinates, _numbers).map(",".join),
)
_kinds = st.sampled_from(["harm", "log", "scaled", "uniform", "", "Harm", " log", "foo"])
_specs = st.recursive(
    st.one_of(
        st.text(max_size=20),
        st.builds(lambda k, p: f"{k}:{p}", _kinds, _points),
        st.builds(lambda k, p: f"{k}{p}", _kinds, _points),
        st.builds(lambda k, x, y: f"{k}:{x},{y}", st.sampled_from(["harm", "log"]),
                  _coordinates, _coordinates),
    ),
    lambda inner: st.builds(lambda c, spec: f"scaled:{c}:{spec}", _numbers, inner),
    max_leaves=3,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(spec=_specs)
@example(spec="log:5e-324,0")  # a subnormal pole radius: its grid segment underflows
@example(spec="harm:1e-320,1e-320")  # a subnormal point normalised to the circle
@example(spec="scaled:1e308:scaled:1e308:log:0.4,0")  # the factors overflow
@example(spec="scaled:1e-300:scaled:1e-300:log:0.4,0")  # the factors underflow to 0
@example(spec="scaled:5e-324:log:0.5,0")  # the atom's mass underflows to 0
@example(spec="scaled:1e-310:harm:1,0")  # the mass's reciprocal overflows
def test_junk_spec_is_usage_error_or_round_trips(spec):
    try:
        config = parse_args(["weights", "info", "--weight", spec])
    except SystemExit as exc:
        assert exc.code == 2
        return
    label = parse_weight_spec(config.weight_spec).label
    assert parse_weight_spec(label).label == label
    # nested scale factors compose, innermost first, to a positive finite factor
    product = 1.0
    for c in config.weight.factors:
        product *= c
        assert 0.0 < product < math.inf
    # and unit-mass normalization can divide by the mass
    mass = config.weight.analytic_mass
    assert 0.0 < mass and 1.0 / mass < math.inf


_FAST_FLAGS = (("--radial", "60"), ("--angular", "128"), ("--series-order", "32"),
               ("--order", "4"))


def _fast_flags(*extra, command="verify"):
    """The small orders among the flags ``command`` reads, then ``extra``."""
    return [arg for flag, value in _FAST_FLAGS if flag in _OPTIONS[command]
            for arg in (flag, value)] + list(extra)


class TestRun:
    def test_moments_suite_on_harmonic_weight_passes(self):
        config = parse_args(
            ["verify", "--suite", "moments", "--weight", "harm:1,0", *_fast_flags()]
        )
        report, code = run(config)
        assert code == 0 and report.passed
        names = [c.name for c in report.checks]
        assert "point-forward-exact" in names
        assert "weight-table-multiplicative" in names

    def test_tensor_suite_on_uniform_weight_fails(self):
        config = parse_args(
            ["verify", "--suite", "tensor", "--weight", "uniform", *_fast_flags()]
        )
        report, code = run(config)
        assert code == 1 and not report.passed
        check = next(c for c in report.checks if c.name == "weight-table-tensor")
        assert not check.passed
        assert check.value == pytest.approx(1.0, abs=1e-6)
        assert "(0, 0, 0, 1)" in check.detail

    def test_tensor_suite_on_log_weight_passes(self):
        config = parse_args(
            ["verify", "--suite", "tensor", "--weight", "log:0,0", *_fast_flags()]
        )
        report, code = run(config)
        assert code == 0, [c for c in report.checks if not c.passed]

    def test_dirichlet_suite_on_uniform_passes(self):
        config = parse_args(
            ["verify", "--suite", "dirichlet", "--weight", "uniform", *_fast_flags()]
        )
        report, code = run(config)
        assert code == 0, [c for c in report.checks if not c.passed]

    def test_dbr_suite_on_uniform_fails_with_rank_message(self):
        config = parse_args(
            ["verify", "--suite", "dbr", "--weight", "uniform", *_fast_flags()]
        )
        report, code = run(config)
        assert code == 1
        build = next(c for c in report.checks if c.name == "model-build")
        assert not build.passed
        assert "NotDbrWeightError" in build.detail

    def test_a_row_that_raises_keeps_its_tolerance(self):
        # uniform's model rows fail on the build's error; only model-build is an info row
        from disklab.cli import _CHECKS

        config = parse_args(["verify", "--suite", "all", "--weight", "uniform", *_fast_flags()])
        report, _ = run(config)
        raised = [c for c in report.checks if c.detail.startswith("NotDbrWeightError")]
        assert len(raised) == 9 and not any(c.passed for c in raised)
        assert [c.name for c in report.checks if c.tolerance is None] == ["model-build"]
        info = [line for line in report.to_text().splitlines() if "tol=info" in line]
        assert len(info) == 1 and "model-build" in info[0]
        tols = {row.name: row.tol for row in _CHECKS}
        for c in raised[1:]:
            assert c.tolerance == DEFAULT_TOLS[tols[c.name]], c.name

    @pytest.mark.parametrize("spec", ["harm:1,0", "log:0.4,0", "uniform", "scaled:2:log:0.4,0"])
    def test_verify_all_never_forms_a_whole_grid(self, spec, monkeypatch):
        from disklab import DiskGrid

        whole = []

        def refuse(grid):
            whole.append(grid)
            raise AssertionError("a whole grid's arrays were formed")

        monkeypatch.setattr(DiskGrid, "nodes", property(refuse))
        monkeypatch.setattr(DiskGrid, "weights", property(refuse))
        report, _ = run(parse_args(["verify", "--suite", "all", "--weight", spec,
                                    *_fast_flags()]))
        assert whole == []
        assert not any("AssertionError" in c.detail for c in report.checks)

    def test_moments_and_tensor_suites_share_seeded_tables(self, monkeypatch):
        from disklab import cli

        calls = []
        real = cli.point_moments
        monkeypatch.setattr(
            cli, "point_moments", lambda d, order: calls.append(d) or real(d, order)
        )
        ctx = cli._SuiteContext(
            parse_args(["verify", "--weight", "harm:1,0", *_fast_flags()])
        )
        cli.suite_moments(ctx)
        cli.suite_tensor(ctx)
        # 10 seeded rank-one tables, built once, plus 10 rejection tables
        assert len(calls) == 20

    def test_moments_suite_builds_one_disk_grid(self, monkeypatch):
        from disklab import cli, weights

        grids = []
        real = weights.make_disk_grid
        monkeypatch.setattr(
            weights, "make_disk_grid",
            lambda *a, **k: grids.append(a) or real(*a, **k),
        )
        ctx = cli._SuiteContext(
            parse_args(["verify", "--weight", "harm:1,0", *_fast_flags()])
        )
        records = cli.suite_moments(ctx)
        assert len(grids) == 1
        detail = next(r.detail for r in records if r.name == "weight-table-multiplicative")
        assert "measure-route residual" in detail and "coarse" not in detail

    def test_moments_and_dirichlet_suites_share_one_ring_dft_pass(self, monkeypatch):
        from disklab import cli, moments, uniform_weight
        from disklab.moments import measure_moments

        passes = []
        real = moments._ring_moments
        monkeypatch.setattr(
            moments, "_ring_moments",
            lambda vals, grid, order: passes.append(order) or real(vals, grid, order),
        )
        ctx = cli._SuiteContext(
            parse_args(["verify", "--weight", "uniform", *_fast_flags()])
        )
        cli.suite_moments(ctx)
        assert passes == [31]  # series order 32 - 1 exceeds order 4
        cli.suite_dirichlet(ctx)
        assert passes == [31]
        # the order-4 corner is bit-identical to a build at order 4
        fresh = measure_moments(uniform_weight(), ctx.disk_grid, 4)
        assert np.array_equal(ctx.measure_table.re, fresh.re)
        assert np.array_equal(ctx.measure_table.im, fresh.im)

    @pytest.mark.parametrize("suite, spec", [
        ("dirichlet", "log:0.4,0"),  # alone: energy-of-identity reads the measure table
        ("all", "log:0.4,0"),  # the unit-mass model weight is weight.scaled(1/mass)
    ])
    def test_one_ring_dft_pass_per_run(self, suite, spec, monkeypatch):
        from disklab import cli, dbr, moments

        passes = []
        real = moments._ring_moments
        monkeypatch.setattr(
            moments, "_ring_moments",
            lambda vals, grid, order: passes.append(order) or real(vals, grid, order),
        )
        report, code = run(parse_args(["verify", "--suite", suite, "--weight", spec,
                                       *_fast_flags()]))
        assert code == 0, [c for c in report.checks if not c.passed]
        # a weight with atoms takes the closed-form energy, so the pass runs at
        # order 4, or at the order of the h-identity points' Berezin values
        berezin = max(dbr._berezin_order(v) for v in cli._h_identity_points(1.0))
        assert passes == [berezin if suite == "all" else 4]

    def test_one_ring_dft_pass_on_a_weight_without_atoms(self, monkeypatch):
        from disklab import moments

        passes = []
        real = moments._ring_moments
        monkeypatch.setattr(
            moments, "_ring_moments",
            lambda vals, grid, order: passes.append(order) or real(vals, grid, order),
        )
        report, code = run(parse_args(["verify", "--suite", "all", "--weight", "uniform",
                                       *_fast_flags()]))
        assert code == 1
        assert passes == [31]  # series order 32 - 1: its energies read the grid

    @pytest.mark.parametrize("spec", ["harm:1,0", "uniform"])
    def test_verify_all_makes_one_ring_pass_and_one_mass_pass(self, spec, monkeypatch):
        from disklab import cli, dbr, moments, weights

        passes, evaluated = [], []
        ring, evaluate = moments._ring_moments, weights.Weight.eval_many
        monkeypatch.setattr(moments, "_ring_moments",
                            lambda w, grid, order: passes.append(order) or ring(w, grid, order))
        monkeypatch.setattr(weights.Weight, "eval_many",
                            lambda w, z: evaluated.append(np.size(z)) or evaluate(w, z))
        config = parse_args(["verify", "--suite", "all", "--weight", spec])
        report, code = run(config)
        assert code == (1 if spec == "uniform" else 0)
        # the ring pass at the largest order the run reads: the Berezin values
        # of a model's h-identity points, or the energies of a weight without atoms
        points = cli._h_identity_points(1.0)
        assert passes == ([63] if spec == "uniform"
                          else [max(dbr._berezin_order(v) for v in points)])
        # two grids: the ring pass and the mass's blocked cross-check; the
        # rest is the lattice's circles
        size = cli._SuiteContext(config).disk_grid.size
        assert 0 <= sum(evaluated) - 2 * size < 2**14

    @pytest.mark.parametrize("spec", ["harm:1,0", "log:0.4,0", "harm:0.6,-0.8"])
    def test_phi_consistency_reads_the_first_ten_h_identity_points(self, spec, monkeypatch):
        from disklab import cli, dbr

        calls = []
        real = dbr.berezin_transforms
        monkeypatch.setattr(dbr, "berezin_transforms",
                            lambda w, points, grid: calls.append(list(points))
                            or real(w, points, grid))
        config = parse_args(["verify", "--suite", "dbr", "--weight", spec])
        report, code = run(config)
        assert code == 0, [c for c in report.checks if not c.passed]
        # h-identity's 25 points, then phi-consistency's, the same first ten draws
        points = cli._h_identity_points(cli._SuiteContext(config).direction)
        assert calls == [points, points[:10]]

    def test_weights_info_reads_each_grid_once(self, monkeypatch, capsys):
        from disklab import cli, moments, weights

        evaluated, integrated, passes = [], [], []
        evaluate = weights.Weight.eval_many
        monkeypatch.setattr(weights.Weight, "eval_many",
                            lambda w, z: evaluated.append(np.size(z)) or evaluate(w, z))
        for module in (moments, cli):  # the modules that bind integrate
            monkeypatch.setattr(module, "integrate",
                                lambda grid, f: integrated.append(grid.size))
        ring = moments._ring_moments
        monkeypatch.setattr(moments, "_ring_moments", lambda w, grid, order:
                            passes.append((grid.size, order)) or ring(w, grid, order))
        assert main(["weights", "info", "--weight", "harm:1,0"]) == 0
        capsys.readouterr()
        w = parse_weight_spec("harm:1,0")
        coarse = weights.grid_for_weight(w, 120, 256).size
        fine = weights.grid_for_weight(w, 240, 512).size
        # every lattice cell's 256-node circle, and each center once (no
        # interior pole drops a cell)
        centers, radii = weights._LATTICE_CENTERS, weights._LATTICE_RADII
        lattice = len(centers) * len(radii) * 256 + len(centers)
        assert sum(evaluated) == coarse + fine + lattice
        # one order-0 ring pass per disk grid, whose W[0][0] is the mass
        assert passes == [(fine, 0), (coarse, 0)] and integrated == []

    def test_isometry_suite_on_a_log_pole_reads_no_grid_values(self, monkeypatch):
        from disklab import cli, moments, quadrature

        calls = []

        def counting(module, name):
            real = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, **k: calls.append(name) or real(*a, **k))

        def disk_integrate(grid, f):
            if isinstance(grid, quadrature.DiskGrid):
                calls.append("integrate")
            return quadrature.integrate(grid, f)

        counting(moments, "_ring_moments")
        for module in (moments, cli):  # the modules that bind integrate
            monkeypatch.setattr(module, "integrate", disk_integrate)
        report, code = run(parse_args(["verify", "--suite", "isometry", "--weight",
                                       "log:0.4,0", "--series-order", "256"]))
        assert code == 0, [c for c in report.checks if not c.passed]
        assert calls == []

    def test_each_command_makes_one_ring_pass_per_weight_and_grid(self, monkeypatch,
                                                                   capsys):
        from disklab import cli, moments, quadrature

        passes, integrated = [], []
        ring, integrate = moments._ring_moments, quadrature.integrate
        monkeypatch.setattr(moments, "_ring_moments", lambda w, grid, order:
                            passes.append((w, grid)) or ring(w, grid, order))
        for module in (quadrature, moments, cli):  # the modules that bind integrate
            monkeypatch.setattr(module, "integrate", lambda grid, f:
                                integrated.append(grid) or integrate(grid, f))
        for argv in _pass_guard_lines():
            passes.clear()
            integrated.clear()
            assert main(argv) in (0, 1), argv
            out = capsys.readouterr().out
            rows = ([c["name"] for c in json.loads(out)["checks"]]
                    if argv[0] == "verify" else [])
            # the weight objects stay referenced, so their ids are not reused
            keys = [(id(w), grid) for w, grid in passes]
            assert len(keys) == len(set(keys)), argv
            # the blocked sum is the mass's cross-check and nothing else
            assert len(integrated) == rows.count("energy-of-identity-vs-mass"), argv

    def test_dbr_build_on_atomic_weight_builds_no_disk_grid(self, monkeypatch, tmp_path):
        from disklab import weights

        grids = []
        real = weights.make_disk_grid
        monkeypatch.setattr(
            weights, "make_disk_grid",
            lambda *a, **k: grids.append(a) or real(*a, **k),
        )
        out = tmp_path / "model.json"
        flags = _fast_flags(command="dbr-build")
        assert main(["dbr", "build", "--weight", "harm:1,0", *flags,
                     "--out", str(out)]) == 0
        assert grids == []
        assert json.loads(out.read_text())["weight"] == "harm:1,0"
        # a weight without atoms still gets its grid, and is then rejected
        assert main(["dbr", "build", "--weight", "uniform", *flags]) == 1
        assert len(grids) == 1

    def test_dbr_build_of_a_weight_without_a_model_is_one_error_line(self, capsys):
        code = main(["dbr", "build", "--weight", "uniform", "--radial", "40",
                     "--angular", "64"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: table is not rank one")
        assert "Traceback" not in err and err.count("\n") == 1

    def test_exit_code_matches_overall_pass(self):
        config = parse_args(
            ["verify", "--suite", "dirichlet", "--weight", "log:0,0", *_fast_flags()]
        )
        report, code = run(config)
        assert (code == 0) == report.passed

    def test_all_suites_on_log_weight_pass_at_default_orders(self):
        report, code = run(parse_args(["verify", "--suite", "all",
                                       "--weight", "log:0,0"]))
        assert code == 0, [c for c in report.checks if not c.passed]
        assert len(report.checks) == 20


def _pass_guard_lines() -> list[list[str]]:
    """The command lines whose grid passes the pass-count guard counts:
    ``verify --suite all`` on the catalog, the benchmark's ``kernel-log``
    lines at seeds 0-7, ``dbr build`` of a weight without atoms and
    ``weights info``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "run.py")
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    catalog = ("harm:1,0", "harm:0.6,-0.8", "uniform", "log:0.4,0", "log:0.9,0",
               "scaled:2:log:0.4,0")
    return ([["verify", "--suite", "all", "--weight", s] for s in catalog]
            + [argv for seed in range(8) for argv in bench.invocations("kernel-log", seed)]
            + [["dbr", "build", "--weight", "uniform"], ["weights", "info"]])


def _falsification(spec):
    report, code = run(parse_args(["verify", "--suite", "isometry", "--weight", spec]))
    check = next(c for c in report.checks if c.name == "isometry-falsification-b-zero")
    return code, check.value


class TestRotatedPoles:
    """Test points turn with the weight's atom, so a rotated pole gets the same verdicts."""

    @pytest.mark.parametrize("rotated, unrotated", [
        ("harm:-1,0", "harm:1,0"), ("harm:0,-1", "harm:1,0"),
        ("harm:0.6,-0.8", "harm:1,0"), ("log:-0.4,0", "log:0.4,0")])
    def test_falsification_gap_does_not_depend_on_the_angle(self, rotated, unrotated):
        code, value = _falsification(rotated)
        ref_code, ref_value = _falsification(unrotated)
        assert code == 0 and ref_code == 0
        assert value == pytest.approx(ref_value, rel=1e-8)


class TestMainAndFormats:
    def test_json_report_schema(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--suite", "dirichlet", "--weight", "uniform",
             *_fast_flags("--out", str(out))]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["schema"] == 1
        assert data["suite"] == "dirichlet"
        assert data["passed"] is True
        assert all(
            {"name", "digest", "value", "tolerance", "passed", "detail",
             "elapsed_s"} == set(c) for c in data["checks"]
        )

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["verify", "--suite", "dirichlet", "--weight", "uniform",
             *_fast_flags("--format", "csv", "--out", str(out))]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("suite,check,digest")
        assert len(lines) >= 5

    def test_text_format(self, capsys):
        code = main(
            ["verify", "--suite", "dirichlet", "--weight", "uniform",
             *_fast_flags("--format", "text")]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "overall: PASS" in text

    def test_moments_subcommand(self, tmp_path):
        out = tmp_path / "table.json"
        code = main(
            ["moments", "--weight", "uniform", "--route", "measure",
             *_fast_flags("--out", str(out), command="moments")]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["table"]["order"] == 4
        assert data["weak_mult_residual"] == pytest.approx(0.5, abs=1e-9)

    def test_atom_route_without_atoms_is_one_error_line(self, capsys):
        assert main(["moments", "--weight", "uniform", "--route", "atom"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: no atomic realization is known for this weight\n"

    def test_dbr_build_subcommand(self, tmp_path):
        out = tmp_path / "model.json"
        code = main(
            ["dbr", "build", "--weight", "harm:1,0",
             *_fast_flags("--out", str(out), command="dbr-build")]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["weight"] == "harm:1,0"
        assert len(data["b"]["re"]) == 33
        assert data["diagnostics"]["h0_deviation"] <= 1e-6

    def test_weights_info_subcommand(self, tmp_path):
        out = tmp_path / "info.json"
        code = main(
            ["weights", "info", "--weight", "log:0,0",
             *_fast_flags("--out", str(out), command="weights-info")]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["is_harmonic"] is False
        assert data["l1_norm"] == pytest.approx(0.5, abs=1e-6)
        # values only: the verdict belongs to verify's superharmonic-lattice check
        assert set(data["superharmonic"]) == {"worst_violation", "worst_margin"}
        assert data["superharmonic"]["worst_violation"] <= DEFAULT_TOLS["superharmonic"]


class TestNodeBudget:
    """The budget is checked where a grid is built, so a command that builds none runs."""

    def test_dbr_build_of_an_atomic_weight_over_the_budget(self, tmp_path):
        from disklab import cli, dbr

        out = tmp_path / "model.json"
        assert main(["dbr", "build", "--weight", _NEAR_CIRCLE, "--series-order", "8",
                     "--out", str(out)]) == 0
        model = dbr.build_model(parse_weight_spec(_NEAR_CIRCLE), None, order=8)
        assert out.read_text() == cli._json_text(model.to_json_dict())

    @pytest.mark.parametrize("route", ["auto", "atom"])
    def test_moments_from_atoms_over_the_budget(self, route, capsys):
        assert main(["moments", "--weight", _NEAR_CIRCLE, "--route", route]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out)["table"]["order"] == 8 and err == ""

    @pytest.mark.parametrize("argv", [["moments", "--route", "measure"],
                                      ["weights", "info"]])
    def test_a_grid_over_the_budget_is_one_error_line(self, argv, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main([*argv, "--weight", _NEAR_CIRCLE, "--out", str(out)]) == 2
        nodes = disk_grid_size(120, 256, parse_weight_spec(_NEAR_CIRCLE).singular_radii)
        stdout, err = capsys.readouterr()
        assert stdout == ""
        assert err == f"error: disk grid needs {nodes} nodes, over the budget {MAX_DISK_NODES}\n"
        assert not out.exists()

    @pytest.mark.parametrize("spec, radial", [
        ("log:0.4,0", 20000), ("log:0.4,0", 140000), ("log:0.4,0", 10**8), ("harm:1,0", 10**30),
    ])
    def test_a_huge_radial_order_is_refused_before_its_rule(self, spec, radial,
                                                            small_gauss_rules_only, capsys):
        assert main(["weights", "info", "--weight", spec, "--radial", str(radial)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(rf"error: disk grid needs more than \d+ nodes, over the budget "
                            rf"{MAX_DISK_NODES}\n", err)


class TestTruncationDetail:
    """At a low series order the truncated h is the error of the two rows that
    compare with it, and a failing row's detail says so."""

    def test_failing_rows_name_the_series_order_and_last_kept_term(self):
        report, code = run(parse_args(["verify", "--suite", "dbr", "--weight", "harm:1,0",
                                       "--series-order", "8"]))
        rows = {c.name: c for c in report.checks}
        assert code == 1 and not rows["h-identity"].passed and not rows["phi-consistency"].passed
        # h_k = 1 for harm:1,0, so |h_8 v^8| = |v|^8: 0.137 at |v| = 0.7798
        assert rows["h-identity"].detail == (
            "worst point 0.7782+0.0505j; series order 8, |h_N v^N| = 0.137 there")
        assert rows["phi-consistency"].detail == (
            "integral route vs series route, worst point 0.0035+0.7569j; "
            "series order 8, |h_N v^N| = 0.108 there")

    def test_passing_rows_keep_their_detail(self):
        report, code = run(parse_args(["verify", "--suite", "dbr", "--weight", "harm:1,0"]))
        rows = {c.name: c for c in report.checks}
        assert code == 0
        assert re.fullmatch(r"worst point [-+.0-9]+j", rows["h-identity"].detail)
        assert rows["phi-consistency"].detail == "integral route vs series route"


class TestProcessEntryPoint:
    def test_main_in_process_leaves_the_callers_heap_unfrozen(self, capsys):
        before = gc.get_freeze_count()
        argv = ["weights", "info", "--weight", "uniform", "--radial", "20", "--angular", "32"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["schema"] == 1
        assert gc.get_freeze_count() == before

    def test_process_entry_freezes_the_import_heap_before_the_command(self):
        # python -m disklab, with its command wrapped to report the freeze count
        probe = (
            "import gc, runpy, sys\n"
            "from disklab import cli\n"
            "run = cli._COMMANDS['weights-info']\n"
            "def report(config):\n"
            "    print(gc.get_freeze_count(), file=sys.stderr)\n"
            "    return run(config)\n"
            "cli._COMMANDS['weights-info'] = report\n"
            "sys.argv = ['disklab', 'weights', 'info', '--weight', 'uniform',\n"
            "            '--radial', '20', '--angular', '32']\n"
            "runpy.run_module('disklab', run_name='__main__', alter_sys=True)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stderr) > 10_000  # numpy's and disklab's objects
        assert json.loads(proc.stdout)["is_harmonic"] is True

    def test_usage_error_exit_code_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "disklab", "verify", "--suite", "bogus"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    def test_weights_info_through_interpreter(self):
        proc = subprocess.run(
            [sys.executable, "-m", "disklab", "weights", "info",
             "--weight", "uniform", "--radial", "20", "--angular", "32"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["schema"] == 1 and data["is_harmonic"] is True

    def test_model_output_does_not_depend_on_blas_thread_count(self):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "disklab", "dbr", "build",
                 "--weight", "harm:1,0", "--series-order", "256"],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])["diagnostics"]["rank_ratio"] == 0.0

    @pytest.mark.parametrize("argv, code", [
        (["verify", "--suite", "all", "--weight", "harm:1,0"], 0),
        (["verify", "--suite", "all", "--weight", "uniform"], 1),
        (["dbr", "build", "--weight", "log:0.4,0", "--series-order", "512", "--out", None], 0),
        (["weights", "info", "--weight", "scaled:1e308:harm:1,0"], 2),
    ], ids=["verify-harm", "verify-uniform", "dbr-build-512", "weights-info-overflow"])
    def test_dev_mode_with_warnings_as_errors_is_clean(self, argv, code, tmp_path):
        # -X dev turns on the interpreter's debug checks and resource
        # warnings, and -W error makes any warning end the process
        argv = [str(tmp_path / "model.json") if a is None else a for a in argv]
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "disklab", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == code, proc.stderr
        assert re.fullmatch(r"error: [^\n]*\n" if code == 2 else "", proc.stderr), proc.stderr

    @pytest.mark.skipif(
        importlib.util.find_spec("_sha2") is None and importlib.util.find_spec("_sha256") is None,
        reason="the interpreter has no built-in sha256 module",
    )
    def test_a_verify_process_does_not_load_openssl(self):
        code = ("import os, sys\n"
                "from disklab import cli\n"
                "code = cli.main(['verify', '--suite', 'all', '--weight', 'harm:1,0',\n"
                "                 '--out', os.devnull])\n"
                "print(code, sorted({'_hashlib', 'ssl'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(parts=st.lists(st.one_of(st.text(), st.integers(), st.floats()), max_size=8))
@example(parts=["point-forward-exact", "harm:1,0", 8, 120, 256, 0x5EED])
@example(parts=["\u00e9\u4e2d\U0001f600", ""])
def test_check_digest_is_the_first_12_hex_digits_of_sha256(parts):
    from disklab import cli

    blob = "|".join(map(str, parts)).encode()
    assert cli._digest(*parts) == hashlib.sha256(blob).hexdigest()[:12]


def _strict_json(text: str):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-finite token {token}")

    return json.loads(text, parse_constant=refuse)


_CATALOG = ("harm:1,0", "harm:0.6,-0.8", "log:0.4,0", "uniform", "scaled:2:log:0.4,0")
_OVERFLOW = "scaled:1e308:harm:1,0"  # its values overflow on every grid near the pole


class TestTinyPoles:
    """A node hits a pole only where it equals it, so a log pole of any
    modulus runs every check: at 1e-307 the kernel's quotient overflows next
    to the pole, and the difference of logs gives the finite value."""

    @pytest.mark.parametrize("spec", ["log:1e-11,0", "log:1e-13,0", "log:1e-200,0"])
    def test_verify_all_passes_every_row(self, spec, capsys):
        assert main(["verify", "--suite", "all", "--weight", spec]) == 0
        report = _strict_json(capsys.readouterr().out)
        assert len(report["checks"]) == 20
        assert all(check["passed"] for check in report["checks"])

    @pytest.mark.parametrize("argv", [["weights", "info"], ["moments", "--route", "measure"]])
    def test_info_and_measure_moments_exit_0(self, argv, capsys):
        assert main([*argv, "--weight", "log:1e-13,0"]) == 0
        out, err = capsys.readouterr()
        assert _strict_json(out)["schema"] == 1 and err == ""

    @pytest.mark.parametrize("spec", ["log:2e-305,0", "log:1e-307,0"])
    def test_a_pole_at_the_bottom_of_the_float_range_passes_every_row(self, spec, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning either
            assert main(["weights", "info", "--weight", spec]) == 0
            out, err = capsys.readouterr()
            assert _strict_json(out)["schema"] == 1 and err == ""
            assert main(["verify", "--suite", "all", "--weight", spec]) == 0
        out, err = capsys.readouterr()
        report = _strict_json(out)
        assert err == "" and len(report["checks"]) == 20
        assert all(check["passed"] for check in report["checks"])


class TestFiniteOutput:
    """Every document on standard output is strict JSON; a weight out of float
    range is one error line."""

    @pytest.mark.parametrize("spec", _CATALOG)
    def test_catalog_output_is_strict_json(self, spec, capsys):
        for argv in (["verify", "--suite", "all"], ["moments"], ["moments", "--route", "measure"],
                     ["dbr", "build"], ["weights", "info"]):
            code = main([*argv, "--weight", spec])
            out, _ = capsys.readouterr()
            assert code == (1 if spec == "uniform" and argv[0] in ("verify", "dbr") else 0)
            if code == 0 or argv[0] == "verify":
                assert _strict_json(out)["schema"] == 1, argv

    @pytest.mark.parametrize("suite, spec", [
        ("moments", "scaled:1e300:uniform"),  # the measure table's residual overflows
        ("all", "scaled:1e300:uniform"),  # and the tensor sweep's, inf - inf, reads inf
        ("all", "scaled:1e300:log:0.4,0"),
    ])
    def test_a_check_value_out_of_float_range_fails_its_row(self, suite, spec):
        proc = subprocess.run(
            [sys.executable, "-m", "disklab", "verify", "--suite", suite, "--weight", spec],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr == ""  # no numpy warning either
        report = _strict_json(proc.stdout)
        for check in report["checks"]:
            if "is not finite" in check["detail"]:
                assert check["value"] is None and not check["passed"], check
        if spec.endswith("uniform"):
            rows = {c["name"]: c for c in report["checks"]}
            assert rows["weight-table-multiplicative"]["detail"].startswith(
                "value inf is not finite; measure table")
            if suite == "all":
                assert rows["weight-table-tensor"]["detail"].startswith("value inf is not finite")

    @pytest.mark.parametrize("argv, error", [
        # the mass is the factor times the inner weight's W[0][0], whose pass
        # met values that overflow once scaled
        (["weights", "info"],
         r"error: values of scaled:1e\+308:harm:1,0 are not finite on the grid"),
        (["moments", "--route", "measure"],
         r"error: values of scaled:1e\+308:harm:1,0 are not finite on the grid"),
        (["moments"], r"error: the moment checks of scaled:1e308:harm:1,0 overflow"),
    ])
    def test_values_out_of_float_range_are_one_error_line(self, argv, error, capsys):
        assert main([*argv, "--weight", _OVERFLOW]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.fullmatch(error + "\n", err)

    @pytest.mark.parametrize("spec", ["scaled:1e308:uniform", "scaled:1e307:log:0.4,0"])
    def test_a_circle_mean_out_of_float_range_is_one_error_line(self, spec, capsys):
        # superharmonicity's circle means sum values of about 1e308 on 256 nodes
        assert main(["weights", "info", "--weight", spec]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: integrand sum over the 256 circle nodes overflows the float range\n"

    @pytest.mark.parametrize("spec, named, product", [
        ("scaled:1e308:scaled:1e308:log:0.4,0", None, "inf"),
        ("scaled:1e-300:scaled:1e-300:log:0.4,0", None, "0"),
        # the factors compose innermost first, so the inner pair overflows first
        ("scaled:1e-300:scaled:1e300:scaled:1e300:uniform",
         "scaled:1e300:scaled:1e300:uniform", "inf"),
    ])
    @pytest.mark.parametrize("argv", [["weights", "info"], ["moments"], ["dbr", "build"]])
    def test_nested_factors_out_of_range_are_a_usage_error(self, argv, spec, named, product,
                                                           capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--weight", spec])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: scale factors multiply to {product}, not positive "
                            f"and finite, in {named or spec!r}\n")
        assert err.count("error:") == 1

    @pytest.mark.parametrize("spec, mass", [
        ("scaled:5e-324:log:0.5,0", "0"),  # the atom's mass underflows to 0
        ("scaled:1e-310:harm:1,0", "1e-310"),  # its reciprocal overflows
    ])
    @pytest.mark.parametrize("argv", [["weights", "info"], ["moments"], ["dbr", "build"],
                                      ["verify"]])
    def test_mass_without_a_finite_reciprocal_is_a_usage_error(self, argv, spec, mass,
                                                               capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--weight", spec])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: mass {mass} has no finite reciprocal, so the weight "
                            f"cannot be normalized, in {spec!r}\n")
        assert err.count("error:") == 1

    def test_nested_factors_whose_product_is_in_range_parse(self):
        weight = parse_args(["moments", "--weight", "scaled:1e-300:scaled:1e300:log:0.4,0"]).weight
        assert weight.atoms[0][1] == pytest.approx(0.42, rel=1e-12)

    def test_dbr_build_of_an_overflowing_weight_is_its_unit_mass_model(self, capsys):
        # the model reads the atoms, not the values, and normalizes them to unit mass
        assert main(["dbr", "build", "--weight", _OVERFLOW]) == 0
        scaled = _strict_json(capsys.readouterr().out)
        assert main(["dbr", "build", "--weight", "harm:1,0"]) == 0
        plain = _strict_json(capsys.readouterr().out)
        for key in ("h", "a", "b"):
            for part in ("re", "im"):
                assert np.allclose(scaled[key][part], plain[key][part], rtol=0, atol=1e-15)

    def test_verify_turns_overflowing_values_into_failed_rows(self, capsys):
        assert main(["verify", "--weight", _OVERFLOW, *_fast_flags()]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        rows = {c["name"]: c for c in _strict_json(out)["checks"]}
        assert not rows["weight-table-multiplicative"]["passed"]
        assert rows["weight-table-multiplicative"]["detail"] == (
            "SingularIntegrandError: values of scaled:1e+308:harm:1,0 are not finite on the grid")


# (suite, check name, digest, value, tolerance, passed) of `verify --suite all` at
# _fast_flags(), in report order, with the exit code, as produced before the
# checks became one table; values may move by a relative 1e-12 at most. The
# isometry rows read the closed-form symbol and energy of the one atom: on
# harm:1,0 the gap went from 0.0415 (a failure on this coarse boundary grid)
# to 7.3e-15, and on log:0.4,0 from 2.4e-12 to 1.4e-15. outer-consistency reads
# the model's own a and b by two exact identities: on harm:1,0 it went from the
# FFT fit's 1.46e-4 under 1e-2 to 2.6e-14 (the order-32 truncation) under 1e-6.
# l1-quadrature-consistency reads the mass as W[0][0] of the ring pass, not as
# the blocked sum: 3.2544312800197872e-09 -> 3.2544313910420897e-09 on harm:1,0
# and 4.477640480615719e-12 -> 4.477973547523106e-12 on log:0.4,0.
_VERIFY_ALL_PINS = {
    "harm:1,0": (1, [
        ("moments", "point-forward-exact", "03bb7cfe6540", 0.0, 0.0, True),
        ("moments", "point-reject-non-rank-one", "dbdf540fcdb4", 13154.291538778098, 0.0, True),
        ("moments", "weight-table-multiplicative", "df213e1c48be", 0.0, 1e-12, True),
        ("tensor", "point-tensor-vanishing", "bfab65edb15f", 0.0, 0.0, True),
        ("tensor", "weight-table-tensor", "b19fce18aa11", 0.0, 1e-10, True),
        ("dirichlet", "energy-of-identity-vs-mass", "9bfce8155463", 1.1102230246251565e-16, 1e-09, True),
        ("dirichlet", "energy-quadratic-scaling", "c319ba90b4e0", 0.0, 1e-12, True),
        ("dirichlet", "energy-constant-zero", "23945cc48e31", 0.0, 1e-12, True),
        ("dirichlet", "superharmonic-lattice", "73a938b1182e", 1.1102230246251565e-16, 1e-08, True),
        ("dirichlet", "dilation-monotone", "2de4167e7c90", 0.0, 1e-08, True),
        ("dbr", "model-build", "b58d67dc1c77", 0.0, None, True),
        ("dbr", "h0-normalization", "92de75aa3bc4", 0.0, 1e-06, True),
        ("dbr", "l1-quadrature-consistency", "ed68b6c80675", 3.2544313910420897e-09, 0.0001, True),
        ("dbr", "h-identity", "3be6d69ed383", 0.005648811164149947, 0.0001, False),
        ("dbr", "laplacian-identity", "94973ced2a1d", 1.8151844815849986e-07, 1e-05, True),
        ("dbr", "phi-consistency", "f277c2ca4054", 0.00043377656795939856, 0.0001, False),
        ("dbr", "b-contraction", "c9377a5d33f2", 0.0, 1e-06, True),
        ("dbr", "outer-consistency", "11320d087927", 2.6049739444959133e-14, 1e-06, True),
        ("isometry", "isometry-gap", "d2c06add9746", 7.326808913700246e-15, 0.01, True),
        ("isometry", "isometry-falsification-b-zero", "7fe81d60962b", 0.38552597704014724, 0.1, True),
    ]),
    "log:0.4,0": (0, [
        ("moments", "point-forward-exact", "6d2cc1ce346e", 0.0, 0.0, True),
        ("moments", "point-reject-non-rank-one", "9f3b762e6b04", 13154.291538778098, 0.0, True),
        ("moments", "weight-table-multiplicative", "75fdb91fb084", 0.0, 1e-12, True),
        ("tensor", "point-tensor-vanishing", "066238e0b572", 0.0, 0.0, True),
        ("tensor", "weight-table-tensor", "b22bf8d957ed", 6.938893903907228e-18, 1e-10, True),
        ("dirichlet", "energy-of-identity-vs-mass", "0de9c93969e9", 5.551115123125783e-17, 1e-09, True),
        ("dirichlet", "energy-quadratic-scaling", "57751a2aa393", 0.0, 1e-12, True),
        ("dirichlet", "energy-constant-zero", "af5adf755fde", 0.0, 1e-12, True),
        ("dirichlet", "superharmonic-lattice", "dc68f0b3e81e", 2.220446049250313e-16, 1e-08, True),
        ("dirichlet", "dilation-monotone", "8beeaebb41a5", 0.0, None, True),
        ("dbr", "model-build", "15dad18eef25", 0.0, None, True),
        ("dbr", "h0-normalization", "ef6a79ff1c0f", 0.0, 1e-06, True),
        ("dbr", "l1-quadrature-consistency", "1af894e3883c", 4.477973547523106e-12, 0.0001, True),
        ("dbr", "h-identity", "b8a9a74a3c71", 8.708145315949878e-12, 0.0001, True),
        ("dbr", "laplacian-identity", "f5267eb14b2e", 1.8151844815849986e-07, 1e-05, True),
        ("dbr", "phi-consistency", "caaecdfcd4bb", 4.107270079600767e-12, 0.0001, True),
        ("dbr", "b-contraction", "683536e8aeb2", 0.0, 1e-06, True),
        ("dbr", "outer-consistency", "b59bdca971d8", 2.220446049250313e-16, 1e-06, True),
        ("isometry", "isometry-gap", "3e39647b6b2d", 1.4211143337132335e-15, 0.01, True),
        ("isometry", "isometry-falsification-b-zero", "ff91a4186e0c", 0.2012988620842954, 0.1, True),
    ]),
    "uniform": (1, [
        ("moments", "point-forward-exact", "544bf3638fee", 0.0, 0.0, True),
        ("moments", "point-reject-non-rank-one", "d2515eb52218", 13154.291538778098, 0.0, True),
        ("moments", "weight-table-multiplicative", "aa41ee8c499b", 0.5000000000000002, 0.05, True),
        ("tensor", "point-tensor-vanishing", "67ec66693da8", 0.0, 0.0, True),
        ("tensor", "weight-table-tensor", "aa90fe4bac93", 1.0000000000000002, 1e-10, False),
        ("dirichlet", "energy-of-identity-vs-mass", "f253cc7b585f", 1.1102230246251565e-16, 1e-09, True),
        ("dirichlet", "energy-quadratic-scaling", "eddf61a5ed62", 0.0, 1e-12, True),
        ("dirichlet", "energy-constant-zero", "75683c2991e3", 0.0, 1e-12, True),
        ("dirichlet", "superharmonic-lattice", "61a0eff22c82", 0.0, 1e-08, True),
        ("dirichlet", "dilation-monotone", "ab0d33d307e5", 0.0, 1e-08, True),
        ("dbr", "model-build", "ab3edcc67f98", None, None, False),
        ("dbr", "h0-normalization", "9f512a49e546", None, 1e-06, False),
        ("dbr", "l1-quadrature-consistency", "2eead61a523f", None, 0.0001, False),
        ("dbr", "h-identity", "f948be3b13aa", None, 0.0001, False),
        ("dbr", "laplacian-identity", "065f64a48c7e", 1.8151844815849986e-07, 1e-05, True),
        ("dbr", "phi-consistency", "4fa67c075ff0", None, 0.0001, False),
        ("dbr", "b-contraction", "3128c1515cc3", None, 1e-06, False),
        ("dbr", "outer-consistency", "bcb5c3b170c3", None, 1e-06, False),
        ("isometry", "isometry-gap", "4867ad8c0ca9", None, 0.01, False),
        ("isometry", "isometry-falsification-b-zero", "6e9ff9bcc966", None, 0.1, False),
    ]),
}


# (check name, digest, value, tolerance, passed) of `verify --suite moments` and
# `--suite tensor` at default flags, with the exit code: order 8, where the
# exact tables need Python ints (a table denominator of 144 * 10**16).
# The point-table values are exact; weight-table values may move by a
# relative 1e-12 at most.
_DEFAULT_ORDER_PINS = {
    ("harm:1,0", "moments"): (0, [
        ("point-forward-exact", "701a846916d8", 0.0, 0.0, True),
        ("point-reject-non-rank-one", "17900a668d9f", 8734035433.715912, 0.0, True),
        ("weight-table-multiplicative", "9fc2de5fb5d3", 0.0, 1e-12, True),
    ]),
    ("harm:1,0", "tensor"): (0, [
        ("point-tensor-vanishing", "8a373e77450b", 0.0, 0.0, True),
        ("weight-table-tensor", "6ba9923e667e", 0.0, 1e-10, True),
    ]),
    ("uniform", "moments"): (0, [
        ("point-forward-exact", "2e5de1244c65", 0.0, 0.0, True),
        ("point-reject-non-rank-one", "dafe4e40927e", 8734035433.715912, 0.0, True),
        ("weight-table-multiplicative", "f7c62aaf17e4", 0.4999999999999998, 0.05, True),
    ]),
    ("uniform", "tensor"): (1, [
        ("point-tensor-vanishing", "2c800d29af89", 0.0, 0.0, True),
        ("weight-table-tensor", "01a14315750c", 0.9999999999999988, 1e-10, False),
    ]),
}


class TestCheckTable:
    @pytest.mark.parametrize("spec, suite", sorted(_DEFAULT_ORDER_PINS))
    def test_default_order_point_checks_match_their_pins(self, spec, suite):
        report, code = run(parse_args(["verify", "--suite", suite, "--weight", spec]))
        pinned_code, pins = _DEFAULT_ORDER_PINS[spec, suite]
        assert code == pinned_code
        assert [(c.name, c.digest, c.tolerance, c.passed) for c in report.checks] == [
            (name, digest, tol, ok) for name, digest, _, tol, ok in pins]
        for c, (name, _, value, _, _) in zip(report.checks, pins):
            if name.startswith("point-"):
                assert c.value == value, name
            else:
                assert c.value == pytest.approx(value, rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("spec", sorted(_VERIFY_ALL_PINS))
    def test_verify_all_matches_its_pins(self, spec):
        from disklab.cli import _CHECKS

        report, code = run(parse_args(["verify", "--suite", "all", "--weight", spec,
                                       *_fast_flags()]))
        pinned_code, pins = _VERIFY_ALL_PINS[spec]
        assert code == pinned_code
        suite_of = {row.name: row.suite for row in _CHECKS}
        got = [(suite_of[c.name], c.name, c.digest, c.tolerance, c.passed)
               for c in report.checks]
        assert got == [(suite, name, digest, tol, ok)
                       for suite, name, digest, _, tol, ok in pins]
        for c, pin in zip(report.checks, pins):
            if pin[3] is None:
                assert c.value is None, c.name
            else:
                assert c.value == pytest.approx(pin[3], rel=1e-12, abs=0.0), c.name

    @pytest.mark.parametrize("name, sense", [
        ("energy-constant-zero", "ceiling"),
        ("point-reject-non-rank-one", "floor"),
    ])
    def test_a_nan_value_fails_a_ceiling_and_a_floor(self, name, sense):
        from disklab import cli

        row = next(r for r in cli._CHECKS if r.name == name)
        assert row.sense == sense
        ctx = cli._SuiteContext(parse_args(["verify", "--weight", "harm:1,0",
                                            *_fast_flags()]))
        for bad in ("nan", "inf", "-inf"):
            record = ctx.check(row._replace(fn=lambda ctx: (float(bad), "planted")))
            # a value JSON cannot hold is reported as none, and named in the detail
            assert record.value is None and not record.passed
            assert record.detail == f"value {bad} is not finite; planted"


# Rows whose value is a closed form of the atom, or does not read the weight:
# a turned pole must give them within 1e-12. The other rows read the grid,
# which does not turn with the pole, so only their verdicts are compared.
_CLOSED_FORM_ROWS = {
    "point-forward-exact", "point-reject-non-rank-one", "weight-table-multiplicative",
    "point-tensor-vanishing", "weight-table-tensor", "energy-quadratic-scaling",
    "energy-constant-zero", "model-build", "h0-normalization", "laplacian-identity",
    "b-contraction", "isometry-gap", "isometry-falsification-b-zero",
}
_POLE_MODULUS = {"harm": 1.0, "log": 0.4}


@functools.lru_cache(maxsize=None)
def _all_suites(spec: str) -> tuple:
    """(name, passed, value) of every row of every suite, run in process at default flags."""
    from disklab import cli

    ctx = cli._SuiteContext(parse_args(["verify", "--weight", spec]))
    return tuple((r.name, r.passed, r.value)
                 for suite in cli.SUITES for r in cli._SUITE_RUNNERS[suite](ctx))


@pytest.mark.parametrize("family", sorted(_POLE_MODULUS))
@settings(max_examples=5, deadline=None, derandomize=True, database=None)
@given(theta=st.floats(0.0, 2.0 * math.pi, exclude_max=True))
def test_turning_the_pole_keeps_names_verdicts_and_closed_form_values(family, theta):
    r = _POLE_MODULUS[family]
    turned = _all_suites(f"{family}:{r * math.cos(theta)!r},{r * math.sin(theta)!r}")
    reference = _all_suites(f"{family}:{r!r},0")
    assert [(n, ok) for n, ok, _ in turned] == [(n, ok) for n, ok, _ in reference]
    assert all(ok for _, ok, _ in turned)
    for (name, _, value), (_, _, ref) in zip(turned, reference):
        if name in _CLOSED_FORM_ROWS:
            assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), name
