"""Scenario loading, command-line interface, exit codes, and determinism."""

import copy
import csv
import math
import os
import tempfile

import numpy as np
import pytest
import yaml
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import regulab.cli
import regulab.dual
import regulab.sets
import regulab.slope
from regulab import (
    EmptySetError,
    InputError,
    NumericError,
    Polyhedron,
    PolyUnion,
    dist_to_region,
    project_polyhedron,
)
from regulab.cli import (
    EXAMPLE_DIFFERENCE,
    EXAMPLE_QUADRATIC,
    load_scenario,
    main,
    run_scenario,
)
from regulab.mappings import ScanGrids
from regulab.spaces import GridSpec, NormedSpace, make_grid

FAST_SCENARIO = """\
spaces: {x_dim: 1, y_dim: 1, p_dim: 1}
mapping: {kind: rule, rule: difference}
query:
  xbar: [0.0]
  ybar: [0.0]
  pbar: [0.0]
  alpha: 1.0
  delta: 0.5
  mu: 0.5
  eta: 1.0
grids:
  x: {lower: [-1.0], upper: [1.0], resolution: 41}
  y: {lower: [-1.0], upper: [1.0], resolution: 41}
  p: {lower: [-0.5], upper: [0.5], resolution: 5}
checks: [oracle, geometric, normal-cone]
expect: {oracle: HOLDS, geometric: HOLDS, normal-cone: HOLDS}
"""

POLY_SCENARIO = """\
spaces: {x_dim: 1, y_dim: 1, p_dim: 1}
mapping:
  kind: polyhedral
  convex: true
  pieces:
    - A: [[1.5, -1.0]]
      b: [0.0]
      b_p: [[-0.3]]
query:
  xbar: [0.0]
  ybar: [0.0]
  pbar: [0.0]
  alpha: 1.0
  delta: 0.5
  mu: 0.5
  eta: 1.0
grids:
  x: {lower: [-1.0], upper: [1.0], resolution: 41}
  y: {lower: [-1.0], upper: [1.0], resolution: 41}
  p: {lower: [-0.3], upper: [0.3], resolution: 5}
checks: [oracle, normal-cone]
expect: {oracle: HOLDS, normal-cone: HOLDS}
"""


def write(tmp_path, text, name="sc.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_load_scenario_valid(tmp_path):
    sc = load_scenario(write(tmp_path, FAST_SCENARIO))
    assert sc.checks == ["oracle", "geometric", "normal-cone"]
    assert sc.expect["oracle"] == "HOLDS"


@pytest.mark.parametrize("mangle,needle", [
    (lambda t: t.replace("checks: [oracle, geometric, normal-cone]",
                         "checks: [no-such-check]")
     .replace("expect: {oracle: HOLDS, geometric: HOLDS, normal-cone: HOLDS}",
              ""), "unknown check"),
    (lambda t: t.replace("spaces: {x_dim: 1, y_dim: 1, p_dim: 1}",
                         "spaces: {x_dim: 1, y_dim: 1}"), "p_dim"),
    (lambda t: t.replace("  alpha: 1.0\n", ""), "alpha"),
    (lambda t: t.replace("grids:", "grids_zzz:").replace(
        "  x: {lower: [-1.0], upper: [1.0], resolution: 41}", " "), "grids"),
    (lambda t: t.replace("rule: difference", "rule: no_such_rule"),
     "unknown mapping rule"),
])
def test_load_scenario_rejects(tmp_path, mangle, needle):
    path = write(tmp_path, mangle(FAST_SCENARIO))
    with pytest.raises(InputError) as err:
        load_scenario(path)
    assert needle in str(err.value)


def test_polyhedral_piece_validation(tmp_path):
    bad = POLY_SCENARIO.replace("b: [0.0]", "b: [0.0, 1.0]")
    with pytest.raises(InputError):
        load_scenario(write(tmp_path, bad))
    bad = POLY_SCENARIO.replace("A: [[1.5, -1.0]]", "A: [[1.5, -1.0, 2.0]]")
    with pytest.raises(InputError):
        load_scenario(write(tmp_path, bad))
    bad = POLY_SCENARIO.replace("convex: true", "convex: maybe")
    with pytest.raises(InputError, match="mapping.convex must be true or"):
        load_scenario(write(tmp_path, bad))


def test_run_scenario_outputs(tmp_path):
    sc = load_scenario(write(tmp_path, FAST_SCENARIO))
    out = tmp_path / "out"
    code, report = run_scenario(sc, out_dir=str(out))
    assert code == 0
    assert "oracle" in report and "HOLDS" in report
    csv_text = (out / "sc.csv").read_text()
    header = csv_text.splitlines()[0]
    assert header == ("check,verdict,margin,witness_p,witness_x,witness_y,"
                      "value,alpha,delta,mu,eta,gamma,tau,grid_res,seconds")
    assert (out / "sc.txt").read_text() == report


def test_run_scenario_deterministic_csv(tmp_path):
    sc = load_scenario(write(tmp_path, FAST_SCENARIO))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    run_scenario(sc, out_dir=str(out1))
    run_scenario(sc, out_dir=str(out2))
    assert (out1 / "sc.csv").read_bytes() == (out2 / "sc.csv").read_bytes()


def test_run_polyhedral_scenario(tmp_path):
    sc = load_scenario(write(tmp_path, POLY_SCENARIO))
    code, report = run_scenario(sc)
    assert code == 0


def test_no_linprog_at_run_time(tmp_path, monkeypatch):
    # sets.py imports linprog only so that the benchmark can warm and trace
    # it by that name; the program decides emptiness without it
    def no_linprog(*args, **kwargs):
        raise AssertionError("linprog called at run time")

    monkeypatch.setattr(regulab.sets, "linprog", no_linprog)
    empty = Polyhedron([[1.0], [-1.0]], [-1.0, -1.0])
    box = Polyhedron([[1.0], [-1.0]], [1.0, 1.0])
    assert empty.is_empty() and not box.is_empty()
    with pytest.raises(EmptySetError):
        project_polyhedron([0.0], empty)
    assert project_polyhedron([3.0], box) == pytest.approx([1.0])
    assert dist_to_region([3.0], PolyUnion([empty, box]))[0] == \
        pytest.approx(2.0)
    code, _ = run_scenario(load_scenario(write(tmp_path, POLY_SCENARIO)))
    assert code == 0


def test_no_slsqp_for_affine_rules(tmp_path, monkeypatch):
    # an affine-family rule's graph normal cone is a subspace, on which every
    # dual distance has a closed form: a 2-D scenario with every slope and
    # dual check reaches the same verdicts with SLSQP gone
    def no_minimize(*args, **kwargs):
        raise AssertionError("SLSQP called at run time")

    monkeypatch.setattr(regulab.sets, "minimize", no_minimize)
    checks = ["oracle", "slope-nonlocal", "slope-local", "subdifferential",
              "normal-cone", "coderivative-ball", "coderivative-normalized"]
    expect = dict.fromkeys(checks[:5], "HOLDS") | dict.fromkeys(checks[5:],
                                                                "VIOLATED")
    text = replaced(FAST_SCENARIO, (
        *AFFINE_2D, ("A", "[[1, 2], [0, 4]]"), ("alpha: 1.0", "alpha: 0.8"),
        ("eta: 1.0", "eta: 0.5"), ("resolution: 41}", "resolution: 7}"),
        ("resolution: 5}", "resolution: 3}"),
        ("checks: [oracle, geometric, normal-cone]",
         f"checks: [{', '.join(checks)}]"),
        ("expect: {oracle: HOLDS, geometric: HOLDS, normal-cone: HOLDS}",
         "expect: {" + ", ".join(f"{k}: {v}" for k, v in expect.items())
         + "}")))
    code, report = run_scenario(load_scenario(write(tmp_path, text)))
    assert code == 0, report


POLY_2D_SCENARIO = """\
spaces: {x_dim: 2, y_dim: 1, p_dim: 1}
mapping:
  kind: polyhedral
  convex: true
  pieces:
    - A: [[1, 0.5, -1], [-1, 1, -1], [0, 0, 1]]
      b: [0, 0, 2]
      b_p: [[-0.3], [0], [0]]
query: {xbar: [0.0, 0.0], ybar: [0.0], pbar: [0.0], alpha: 0.3, delta: 0.5,
        mu: 0.5, eta: 0.5}
grids:
  x: {lower: [-1.0, -1.0], upper: [1.0, 1.0], resolution: 9}
  y: {lower: [-1.0], upper: [1.0], resolution: 9}
  p: {lower: [-0.3], upper: [0.3], resolution: 3}
checks: [oracle, geometric, slope-nonlocal, slope-local, subdifferential,
         normal-cone, coderivative-ball, coderivative-normalized]
expect: {oracle: HOLDS, geometric: HOLDS, slope-nonlocal: HOLDS,
         slope-local: HOLDS, subdifferential: HOLDS, normal-cone: HOLDS,
         coderivative-ball: HOLDS, coderivative-normalized: VIOLATED}
"""


def test_no_slsqp_for_2d_polyhedral_maps(tmp_path, monkeypatch):
    # the graph normal cones of a 2-D polyhedral map have generators; every
    # dual distance on them is exact face by face.  Multi-start SLSQP found
    # no feasible point of a min-norm problem here, and the subdifferential
    # row was INCONCLUSIVE
    def no_minimize(*args, **kwargs):
        raise AssertionError("SLSQP called at run time")

    monkeypatch.setattr(regulab.sets, "minimize", no_minimize)
    out = tmp_path / "out"
    code, report = run_scenario(load_scenario(write(tmp_path,
                                                    POLY_2D_SCENARIO)),
                                out_dir=str(out))
    assert code == 0, report
    with open(out / "sc.csv") as fh:
        margins = {row["check"]: float(row["margin"])
                   for row in csv.DictReader(fh)}
    # the merit subdifferential at y != ybar is (0, y*) + N: its distance is
    # the normal-cone condition's
    assert margins["subdifferential"] == margins["normal-cone"]
    for check, margin in (("normal-cone", 0.427606875109),
                          ("coderivative-ball", 0.0638034375545),
                          ("coderivative-normalized", -0.236196562445)):
        assert abs(margins[check] - margin) <= 1e-9, (check, margins)


def test_2d_polyhedral_run_solves_each_dual_problem_once(tmp_path,
                                                         monkeypatch):
    # the subdifferential and normal-cone checks and the slope checks'
    # directions pose the same support problems on the same cones: the map
    # keeps the answers, so none reaches a solver twice (12 of the 24
    # problems solved repeated an earlier one when each check solved its own)
    posed = []
    for module, name in ((regulab.dual, "gamma_dual_distance"),
                         (regulab.slope, "gamma_dual_distance"),
                         (regulab.dual, "cone_min_norm")):
        solve = getattr(module, name)

        def spy(*args, solve=solve, name=name, **kwargs):
            if name == "gamma_dual_distance":
                (V, cone, g), weight = args[:3], ("support", args[2].gamma)
            else:
                (cone, _, V), weight = args[:3], ("min norm", args[3])
            posed.extend((weight, id(cone), v.tobytes())
                         for v in np.atleast_2d(V))
            return solve(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    code, report = run_scenario(load_scenario(write(tmp_path,
                                                    POLY_2D_SCENARIO)))
    assert code == 0, report
    assert posed and len(set(posed)) == len(posed)


UNION_4D_SCENARIO = """\
spaces: {x_dim: 2, y_dim: 2, p_dim: 1}
mapping:
  kind: polyhedral
  pieces:
    - A: [[-1, 0, 1, 0], [1, 0, -1, 0], [0, -1, 0, 1], [0, 1, 0, -1],
          [-1, 0, 0, 0]]
      b: [0, 0, 0, 0, 0]
    - A: [[1, 0, 1, 0], [-1, 0, -1, 0], [0, -1, 0, 1], [0, 1, 0, -1],
          [1, 0, 0, 0]]
      b: [0, 0, 0, 0, 0]
query: {xbar: [0.0, 0.0], ybar: [0.0, 0.0], pbar: [0.0], alpha: 0.5,
        delta: 0.5, mu: 0.5, eta: 0.5}
grids:
  x: {lower: [-1.0, -1.0], upper: [1.0, 1.0], resolution: 7}
  y: {lower: [-1.0, -1.0], upper: [1.0, 1.0], resolution: 7}
  p: {lower: [-0.1], upper: [0.1], resolution: 3}
checks: [oracle, {name: normal-cone, variant: frechet-cap},
         {name: coderivative-ball, variant: frechet-cap}]
expect: {oracle: HOLDS, normal-cone: HOLDS, coderivative-ball: VIOLATED}
"""


def test_nonconvex_union_in_four_dimensions_runs(tmp_path):
    # y1 = |x1|, y2 = x2 as a two-piece union in X x Y = R^4: the normal
    # cone at the kink intersects the pieces' cones in R^4, which the ray
    # enumeration once refused above dimension 3, so run exited 2 on a
    # scenario that validate accepted
    path = write(tmp_path, UNION_4D_SCENARIO)
    assert CliRunner().invoke(main, ["validate", path]).exit_code == 0
    out = tmp_path / "out"
    code, report = run_scenario(load_scenario(path), out_dir=str(out))
    assert code == 0, report
    with open(out / "sc.csv") as fh:
        margins = {row["check"]: float(row["margin"])
                   for row in csv.DictReader(fh)}
    for check, margin in (("oracle", 0.0), ("normal-cone", 0.495184726672),
                          ("coderivative-ball", -0.0048152733278)):
        assert abs(margins[check] - margin) <= 1e-9, (check, margins)


def test_union_in_four_dimensions_holds_on_the_primal_scans(tmp_path):
    # the graph sample of 2401 grid points per piece and the slope steps
    # are projected onto pieces with two equalities each (+-row pairs)
    text = replaced(UNION_4D_SCENARIO, (
        ("checks: [oracle, {name: normal-cone, variant: frechet-cap},\n"
         "         {name: coderivative-ball, variant: frechet-cap}]",
         "checks: [oracle, geometric, slope-nonlocal]"),
        ("expect: {oracle: HOLDS, normal-cone: HOLDS, "
         "coderivative-ball: VIOLATED}",
         "expect: {oracle: HOLDS, geometric: HOLDS, "
         "slope-nonlocal: HOLDS}")))
    out = tmp_path / "out"
    code, report = run_scenario(load_scenario(write(tmp_path, text)),
                                out_dir=str(out))
    assert code == 0, report
    with open(out / "sc.csv") as fh:
        rows = {row["check"]: row for row in csv.DictReader(fh)}
    for check, margin in (("oracle", 0.0), ("geometric", 0.0),
                          ("slope-nonlocal", 0.50000000062)):
        assert rows[check]["verdict"] == "HOLDS"
        assert abs(float(rows[check]["margin"]) - margin) <= 1e-8, rows


def test_polyhedral_normal_cones_build_each_face_once(tmp_path,
                                                     monkeypatch):
    # one cone per distinct generator set, shared across parameters and scan
    # points, so the face bases it caches are built once: each face (two
    # _block_basis calls) once per distinct generator set
    faces, builds = set(), []
    face, block_basis = regulab.sets.ConeRep.face, regulab.sets._block_basis

    def recorded_face(cone, S, nx):
        out = face(cone, S, nx)
        if out is not None:
            faces.add((cone.generators.tobytes(), cone.lineality.tobytes(),
                       S, nx))
        return out

    def counted_block_basis(R, nx):
        builds.append(1)
        return block_basis(R, nx)

    monkeypatch.setattr(regulab.sets.ConeRep, "face", recorded_face)
    monkeypatch.setattr(regulab.sets, "_block_basis", counted_block_basis)
    code, report = run_scenario(load_scenario(write(tmp_path,
                                                    POLY_2D_SCENARIO)))
    assert code == 0, report
    assert faces and len(builds) == 2 * len(faces)


def test_cli_stability_options_are_checked_before_any_check_runs(
        tmp_path, monkeypatch):
    # validate accepted these, and run refused them only after the six
    # checks before recede had run
    ran = []
    monkeypatch.setattr(regulab.cli, "check_subreg_uniform",
                        lambda *args: ran.append("oracle"))

    def pipeline(condition, l_prime):
        return replaced(EXAMPLE_DIFFERENCE, (
            ("  - aubin\n", f"  - {{name: aubin-pipeline, "
                            f"condition: {condition}}}\n"),
            ("  aubin: HOLDS", "  aubin-pipeline: HOLDS"),
            ("  l: 1.0", f"  l: 1.0\n  l_prime: {l_prime}")))

    labelled = replaced(POLY_SCENARIO, (
        ("p_dim: 1}", "p_labels: [a, b]}"), ("      b_p: [[-0.3]]\n", ""),
        ("normal-cone]", "recede]"), ("normal-cone: HOLDS", "recede: HOLDS"),
        ("  eta: 1.0", "  eta: 1.0\n  l: 1.0")))
    for text, message in (
            (replaced(EXAMPLE_DIFFERENCE, (("l: 1.0", "l: -1.0"),)),
             "rate l must be positive, got -1.0"),
            (pipeline("slope", -0.5), "rate l_prime must be positive, got -0.5"),
            (pipeline("nope", 0.5), "unknown condition 'nope'"),
            (replaced(EXAMPLE_DIFFERENCE, ((
                "  p: {lower: [-0.5], upper: [0.5], resolution: 11}\n", ""),)),
             "scan requires a parameter grid"),
            (labelled, "recede/Aubin scans need a metric parameter space")):
        path = write(tmp_path, text)
        for cmd in ("validate", "run"):
            res = CliRunner().invoke(main, [cmd, path])
            assert res.exit_code == 2, (cmd, message, res.output)
            assert f"input error: {message}" in res.output
    assert ran == []


def test_rows_follow_the_check_table_with_duplicates_kept(tmp_path):
    # the report and the CSV list rows in the table's order, whatever the
    # order of the checks list, and a check listed twice runs twice
    text = POLY_SCENARIO.replace("checks: [oracle, normal-cone]",
                                 "checks: [normal-cone, oracle, oracle]")
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", write(tmp_path, text),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    rows = [line.split(",")[0] for line in
            (out / "sc.csv").read_text().splitlines()[1:]]
    assert rows == ["oracle", "oracle", "normal-cone"]
    report = [line.split()[0] for line in res.output.splitlines()[1:]]
    assert report == rows


def test_cli_exit_code_four_on_other_errors(tmp_path, monkeypatch):
    def empty(*args, **kwargs):
        raise EmptySetError("cannot project onto an empty polyhedron")

    monkeypatch.setattr(regulab.cli, "run_scenario", empty)
    res = CliRunner().invoke(main, ["run", write(tmp_path, FAST_SCENARIO)])
    assert res.exit_code == 4, res.output
    assert isinstance(res.exception, SystemExit)
    assert "error: cannot project onto an empty polyhedron" in res.output


def test_cli_exit_code_zero_and_report(tmp_path):
    runner = CliRunner()
    path = write(tmp_path, FAST_SCENARIO)
    res = runner.invoke(main, ["run", path])
    assert res.exit_code == 0, res.output
    assert "[as expected]" in res.output


def test_cli_exit_code_one_on_mismatch(tmp_path):
    text = FAST_SCENARIO.replace("oracle: HOLDS", "oracle: VIOLATED")
    res = CliRunner().invoke(main, ["run", write(tmp_path, text)])
    assert res.exit_code == 1
    assert "[expected VIOLATED]" in res.output


# FAST_SCENARIO's reference point and grid of one axis made two-dimensional
X_2D = (("xbar: [0.0]", "xbar: [0.0, 0.0]"),
        ("x: {lower: [-1.0], upper: [1.0]", "x: {lower: [-1.0, -1.0], "
         "upper: [1.0, 1.0]"))
Y_2D = (("ybar: [0.0]", "ybar: [0.0, 0.0]"),
        ("y: {lower: [-1.0], upper: [1.0]", "y: {lower: [-1.0, -1.0], "
         "upper: [1.0, 1.0]"))
P_2D = (("pbar: [0.0]", "pbar: [0.0, 0.0]"),
        ("p: {lower: [-0.5], upper: [0.5]", "p: {lower: [-0.5, -0.5], "
         "upper: [0.5, 0.5]"))
AFFINE_2D = (("x_dim: 1, y_dim: 1", "x_dim: 2, y_dim: 2"),
             ("rule: difference}", "rule: affine, coeffs: {a: A}}"),
             *X_2D, *Y_2D)


def replaced(text, pairs):
    for old, new in pairs:
        assert old in text
        text = text.replace(old, new)
    return text


def test_cli_exit_code_two_on_input_error(tmp_path):
    for old, new in (("alpha: 1.0", "alpha: -1.0"),
                     ("alpha: 1.0", "alpha: abc"),
                     ("alpha: 1.0", "alpha: .inf"),
                     ("eta: 1.0", "eta: 1.0\n  gamma: .inf"),
                     ("eta: 1.0", "eta: 1.0\n  tau: .nan"),
                     ("xbar: [0.0]", "xbar: [0.0, 0.0]"),
                     ("ybar: [0.0]", "ybar: [0.0, 1.0]"),
                     ("pbar: [0.0]", "pbar: []"),
                     ("resolution: 41}", "resolution: abc}"),
                     ("resolution: 5}", "resolution: 1}"),
                     ("p: {lower: [-0.5]", "p: {lower: [abc]"),
                     ("x: {lower: [-1.0]", "x: {lower: [-1.0, -1.0]"),
                     ("rule: difference}", "rule: scale, coeffs: {kk: 2}}"),
                     ("rule: difference}", "rule: scale, coeffs: {k: abc}}"),
                     ("delta: 0.5", "delta: -1"),
                     ("eta: 1.0", "eta: 1.0\n  tau: 1.5"),
                     # a dimension that int() once truncated to 1
                     ("x_dim: 1,", "x_dim: 1.5,"),
                     ("x_dim: 1,", "x_dim: true,"),
                     # an expected verdict no check can give
                     ("oracle: HOLDS,", "oracle: HOLD,"),
                     # run wrote to the CSV path 5 and ended in a traceback
                     ("expect:", "output: {csv: 5}\nexpect:")):
        text = FAST_SCENARIO.replace(old, new)
        assert text != FAST_SCENARIO
        path = write(tmp_path, text)
        for cmd in ("run", "validate"):
            res = CliRunner().invoke(main, [cmd, path])
            assert res.exit_code == 2, (cmd, new, res.output)
            assert "input error" in res.output
    # affine-family rules F(p, x) = {a x + b p + c} whose a is singular or
    # not square, or whose b or c does not fit the declared spaces
    for pairs in ((("rule: difference}", "rule: scale, coeffs: {k: 0}}"),),
                  (*AFFINE_2D, ("A", "[[1, 2], [2, 4]]")),
                  (("x_dim: 1", "x_dim: 2"),
                   ("rule: difference}", "rule: affine}"), *X_2D),
                  (("y_dim: 1", "y_dim: 2"), *Y_2D),
                  (("p_dim: 1", "p_dim: 2"), *P_2D)):
        path = write(tmp_path, replaced(FAST_SCENARIO, pairs))
        for cmd in ("run", "validate"):
            res = CliRunner().invoke(main, [cmd, path])
            assert res.exit_code == 2, (cmd, pairs, res.output)
            assert "input error: rule a x + b p + c needs" in res.output
    path = write(tmp_path, FAST_SCENARIO.replace(
        "rule: difference}", "rule: scale, coeffs: {k: [1]}}"))
    for cmd in ("run", "validate"):
        res = CliRunner().invoke(main, [cmd, path])
        assert res.exit_code == 2, (cmd, res.output)
        assert "input error: rule scale needs a number k" in res.output
    # the same 2-D scenario with a nonsingular a is valid
    path = write(tmp_path, replaced(FAST_SCENARIO,
                                    (*AFFINE_2D, ("A", "[[1, 2], [0, 4]]"))))
    assert CliRunner().invoke(main, ["validate", path]).exit_code == 0


def test_cli_check_options_are_checked_before_any_check_runs(tmp_path,
                                                             monkeypatch):
    # validate accepted these, and run refused them only after the checks
    # before them had run
    ran = []
    monkeypatch.setattr(regulab.cli, "check_subreg_uniform",
                        lambda *args: ran.append("oracle"))
    for pairs, message in (
            ((("checks: [oracle, normal-cone]",
               "checks: [oracle, coderivative-normalized]"),
              ("expect: {oracle: HOLDS, normal-cone: HOLDS}", "")),
             "normalized form needs eta in ]0,1["),
            ((("convex: true", "convex: false"),),
             "convex-normal variant requires a convex graph"),
            ((("normal-cone]", "{name: normal-cone, variant: cap}]"),),
             "unknown variant 'cap'"),
            ((("normal-cone]", "{name: slope-local, mode: necessary}]"),
              ("convex: true", "convex: false"),
              ("normal-cone: HOLDS", "slope-local: HOLDS")),
             "the local-slope bound is necessary only for convex graphs"),
            ((("normal-cone]", "{name: subdifferential, mode: both}]"),
              ("normal-cone: HOLDS", "subdifferential: HOLDS")),
             "unknown mode 'both'"),
            # an option the check does not read: the normal-cone check ran
            # at its default variant, the oracle ignored the mode
            ((("normal-cone]", "{name: normal-cone, varaint: frechet-cap}]"),),
             "check 'normal-cone' has no option 'varaint'; it reads "
             "['mode', 'variant']"),
            ((("[oracle,", "[{name: oracle, mode: necessary},"),),
             "check 'oracle' has no option 'mode'; it reads []"),
            # evp's lam: run ended in a traceback or an INCONCLUSIVE row
            *(((("normal-cone]", f"{{name: evp, lam: {lam}}}]"),
                ("normal-cone: HOLDS", "evp: HOLDS")), message)
              for lam, message in (
                  ("abc", "evp option lam must be a number, got 'abc'"),
                  ("[1, 2]", "evp option lam must be a number, got [1, 2]"),
                  ("0", "evp option lam must be positive, got 0"),
                  ("-1", "evp option lam must be positive, got -1"),
                  (".nan", "evp option lam must be finite, got nan")))):
        path = write(tmp_path, replaced(POLY_SCENARIO, pairs))
        for cmd in ("validate", "run"):
            res = CliRunner().invoke(main, [cmd, path])
            assert res.exit_code == 2, (cmd, message, res.output)
            assert f"input error: {message}" in res.output
    assert ran == []


def test_cli_refuses_keys_no_builder_reads(tmp_path):
    # validate printed OK for each, and run dropped the key: the query ran
    # at gamma 1, the piece's b_p was ignored under p_labels
    labelled = (("p_dim: 1}", "p_labels: [a, b]}"),)

    def added(*pairs):
        return replaced(EXAMPLE_DIFFERENCE, pairs)

    for text, message in (
            (EXAMPLE_DIFFERENCE + "comment: none\n",
             "scenario has no key 'comment'; it reads ['spaces', 'mapping', "
             "'query', 'grids', 'checks', 'expect', 'output']"),
            (added(("p_dim: 1}", "p_dim: 1, z_dim: 1}")),
             "spaces block has no key 'z_dim'; it reads ['x_dim', 'y_dim', "
             "'p_dim', 'p_labels']"),
            (added(("  gamma: 1.0\n", "  gamma: 1.0\n  gama: 4.0\n")),
             "query block has no key 'gama'"),
            (added(("rule: difference}", "rule: difference, convx: false}")),
             "a rule mapping has no key 'convx'; it reads ['kind', 'rule', "
             "'coeffs']"),
            (added(("resolution: 11}\n", "resolution: 11}\n  z: {lower: "
                    "[0.0], upper: [1.0], resolution: 2}\n")),
             "grids block has no key 'z'; it reads ['x', 'y', 'p']"),
            (added(("resolution: 81}", "resolution: 81, step: 0.1}")),
             "grid 'x' has no key 'step'"),
            (replaced(POLY_SCENARIO, (("convex: true", "convx: true"),)),
             "a polyhedral mapping has no key 'convx'; it reads ['kind', "
             "'pieces', 'convex']"),
            (replaced(POLY_SCENARIO, (("b_p: [[-0.3]]", "bp: [[-0.3]]"),)),
             "piece 0 has no key 'bp'; it reads ['A', 'b', 'b_p']"),
            (replaced(POLY_SCENARIO, labelled),
             "piece 0 has no key 'b_p'; it reads ['A', 'b']")):
        path = write(tmp_path, text)
        for cmd in ("validate", "run"):
            res = CliRunner().invoke(main, [cmd, path])
            assert res.exit_code == 2, (cmd, message, res.output)
            assert message in res.output
    # without b_p, the labelled scenario is valid
    path = write(tmp_path, replaced(POLY_SCENARIO, (
        *labelled, ("      b_p: [[-0.3]]\n", ""))))
    assert CliRunner().invoke(main, ["validate", path]).exit_code == 0


def test_cli_failed_solver_gives_inconclusive_row(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise NumericError("least-distance problem found no feasible point")

    monkeypatch.setattr(regulab.cli, "check_geometric", broken)
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", write(tmp_path, FAST_SCENARIO),
                                    "--out", str(out)])
    # the verdict differs from the expected HOLDS: a mismatch, no traceback
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)
    assert "note: least-distance problem found no feasible point" in res.output
    rows = (out / "sc.csv").read_text().splitlines()
    assert rows[1].startswith("oracle,HOLDS,")
    assert rows[2].startswith("geometric,INCONCLUSIVE,,")
    assert rows[3].startswith("normal-cone,HOLDS,")


def test_cli_check_refusing_an_accepted_scenario_gives_inconclusive_row(
        tmp_path):
    # validate accepts the composition on the quadratic example, whose
    # premises are VIOLATED; run exited 2 at the composition and wrote no
    # CSV, so the oracle and geometric rows were lost
    text = replaced(EXAMPLE_QUADRATIC, (
        ("  gamma: 1.0\n", "  gamma: 1.0\n  l: 1.0\n"),
        ("  - geometric\n", "  - geometric\n  - compose-rate\n"),
        ("resolution: 201", "resolution: 21")))
    path = write(tmp_path, text[:text.index("expect:")])
    assert CliRunner().invoke(main, ["validate", path]).exit_code == 0
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", path, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert "note: composition needs both premise certificates to HOLD" in \
        res.output
    rows = (out / "sc.csv").read_text().splitlines()
    assert rows[1].startswith("oracle,VIOLATED,")
    assert rows[2].startswith("geometric,VIOLATED,")
    assert rows[3].startswith("compose-rate,INCONCLUSIVE,,")
    assert (out / "sc.txt").exists()


def test_cli_exit_code_three_on_resource_cap(tmp_path):
    # the cap counts X grid points times parameters, so a tiny X grid
    # over a huge P grid is refused before any scan starts
    huge_p = FAST_SCENARIO.replace(
        "x: {lower: [-1.0], upper: [1.0], resolution: 41}",
        "x: {lower: [-1.0], upper: [1.0], resolution: 3}").replace(
        "p: {lower: [-0.5], upper: [0.5], resolution: 5}",
        "p: {lower: [-0.5], upper: [0.5], resolution: 3000000}")
    assert "resolution: 3}" in huge_p and "3000000" in huge_p
    for text, cap in ((FAST_SCENARIO, "10"), (huge_p, "100")):
        res = CliRunner().invoke(main, ["run", write(tmp_path, text),
                                        "--max-points", cap])
        assert res.exit_code == 3, res.output
        assert "resource cap" in res.output


def test_cli_resource_cap_counts_parameter_pairs(tmp_path):
    # the difference example has 81 X points and 11 parameters: the oracle
    # scans |X||P| = 891 points, the pair scans |P|^2 |X| = 9,801
    no_pairs = EXAMPLE_DIFFERENCE
    for text in ("  - recede\n  - aubin\n", "  recede: HOLDS\n  aubin: HOLDS\n"):
        assert text in no_pairs
        no_pairs = no_pairs.replace(text, "")
    recede = no_pairs.replace("  - oracle\n", "  - oracle\n  - recede\n")
    for text, code in ((no_pairs, 0), (recede, 3), (EXAMPLE_DIFFERENCE, 3)):
        res = CliRunner().invoke(main, ["run", write(tmp_path, text),
                                        "--max-points", "5000"])
        assert res.exit_code == code, res.output
        if code == 3:
            assert "scan of 9801 points exceeds cap 5000" in res.output


def test_cli_validate(tmp_path):
    path = write(tmp_path, FAST_SCENARIO)
    res = CliRunner().invoke(main, ["validate", path])
    assert res.exit_code == 0
    assert "OK" in res.output
    bad = write(tmp_path, FAST_SCENARIO.replace("  mu: 0.5\n", ""), "bad.yaml")
    res = CliRunner().invoke(main, ["validate", bad])
    assert res.exit_code == 2


def test_cli_examples_emitted_and_runnable(tmp_path):
    res = CliRunner().invoke(main, ["examples", "--out", str(tmp_path)])
    assert res.exit_code == 0
    for name in ("example_quadratic.yaml", "example_difference.yaml"):
        assert (tmp_path / name).exists()
        sc = load_scenario(str(tmp_path / name))
        assert sc.expect


def _csv_rows(out):
    with open(out / "sc.csv") as fh:
        return list(csv.DictReader(fh))


def test_cli_evp_check_runs_with_default_and_given_lam(tmp_path):
    text = EXAMPLE_DIFFERENCE[:EXAMPLE_DIFFERENCE.index("checks:")] + \
        "checks: [evp, {name: evp, lam: 0.25}]\nexpect: {evp: HOLDS}\n"
    out = tmp_path / "out"
    res = CliRunner().invoke(main, ["run", write(tmp_path, text),
                                    "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert [(r["check"], r["verdict"]) for r in _csv_rows(out)] == \
        [("evp", "HOLDS")] * 2


def test_cli_affine_rule_at_a_target_other_than_zero(tmp_path):
    # the difference rule's solution sets at ybar = 0.25 come from its
    # solution_any rule: x = p - 0.25
    def at(alpha):
        return replaced(EXAMPLE_DIFFERENCE, (("ybar: [0.0]", "ybar: [0.25]"),
                                             ("alpha: 1.0", f"alpha: {alpha}")))

    res = CliRunner().invoke(main, ["run", write(tmp_path, at(0.5))])
    assert res.exit_code == 0, res.output
    assert res.output.count("[as expected]") == 8
    # at the exact modulus, alpha = 1, the oracle's margin is rounding
    # (-5.55e-17, read as VIOLATED): one tolerance for every checker
    # (ROADMAP item 9) would settle its verdict
    text = at(1.0)
    out = tmp_path / "out"
    CliRunner().invoke(main, ["run", write(tmp_path, text[:text.index(
        "expect:")]), "--out", str(out)])
    oracle = _csv_rows(out)[0]
    assert oracle["check"] == "oracle"
    assert abs(float(oracle["margin"])) <= 1e-15


# `regulab run --out` CSVs of the shipped examples, frozen: verdicts and CSV
# bytes of these two scenarios must not move.  The slope-local row's margin
# of -1.5457386815e-08 is a known defect, not a goal: the slope checks allow
# margins down to -slope.SLOPE_TOL (1e-7) where the others allow
# -oracle.CHECK_TOL (1e-9), so a slightly negative margin passes as HOLDS.
# The fix that gives every check one tolerance must update that line.
_CSV_HEADER = ("check,verdict,margin,witness_p,witness_x,witness_y,value,"
               "alpha,delta,mu,eta,gamma,tau,grid_res,seconds")
FROZEN_CSV = {
    "example_quadratic": [
        _CSV_HEADER,
        "oracle,VIOLATED,-0.0625,-1,-0.75,0.0625,0.25,0.5,1,1,2,1,0.99,201,",
        "geometric,VIOLATED,-0.124999999875,-1,-0.75,0.0625,0.125000000125,"
        "0.5,1,1,2,1,0.99,201,",
    ],
    "example_difference": [
        _CSV_HEADER,
        "oracle,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "geometric,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "slope-nonlocal,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "slope-local,HOLDS,-1.5457386815e-08,,,,,1,0.5,0.5,1,1,0.99,81,",
        "subdifferential,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "normal-cone,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "recede,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
        "aubin,HOLDS,0,,,,,1,0.5,0.5,1,1,0.99,81,",
    ],
}


def test_shipped_examples_match_expectations(tmp_path):
    # the quadratic example must refute, the difference example certify,
    # and both CSVs must match the frozen bytes
    for stem, text in (("example_quadratic", EXAMPLE_QUADRATIC),
                       ("example_difference", EXAMPLE_DIFFERENCE)):
        path = write(tmp_path, text, stem + ".yaml")
        res = CliRunner().invoke(main, ["run", path,
                                        "--out", str(tmp_path / "out")])
        assert res.exit_code == 0, res.output
        csv_bytes = (tmp_path / "out" / (stem + ".csv")).read_bytes()
        assert csv_bytes == "".join(
            line + "\r\n" for line in FROZEN_CSV[stem]).encode()


def test_slope_tolerance_is_what_keeps_the_difference_slope_local_holds(
        tmp_path, monkeypatch):
    # without the slope checks' tolerance, the frozen slope-local margin is
    # a violation
    monkeypatch.setattr(regulab.slope, "SLOPE_TOL", 0.0)
    out = tmp_path / "out"
    CliRunner().invoke(main, ["run", write(tmp_path, EXAMPLE_DIFFERENCE),
                              "--out", str(out)])
    [row] = [r for r in _csv_rows(out) if r["check"] == "slope-local"]
    assert (row["verdict"], row["margin"]) == ("VIOLATED", "-1.5457386815e-08")


_A2, _B2, _C2 = (np.array([[2.0, 1.0], [0.0, -2.0]]),
                 np.array([[1.0, 0.5], [-0.25, 1.0]]), np.array([0.1, -0.3]))
# rule, coefficients, dimension, and the rule's formula at one point
_RULE_FORMULAS = [
    ("difference", {}, 1, lambda p, x: -np.eye(1) @ x + np.eye(1) @ p
     + np.zeros(1)),
    ("identity", {}, 1, lambda p, x: np.eye(1) @ x + np.zeros((1, 1)) @ p
     + np.zeros(1)),
    ("scale", {"k": -2.5}, 1, lambda p, x: -2.5 * np.eye(1) @ x
     + np.zeros((1, 1)) @ p + np.zeros(1)),
    ("affine", {"a": 1.7, "b": -0.3, "c": [0.1]}, 1,
     lambda p, x: 1.7 * np.eye(1) @ x + -0.3 * np.eye(1) @ p + [0.1]),
    ("quadratic_difference", {}, 1,
     lambda p, x: np.array([(float(p[0]) - x[0]) ** 2])),
    ("affine", {"a": _A2.tolist(), "b": _B2.tolist(), "c": _C2.tolist()}, 2,
     lambda p, x: _A2 @ x + _B2 @ p + _C2),
]


@pytest.mark.parametrize("rule, coeffs, dim, formula", _RULE_FORMULAS,
                         ids=[f"{r[0]}-{r[2]}d" for r in _RULE_FORMULAS])
def test_rule_library_batched_values_match_pointwise(rule, coeffs, dim,
                                                     formula):
    F = regulab.cli._RULES[rule](NormedSpace("X", dim), NormedSpace("Y", dim),
                                 NormedSpace("P", dim), coeffs)
    grids = ScanGrids(x=GridSpec((-1.0,) * dim, (1.0,) * dim,
                                 41 if dim == 1 else 9))
    # the grid and random points: a square rounded another way than libm's
    # pow shows at about 1 point in 1000
    xs = np.vstack([make_grid(grids.x),
                    np.random.default_rng(5).uniform(-1, 1, (3000, dim))])
    for p in (np.full(dim, 0.3), np.linspace(-0.45, 0.2, dim)):
        ref = np.array([formula(p, x) for x in xs])
        us, vs = F.graph_over(p, xs)
        assert np.array_equal(us, xs) and vs.shape == ref.shape
        if dim == 1:  # the same float operations in the same order
            assert vs.tobytes() == ref.tobytes()
        else:  # a matrix product may sum in another order
            size = np.abs(xs) @ np.abs(_A2.T) + np.abs(_B2) @ np.abs(p) \
                + np.abs(_C2)
            assert np.all(np.abs(vs - ref) <= 1e-15 * size)
        for x, v in zip(xs, vs):
            assert F.values(p, x).tobytes() == v[None, :].tobytes()
        # the graph sample: each grid point beside its batched value
        pts = F.graph_points(p, grids)
        n = pts.shape[0]
        assert pts.tobytes() == np.hstack([xs[:n], vs[:n]]).tobytes()


def test_difference_example_evaluates_its_rule_in_arrays(tmp_path,
                                                         monkeypatch):
    path = tmp_path / "example_difference.yaml"
    path.write_text(EXAMPLE_DIFFERENCE)
    sc = load_scenario(str(path))
    rows = []  # the number of points of each rule call
    build = regulab.cli.build_mapping

    def spied_build(sc):
        F = build(sc)
        rule = F.value_rule

        def counted(p, xs):
            rows.append(len(xs))
            return rule(p, xs)

        F.value_rule = counted
        return F

    scanned, built = [], []  # the points of each call
    slope_at, directions = regulab.slope.nonlocal_slope, \
        regulab.slope._direction_candidates
    monkeypatch.setattr(regulab.cli, "build_mapping", spied_build)
    monkeypatch.setattr(regulab.slope, "nonlocal_slope", lambda *a, **k:
                        scanned.append([len(b.xs) for b in a[2]])
                        or slope_at(*a, **k))
    monkeypatch.setattr(regulab.slope, "_direction_candidates", lambda *a:
                        built.append(len(a[3])) or directions(*a))
    assert run_scenario(sc)[0] == 0
    # one call per check, with the stacked scan points of all 11 parameters
    [batches] = scanned
    assert len(batches) == 11 and sum(batches) == 418
    # slope-local scans the same points and reuses the directions that
    # slope-nonlocal built, one batch per parameter
    assert built == batches
    # one array call per parameter per slope check and one per graph
    # sample; the checkers make no one-point graph checks (in_graph)
    assert len(rows) == 3 * 11 and min(rows) > 1


# the difference example at small grids, a polyhedral scenario, and the
# ways a scenario file can be wrong: the fuzz test below mutates them and
# runs validate and run
_FUZZ_BASES = [yaml.safe_load(replaced(EXAMPLE_DIFFERENCE, (
    ("resolution: 81", "resolution: 9"), ("resolution: 11", "resolution: 5")))),
    yaml.safe_load(POLY_SCENARIO.replace("resolution: 41", "resolution: 9"))]
_TEXT = st.text(alphabet="abnor-_ .0", max_size=6)
_JUNK = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), _TEXT,
                  st.lists(_TEXT, max_size=2),
                  st.dictionaries(_TEXT, st.integers(-3, 3), max_size=2))


def _paths(node, at=()):
    """Every key and list index below ``node``, as paths from the root."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield at + (key,)
        yield from _paths(child, at + (key,))


def _mutate(data, sc):
    """One mutation of the scenario dict ``sc``, in place."""
    paths = list(_paths(sc))
    kind = data.draw(st.sampled_from(
        ["missing", "type", "number", "non-finite", "check", "rule",
         "variant", "lam", "p_labels", "no pbar"]))
    if kind in ("missing", "type", "number", "non-finite") and paths:
        if kind in ("number", "non-finite"):
            paths = [p for p in paths if type(_at(sc, p)) in (int, float)] \
                or paths
        path = data.draw(st.sampled_from(paths))
        parent = _at(sc, path[:-1])
        if kind == "missing":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(
                _JUNK if kind == "type" else
                st.floats(-3, 3) if kind == "number" else
                st.sampled_from([math.inf, -math.inf, math.nan]))
    elif kind == "check" and isinstance(sc.get("checks"), list):
        sc["checks"].append(data.draw(st.one_of(
            _TEXT, st.fixed_dictionaries({"name": _TEXT}))))
    elif kind == "rule" and isinstance(sc.get("mapping"), dict):
        sc["mapping"]["rule"] = data.draw(_TEXT)
    elif kind == "variant" and isinstance(sc.get("checks"), list):
        sc["checks"].append({
            "name": data.draw(st.sampled_from(
                ["normal-cone", "coderivative-ball", "subdifferential",
                 "slope-local"])),
            data.draw(st.sampled_from(["variant", "mode", "form"])):
                data.draw(st.one_of(_TEXT, st.sampled_from(
                    ["frechet-cap", "convex-normal", "necessary"])))})
    elif kind == "lam" and isinstance(sc.get("checks"), list):
        sc["checks"].append({"name": "evp", "lam": data.draw(st.one_of(
            _JUNK, st.floats(-3, 3),
            st.sampled_from([math.inf, -math.inf, math.nan])))})
    elif kind == "p_labels" and isinstance(sc.get("spaces"), dict):
        sc["spaces"].pop("p_dim", None)
        sc["spaces"]["p_labels"] = ["a", "b"]
    elif kind == "no pbar" and isinstance(sc.get("query"), dict):
        sc["query"].pop("pbar", None)


def _at(node, path):
    for key in path:
        node = node[key]
    return node


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_mutated_scenarios_exit_with_a_code_never_a_traceback(data):
    # validate exits 0 or 2, run exits 0 to 4, run exits 2 exactly when
    # validate does, and neither ends in an exception
    sc = copy.deepcopy(data.draw(st.sampled_from(_FUZZ_BASES)))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(data, sc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sc.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(sc, fh)
        codes = []
        for args in (["validate", path],
                     ["run", path, "--out", os.path.join(tmp, "out")]):
            res = CliRunner().invoke(main, args)
            assert res.exception is None or \
                isinstance(res.exception, SystemExit), (args, sc, res.output)
            assert "Traceback" not in res.output
            codes.append(res.exit_code)
    validate, run = codes
    assert validate in (0, 2), (sc, validate)
    assert run in (0, 1, 2, 3, 4), (sc, run)
    assert (run == 2) == (validate == 2), (sc, codes)
