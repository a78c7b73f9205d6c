"""Scenario loading, command-line interface, exit codes, and determinism."""

import os

import pytest
from click.testing import CliRunner

import regulab.cli
import regulab.sets
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
                     ("rule: difference}", "rule: scale, coeffs: {k: abc}}")):
        text = FAST_SCENARIO.replace(old, new)
        assert text != FAST_SCENARIO
        res = CliRunner().invoke(main, ["run", write(tmp_path, text)])
        assert res.exit_code == 2, (new, res.output)
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


# `regulab run --out` CSVs of the shipped examples, frozen: verdicts and CSV
# bytes of these two scenarios must not move.  The slope-local row's margin
# of -1.5457386815e-08 is a known defect, not a goal: slope checks use
# tol=1e-7 where the dual checks use 1e-9, so a slightly negative margin
# passes as HOLDS.  The fix that gives every check one tolerance must update
# that line.
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
