import argparse
import codecs
import hashlib
import io
import json
import locale
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fan_reference import reference_full_chains, sample_relative_interior
from tropibound import cli, matroid
from tropibound.bergman import is_member, is_positive_member, positive_fan
from tropibound.cli import CliInputError, main, parse_input, write_json
from tropibound.matroid import (
    OrientedMatroid,
    SignedCircuit,
    all_flats,
    maximal_flag_count,
    maximal_flags,
    realize_from_kernel,
)
from tropibound.rational import RationalMatrix
from tropibound.systems import CRNModel, VerticalSystem, assemble_crn

INPUTS = Path(__file__).resolve().parents[1] / "inputs"


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


# --- parsing -----------------------------------------------------------------


def test_parse_shipped_running_system():
    obj = parse_input(str(INPUTS / "running_2x5.json"))
    assert isinstance(obj, VerticalSystem)
    assert obj.C == RationalMatrix.from_rows([[-3, 1, -1, -2, 2], [-1, 1, -1, -1, 1]])
    assert obj.h[4] == -1


def test_parse_shipped_crn():
    obj = parse_input(str(INPUTS / "hhk_crn.json"))
    assert isinstance(obj, CRNModel)
    assert obj.T == (10, 20)
    assert obj.h == (7, -6, -2, -3, -3, 3)


def test_parse_malformed_fraction(tmp_path):
    path = write(
        tmp_path,
        "bad.json",
        {"kind": "vertical_system", "C": [["1/0"]], "A": [[1]], "h": ["0"]},
    )
    with pytest.raises(CliInputError, match=r"C\[0\]\[0\]"):
        parse_input(path)


def test_parse_rejects_decimals(tmp_path):
    # an exponent string is refused before Fraction makes it a huge integer
    for value in (0.5, "0.5", "0.0", "-1e0", "-1e5000", "1e100000000", "1/0"):
        path = write(tmp_path, "dec.json", {"kind": "matrix", "matrix": [[value]]})
        start = time.perf_counter()
        with pytest.raises(CliInputError, match=r"matrix\[0\]\[0\]") as exc:
            parse_input(path)
        assert time.perf_counter() - start < 1, value
        # one clause, which names the refused entry once
        assert str(exc.value).count(str(value)) == 1, exc.value
        assert ("zero denominator" in str(exc.value)) == (value == "1/0"), exc.value


def test_bound_refuses_decimal_and_exponent_shifts(tmp_path, capsys):
    doc = json.loads((INPUTS / "running_2x5.json").read_text())
    for value in ("1e100000000", "0.5", "-1e0"):
        doc["h"][4] = value
        start = time.perf_counter()
        assert main(["bound", write(tmp_path, "shift.json", doc)]) == 1
        assert time.perf_counter() - start < 1, value
        err = capsys.readouterr().err
        assert err.startswith("error: h[4]: ") and err.count("\n") == 1, err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", int)(), reason="no integer string digit limit"
)
def test_over_long_integers_name_the_file_or_entry(tmp_path, capsys):
    # json.load refuses an over-long integer literal with a ValueError that
    # is not a JSONDecodeError; Fraction refuses an over-long integer string
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    path = tmp_path / "long.json"
    path.write_text('{"kind": "matrix", "matrix": [[' + digits + "]]}")
    assert main(["circuits", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, err
    path = write(tmp_path, "long_string.json", {"kind": "matrix", "matrix": [[digits]]})
    assert main(["circuits", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: matrix[0][0]: ") and err.count("\n") == 1, err
    assert f"at most {sys.get_int_max_str_digits()} digits" in err
    assert digits[:100] not in err


def test_parse_ragged_matrix(tmp_path):
    path = write(tmp_path, "ragged.json", {"kind": "matrix", "matrix": [[1, 2], [3]]})
    with pytest.raises(CliInputError, match="ragged"):
        parse_input(path)


def test_matrix_with_no_columns_exits_one(tmp_path, capsys):
    # an empty row is refused at parse time, naming its path, instead of
    # reaching circuits as a zero matrix or subdivision as 0 cells
    cases = [
        ("circuits", {"kind": "matrix", "matrix": [[]]}, "matrix[0]"),
        ("subdivision", {"kind": "vertical_system", "C": [[]], "A": [[]], "h": []}, "C[0]"),
    ]
    for command, doc, where in cases:
        assert main([command, write(tmp_path, "empty.json", doc)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {where}: expected a row with at least one entry\n"


def test_parse_unknown_kind(tmp_path):
    path = write(tmp_path, "odd.json", {"kind": "polygon"})
    with pytest.raises(CliInputError, match="unknown kind"):
        parse_input(path)


def test_unknown_kind_is_echoed_in_brief(tmp_path, capsys):
    # echoed as every other refused entry is, not whole
    path = write(tmp_path, "odd.json", {"kind": "k" * 100_000})
    assert main(["bound", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {path}: unknown kind '{'k' * 39}... (100002 characters)\n"


def test_parse_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(CliInputError, match="line"):
        parse_input(str(p))


@pytest.mark.skipif(
    codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
    reason="input files are read in the locale's encoding",
)
def test_parse_non_utf8_names_the_file(tmp_path, capsys):
    p = tmp_path / "latin1.json"
    p.write_bytes(b'{"kind": "matrix", "matrix": [[1]], "note": "\xff"}')
    assert main(["circuits", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: 'utf-8' codec")


def test_parse_deeply_nested_json_exit_one(tmp_path, capsys):
    # the decoder's RecursionError is a RuntimeError, which main would
    # report as an internal error
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["circuits", str(p)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {p}: nested too deeply")


def test_parse_dimension_cross_check(tmp_path):
    path = write(
        tmp_path,
        "mismatch.json",
        {"kind": "vertical_system", "C": [[1, 2]], "A": [[1]], "h": [0, 0]},
    )
    with pytest.raises(CliInputError, match="mismatch"):
        parse_input(path)


# --- command dispatch ---------------------------------------------------------


def test_bound_command_exit_zero(capsys):
    code = main(["bound", str(INPUTS / "running_2x5.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified lower bound on positive real roots: 2" in out


def test_decorated_command(capsys):
    code = main(["decorated", str(INPUTS / "running_2x5.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "positively decorated simplices: 1" in out
    assert "{1, 3, 5}" in out and "(1, 1, 2)" in out


def test_intersect_uncertified_exit_two(tmp_path, capsys):
    path = write(
        tmp_path,
        "line.json",
        {
            "kind": "vertical_system",
            "C": [[1, -1, 0, 0]],
            "A": [[1, 1, 2, 3]],
            "h": [0, 0, 0, 0],
        },
    )
    code = main(["intersect", path])
    assert code == 2
    assert "NOT certified" in capsys.readouterr().out


def test_error_exit_one(tmp_path, capsys):
    path = write(
        tmp_path,
        "bad.json",
        {"kind": "vertical_system", "C": [["1/0"]], "A": [[1]], "h": ["0"]},
    )
    code = main(["bound", path])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_verify_large_shift_exit_one(tmp_path, capsys):
    doc = json.loads((INPUTS / "running_2x5.json").read_text())
    doc["h"] = ["0", "0", "0", "0", "-400"]
    code = main(["verify", write(tmp_path, "shifted.json", doc), "--t", "0.01"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: column 5:") and "Traceback" not in err


@pytest.mark.parametrize(
    "A, h, bound",
    [
        # t^v overflows a float
        ([[0, 1, -1]], [-150, 150, 0], 1),
        # t^v rounds to 0.0
        ([[0, 1, 2]], [150, -150, 0], 2),
    ],
)
def test_verify_skips_unrepresentable_tropical_seeds(tmp_path, capsys, A, h, bound):
    doc = {"kind": "vertical_system", "C": [[1, -1, 1]], "A": A, "h": h}
    code = main(["verify", write(tmp_path, "far.json", doc), "--json", "-"])
    out, err = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in err and "error" not in err
    result = json.loads(out)
    assert result["certified_bound"] == bound
    assert not any(w["seed_origin"].startswith("tropical") for w in result["witnesses"])


def test_verify_skips_overflowing_random_starts(capsys):
    # the random starts span 1.5 |log t|, about 1036 here, past the
    # range of exp
    code = main(["verify", str(INPUTS / "running_2x5.json"), "--t", "1e-300", "--json", "-"])
    out, err = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in err and "error" not in err
    assert json.loads(out)["t"] == 1e-300


def test_internal_error_exit_three(monkeypatch, capsys):
    import tropibound.intersection as mod

    real = mod.intersect_via_vertices

    def broken(OM, A, h):
        return set(sorted(real(OM, A, h))[1:])

    monkeypatch.setattr(mod, "intersect_via_vertices", broken)
    code = main(["intersect", str(INPUTS / "running_2x5.json"), "--cross-check"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["intersect", "bound"])
def test_cross_check_passes_a_positive_dimensional_run(tmp_path, capsys, command):
    # the oracle finds a vertex of a positive-dimensional piece that is
    # not isolated, and the walk lists no point: no disagreement
    path = write(
        tmp_path,
        "piece.json",
        {
            "kind": "vertical_system",
            "C": [[-2, -1, 2, 2], [-1, -2, -1, 2]],
            "A": [[-2, -1, -2, -2], [2, 2, -1, 2]],
            "h": [-2, 0, -2, -2],
        },
    )
    for output in ([], ["--json", "-"]):
        runs = []
        for flags in ([], ["--cross-check"]):
            code = main([command, path, *output, *flags])
            runs.append((code, *capsys.readouterr()))
        assert runs[0] == runs[1] and runs[0][0] == 2 and runs[0][2] == ""
    assert '"positive_dimensional": true' in runs[0][1]


def test_isolation_contradicting_fan_walk_exit_three(tmp_path, monkeypatch, capsys):
    # a point that a cell's facets pin lies in that cell's closed cone, so
    # in the positive fan; hhk at this shift has underdetermined tie
    # systems, and a probe that pins a point outside the fan is an
    # internal error
    import tropibound.intersection as mod

    doc = json.loads((INPUTS / "hhk_crn.json").read_text())
    doc["h"] = [7, 8, 3, 3, -1, 8]
    path = write(tmp_path, "hhk.json", doc)
    vs = assemble_crn(parse_input(path))
    # v = 0, as (x, d) = (0, 1), whose image is h
    outside = ([0] * vs.A.rows, 1)
    assert not is_positive_member(vs.h, realize_from_kernel(vs.C))
    monkeypatch.setattr(
        mod, "_product_cells", lambda plan, h_int, holds: [(None, (), 0, outside)]
    )
    code = main(["intersect", path])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error:") and "Traceback" not in captured.err
    assert captured.out == ""


# criterion-7 system 18: two decorated simplices, bound 2, transverse
SYSTEM_18 = {"kind": "vertical_system", "C": [[-2, -3, 3]], "A": [[-2, 2, 0]], "h": ["7", "0", "-5/2"]}


@pytest.mark.parametrize(
    "document, stand_in, message",
    [
        (SYSTEM_18, "one_image", "two decorated simplices share one tropical image"),
        ("running_2x5.json", "one_image", "not a reported point"),
        ("running_2x5.json", "no_member", "decorated simplex maps outside the positive tropical set"),
    ],
)
def test_decorated_comparison_checks_exit_three(
    tmp_path, monkeypatch, capsys, document, stand_in, message
):
    # each of bound's three checks of the decorated comparison map, made
    # to fail: two simplices with one image, an image that is not a
    # reported point (running example: one simplex, transverse), and an
    # image outside the positive fan; each is an internal error with no
    # document written
    from tropibound import subdivision, systems

    if isinstance(document, dict):
        path = write(tmp_path, "system.json", document)
    else:
        path = str(INPUTS / document)
    if stand_in == "one_image":
        one_image = lambda s, A, h, matroid: (Fraction(99),) * A.cols  # noqa: E731
        monkeypatch.setattr(systems, "decorated_to_tropical", one_image)
    else:
        monkeypatch.setattr(subdivision, "is_positive_member", lambda w, OM: False)
    assert main(["bound", path, "--json", "-"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.count("\n") == 1 and captured.err.startswith("internal error:")
    assert message in captured.err


def test_zero_C_refused_before_the_rank_of_A(tmp_path, capsys):
    path = write(
        tmp_path,
        "zero.json",
        {"kind": "vertical_system", "C": [[0, 0, 0]], "A": [[1, 2, 3], [2, 4, 6]], "h": [0, 0, 0]},
    )
    assert main(["intersect", path]) == 1
    assert capsys.readouterr().err == "error: zero matrix realizes no oriented matroid here\n"


def test_circuits_command_machine_output(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code = main(["circuits", str(INPUTS / "running_2x5.json"), "--json", str(out_path)])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["kind"] == "matroid"
    assert {tuple(c["positive"]) for c in doc["circuits"]} == {
        (3,), (5,), (2, 5), (1, 2), (1, 4), (3, 4),
    }


def test_subdivision_command(capsys):
    code = main(["subdivision", str(INPUTS / "running_2x5.json"), "--json", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [c["members"] for c in doc["cells"]] == [
        [1, 2, 5], [1, 3, 5], [2, 4, 5], [3, 4, 5],
    ]
    assert doc["is_triangulation"] is True


def test_positive_bergman_with_coarse_compare(capsys):
    code = main([
        "positive-bergman",
        str(INPUTS / "running_2x5.json"),
        "--coarse-compare",
        str(INPUTS / "coarse_fan_2x5.json"),
        "--json",
        "-",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    verdicts = [c["positive_member"] for c in doc["coarse_comparison"]["cones"]]
    assert verdicts == [True] * 5 + [False] * 5


@pytest.mark.parametrize(
    "field, value",
    [
        ("cones", [[1, 2], [0, 3]]),
        ("cones", [[1, 2], [3, 8]]),
        ("cones", {"1": [1, 2]}),
        ("rays", 7),
        # None drops the field
        pytest.param("rays", None, id="rays-missing"),
        pytest.param("cones", None, id="cones-missing"),
    ],
)
def test_coarse_compare_refuses_bad_fan(tmp_path, capsys, field, value):
    doc = json.loads((INPUTS / "coarse_fan_2x5.json").read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    path = write(tmp_path, "coarse.json", doc)
    with pytest.raises(CliInputError, match=re.escape(path)):
        parse_input(path)
    code = main([
        "positive-bergman",
        str(INPUTS / "running_2x5.json"),
        "--coarse-compare",
        path,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


def test_coarse_compare_refuses_short_ray(tmp_path, capsys):
    # parse_input cannot know the ground size, so the command refuses the ray
    doc = json.loads((INPUTS / "coarse_fan_2x5.json").read_text())
    doc["rays"][0] = doc["rays"][0][:4]
    path = write(tmp_path, "coarse.json", doc)
    code = main([
        "positive-bergman",
        str(INPUTS / "running_2x5.json"),
        "--coarse-compare",
        path,
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: rays[0]: ") and "Traceback" not in err


def test_verify_command(capsys):
    code = main(["verify", str(INPUTS / "running_2x5.json"), "--t", "0.01", "--json", "-"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["empirical"] is True
    assert len(doc["witnesses"]) >= 2


def test_verify_reduces_C_once(monkeypatch, capsys):
    # the Newton witnesses and the decorated count both need the square
    # system; C is reduced to its independent rows once for both
    from tropibound import rational, systems

    calls = []

    def counted(C):
        calls.append(C)
        return rational.first_independent_rows(C)

    monkeypatch.setattr(systems, "first_independent_rows", counted)
    systems._independent_rows.cache_clear()
    assert main(["verify", str(INPUTS / "hhk_crn.json")]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_verify_refuses_t_before_bounding(monkeypatch, capsys):
    import tropibound.cli as cli

    def no_bound(system):
        raise AssertionError("bound ran before the t check")

    monkeypatch.setattr(cli, "bound", no_bound)
    code = main(["verify", str(INPUTS / "hhk_crn.json"), "--t", "2"])
    assert code == 1
    assert capsys.readouterr().err == "error: t must lie in (0, 1), got 2.0\n"


def test_verify_refuses_rank_deficient_before_bounding(monkeypatch, tmp_path, capsys):
    import tropibound.cli as cli

    def no_bound(system):
        raise AssertionError("bound ran before the rank check")

    monkeypatch.setattr(cli, "bound", no_bound)
    path = write(
        tmp_path,
        "rank1.json",
        {
            "kind": "vertical_system",
            "C": [[1, -1, 1, -1], [2, -2, 2, -2]],
            "A": [[1, 0, 1, 2], [0, 1, 1, 3]],
            "h": [0, 0, 0, 0],
        },
    )
    assert main(["verify", path]) == 1
    assert capsys.readouterr().err == "error: rank(C) = 1 differs from n = 2\n"


def test_verify_refuses_overflow_before_bounding(monkeypatch, tmp_path, capsys):
    import tropibound.cli as cli

    def no_bound(system):
        raise AssertionError("bound ran before the coefficients were checked")

    monkeypatch.setattr(cli, "bound", no_bound)
    doc = json.loads((INPUTS / "running_2x5.json").read_text())
    doc["h"] = ["0", "0", "0", "0", "-400"]
    assert main(["verify", write(tmp_path, "shifted.json", doc), "--t", "0.01"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: column 5:") and err.endswith("overflows in floating point\n")


def test_verify_certified_bound_matches_bound(tmp_path, capsys):
    # not transverse (tropical count 2), one decorated simplex: bound certifies 1
    path = write(
        tmp_path,
        "fallback.json",
        {
            "kind": "vertical_system",
            "C": [[2, -2, 1, -3]],
            "A": [[2, 1, -1, 0]],
            "h": [2, 0, -1, -2],
        },
    )
    assert main(["bound", path, "--json", "-"]) == 2
    certified = json.loads(capsys.readouterr().out)["certified_bound"]
    assert certified == 1
    assert main(["verify", path, "--json", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["certified_bound"] == certified


@pytest.mark.parametrize("command", ["decorated", "verify"])
def test_rank_deficient_coefficients_exit_one(tmp_path, capsys, command):
    path = write(
        tmp_path,
        "rank1.json",
        {
            "kind": "vertical_system",
            "C": [[1, -1, 1, -1], [2, -2, 2, -2]],
            "A": [[1, 0, 1, 2], [0, 1, 1, 3]],
            "h": [0, 0, 0, 0],
        },
    )
    assert main([command, path]) == 1
    err = capsys.readouterr().err
    assert err == "error: rank(C) = 1 differs from n = 2\n"


def test_machine_output_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["bound", str(INPUTS / "running_2x5.json"), "--json", str(a)])
    main(["bound", str(INPUTS / "running_2x5.json"), "--json", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_machine_output_reparses(tmp_path):
    out = tmp_path / "rep.json"
    main(["intersect", str(INPUTS / "running_2x5.json"), "--json", str(out)])
    doc = json.loads(out.read_text())
    assert doc["count"] == 2
    # every exact number in the document parses back as a fraction string
    for p in doc["points"]:
        from fractions import Fraction

        assert [Fraction(x) for x in p["w"]]


def test_crn_command_exit_zero(capsys):
    code = main(["crn", str(INPUTS / "hhk_crn.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "certified lower bound on positive real roots: 3" in out


OPEN_NETWORK = {"kind": "crn", "N": [[1, -1]], "B": [[0, 1]], "W": [], "T": [], "h": [2, -1]}


def test_crn_without_conservation_laws(tmp_path, capsys):
    # 0 -> X -> 0 at rates t^2 and t^-1: x = k1/k2 = t^3, so v = 3
    path = write(tmp_path, "open.json", OPEN_NETWORK)
    assert main(["crn", path, "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified_bound"] == 1
    assert [p["v"] for p in doc["tropical"]["points"]] == [["3"]]
    assert main(["verify", path, "--json", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["certified_bound"] == 1 and len(doc["witnesses"]) == 1
    [[x]] = [w["x"] for w in doc["witnesses"]]
    assert x == pytest.approx(0.01**3)


def test_crn_without_conservation_laws_takes_no_totals(tmp_path, capsys):
    path = write(tmp_path, "open.json", {**OPEN_NETWORK, "T": [1]})
    assert main(["crn", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: one total per conservation row required\n"


# (command, document or None for a missing file, the error line after
# "error: "; {path} is the input file); the missing file's line goes on
# with the operating system's reason
INPUT_REFUSALS = {
    "missing file": ("bound", None, "cannot read {path}: "),
    "top-level list": ("bound", [1, 2], "{path}: top-level object with a 'kind' field required"),
    "no kind": ("bound", {"C": [[1]]}, "{path}: top-level object with a 'kind' field required"),
    "no matrix": ("circuits", {"kind": "matrix"}, "matrix: expected a non-empty list of rows"),
    "no rows": (
        "circuits",
        {"kind": "matrix", "matrix": []},
        "matrix: expected a non-empty list of rows",
    ),
    "rows not lists": (
        "circuits",
        {"kind": "matrix", "matrix": [1, 2]},
        "matrix: expected a non-empty list of rows",
    ),
    "h not a list": (
        "bound",
        {"kind": "vertical_system", "C": [[1, -1]], "A": [[1, 0]], "h": "0"},
        "h: expected a list",
    ),
    "B wider than N": (
        "crn",
        {**OPEN_NETWORK, "B": [[1, 0, 0]]},
        "{path}: reactant matrix shape must match the stoichiometric matrix",
    ),
    "W with a column per reaction": (
        "crn",
        {**OPEN_NETWORK, "W": [[1, 1]], "T": [1]},
        "{path}: conservation matrix must have one column per species",
    ),
    "one h for two reactions": (
        "crn",
        {**OPEN_NETWORK, "h": [0]},
        "{path}: one rate exponent per reaction required",
    ),
}


@pytest.mark.parametrize("case", INPUT_REFUSALS)
def test_input_refusals_exit_one(tmp_path, capsys, case):
    command, doc, message = INPUT_REFUSALS[case]
    path = str(tmp_path / "missing.json") if doc is None else write(tmp_path, "in.json", doc)
    assert main([command, path, "--json", "-"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    [line] = captured.err.splitlines()
    want = "error: " + message.format(path=path)
    assert line.startswith(want) if doc is None else line == want


# sha256 of the `--json -` document of each command on the shipped inputs;
# None marks a command that refuses the input (exit 1, nothing on stdout).
# A command may carry flags after its name; `--cross-check` only adds a
# comparison, so its documents are the plain ones.
# `verify` is left out: its floats depend on numpy.
CLI_GOLDEN = {
    ("running_2x5", "circuits"): "99fc90d96328c4aedd84bc2a573361732049f2bcd4f7e6857819d777927fe4a9",
    ("running_2x5", "flats"): "72cf150057bcda572dfef79b4f5ebbedde26a2e7d0e944934e88618f4ee36c5c",
    ("running_2x5", "bergman"): "2e787ccb61cdd845efd6a46ec83eec5cff52f0ce38de5068a15685b61d552023",
    ("running_2x5", "positive-bergman"): "46f8f838e080e90aa2ac6e97f331a6ef9f3beba1c217b7de2959209ce23cea0d",
    ("running_2x5", "intersect"): "6f591e6c541aa9db37a395f70ef9a05dc84ac13dd55584d51c04bbe062e85297",
    ("running_2x5", "subdivision"): "216d6d4b72e23009d794b1ffa19bcb69cb1913dd3e65696851c33f76a696f643",
    ("running_2x5", "decorated"): "de1527bf08a6696210ee8300bd0728dc513fab3ad97e077addbd5e71d8079dc5",
    ("running_2x5", "bound"): "e71040efe76520a4873a1ffd280df21801b68198ee3ec08a216cdb0941f4d975",
    ("running_2x5", "crn"): None,
    ("hhk_crn", "circuits"): "e55bd713ac6ead06af3438c09eaaea122ed774f66b58dd16aa8963693dcb9a3f",
    ("hhk_crn", "flats"): "4aa678fa46870288f1b218f4c49d423a27aa82886283d0d6ed0143faf7ab4dae",
    ("hhk_crn", "bergman"): "220f8809fcc0ad9bdb9e4f776be3dc512364ece5af2e90143511de8d10e3bbaf",
    ("hhk_crn", "positive-bergman"): "4963e541d8e94aa55293c6df46f6b4d974a6eb958d969482a25fb5941701f39d",
    ("hhk_crn", "intersect"): "0b2bc0b7b703a080c08b21938b3ba40a8113a8846e3276a9548f6268dcb8955e",
    ("hhk_crn", "subdivision"): None,
    ("hhk_crn", "decorated"): None,
    ("hhk_crn", "bound"): "457e6c98915f84aa984a5a943abeee9236b2907a51024332f79ff4ec676544a5",
    ("hhk_crn", "crn"): "457e6c98915f84aa984a5a943abeee9236b2907a51024332f79ff4ec676544a5",
    ("running_2x5", "intersect --cross-check"): "6f591e6c541aa9db37a395f70ef9a05dc84ac13dd55584d51c04bbe062e85297",
    ("running_2x5", "bound --cross-check"): "e71040efe76520a4873a1ffd280df21801b68198ee3ec08a216cdb0941f4d975",
    ("hhk_crn", "intersect --cross-check"): "0b2bc0b7b703a080c08b21938b3ba40a8113a8846e3276a9548f6268dcb8955e",
    ("hhk_crn", "bound --cross-check"): "457e6c98915f84aa984a5a943abeee9236b2907a51024332f79ff4ec676544a5",
    ("hhk_crn", "crn --cross-check"): "457e6c98915f84aa984a5a943abeee9236b2907a51024332f79ff4ec676544a5",
}


@pytest.mark.parametrize(
    "name, command, to_file",
    [(n, c, to_file) for to_file in (False, True) for n, c in CLI_GOLDEN],
    ids=[
        f"{n}-{c}".replace(" --", "-") + ("-to-file" if to_file else "")
        for to_file in (False, True)
        for n, c in CLI_GOLDEN
    ],
)
def test_shipped_documents_golden(tmp_path, capsys, name, command, to_file):
    # the same digests pin `--json -` and `--json PATH`
    expected = CLI_GOLDEN[name, command]
    command, *flags = command.split()
    path = tmp_path / "doc.json"
    target = str(path) if to_file else "-"
    code = main([command, str(INPUTS / f"{name}.json"), *flags, "--json", target])
    out = capsys.readouterr().out
    if expected is None:
        assert code == 1 and out == ""
        assert not path.exists()
        return
    assert code == 0
    if to_file:
        assert out.endswith(f"machine-readable report written to {path}\n")
        out = path.read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == expected


EMPTY = hashlib.sha256(b"").hexdigest()

# sha256 of the stdout and of the stderr of each command without --json on
# the shipped inputs; flags name other shipped inputs by their stem.
# `verify` is left out: its floats depend on numpy.
HUMAN_GOLDEN = {
    ("running_2x5", "circuits"): ("70a360543541101d1a118448d129cd62ff327eba56099392c908d6a0aff2ccf8", EMPTY),
    ("running_2x5", "flats"): ("afe1e7e3a4789dc55068fa30496661462d168f72cb85d9e97f60202ba75eb6ed", EMPTY),
    ("running_2x5", "bergman"): ("80f82f7858f62284c265125361422868e0df04c250637a398b2e6a438b4bf847", EMPTY),
    ("running_2x5", "positive-bergman"): ("0c41c1e94e67dafe0e13e7e363d3556331cd0251c75ddfbc1fae934c2390d674", EMPTY),
    ("running_2x5", "intersect"): ("6bffd3e63d5b5812bc5baf775d25e48108a9426a1d84c002783797c511765a21", EMPTY),
    ("running_2x5", "subdivision"): ("d0e905fe9120470eb813c2ba64aef23a240a8325c04f4b7fb8ac01b7c3feb7af", EMPTY),
    ("running_2x5", "decorated"): ("326f6377b0e555d421979f07a5643f52f38533bb3517c93bf38e2805808dc5ba", EMPTY),
    ("running_2x5", "bound"): ("f6740351e03bfb26594d81a3d344914a0f6d202c8121f87cf1e3e8fafb2276e3", EMPTY),
    ("running_2x5", "crn"): (EMPTY, "f4d1e281fedd318f0a317280bb87aa27d2268ef30bb449e8781ef20b38836b00"),
    ("hhk_crn", "circuits"): ("5c31aa369bc2be35926b1b25d9160d58a8aeee4fa8c92699e8703c5666f29bbd", EMPTY),
    ("hhk_crn", "flats"): ("9ab90f0f56b50e6dfdc4151acaab31cfb1d5bb864a5a80e67174a8fa3b23d981", EMPTY),
    ("hhk_crn", "bergman"): ("5f1f237b0698d90aeac30a6ba2118f0050a7c84e940b5ea20f6de1978e6890b6", EMPTY),
    ("hhk_crn", "positive-bergman"): ("c7e6e1d3154ebbd434d942db8bf8656aad76cdefa1b53ed9776f5757af3254ab", EMPTY),
    ("hhk_crn", "intersect"): ("56eb77b2b12e551343d0eb33759171e8a984e41ed757caa8ff8278b28e6e7555", EMPTY),
    ("hhk_crn", "subdivision"): (EMPTY, "2478e67cc4efbadce772f54530c8b31ab4625501adb6d0283265d3f101cb0f3b"),
    ("hhk_crn", "decorated"): (EMPTY, "2478e67cc4efbadce772f54530c8b31ab4625501adb6d0283265d3f101cb0f3b"),
    ("hhk_crn", "bound"): ("2ffa12785be9ec0ef0ed02fdd989be4747c3ad6f822f92f0589ee01010d4032c", EMPTY),
    ("hhk_crn", "crn"): ("2ffa12785be9ec0ef0ed02fdd989be4747c3ad6f822f92f0589ee01010d4032c", EMPTY),
    ("running_2x5", "positive-bergman --coarse-compare coarse_fan_2x5"): ("4b8f679b3c99095b85445709b53935043123da8d2812992c2fe2c2e1a70d44be", EMPTY),
    ("running_2x5", "bound --cross-check"): ("f6740351e03bfb26594d81a3d344914a0f6d202c8121f87cf1e3e8fafb2276e3", EMPTY),
}


@pytest.mark.parametrize(
    "name, command",
    list(HUMAN_GOLDEN),
    ids=[f"{n}-{' '.join(c.split()[:2])}".replace(" --", "-") for n, c in HUMAN_GOLDEN],
)
def test_shipped_human_output_golden(capsys, name, command):
    expected = HUMAN_GOLDEN[name, command]
    command, *flags = command.split()
    flags = [f if f.startswith("--") else str(INPUTS / f"{f}.json") for f in flags]
    main([command, str(INPUTS / f"{name}.json"), *flags])
    out, err = capsys.readouterr()
    digest = lambda text: hashlib.sha256(text.encode()).hexdigest()  # noqa: E731
    assert (digest(out), digest(err)) == expected


def test_unwritable_json_path_prints_no_report(tmp_path, capsys):
    # a directory, and the empty path, which is not "no --json"
    for path in (str(tmp_path), ""):
        code = main(["bound", str(INPUTS / "running_2x5.json"), "--json", path])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "Traceback" not in err


USAGE_ERRORS = {
    "unknown-flag": ["bound", str(INPUTS / "running_2x5.json"), "--bogus"],
    "unknown-command": ["bogus", str(INPUTS / "running_2x5.json")],
    "malformed-t": ["verify", str(INPUTS / "running_2x5.json"), "--t", "x"],
    "malformed-seed": ["verify", str(INPUTS / "running_2x5.json"), "--seed", "1.5"],
    "missing-input": ["bound"],
}


@pytest.mark.parametrize("argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS))
def test_usage_error_exit_one(capsys, argv):
    # exit 2 means "computed but not certified", so argparse may not use it
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tropibound")


# --- the JSON writer ------------------------------------------------------------


class Lazy(list):
    """An array whose text write_json is handed as an iterator."""


def as_written(doc, texts: list[str]):
    """The document write_json is handed: each Lazy becomes an iterator
    over its items' compact JSON, whose joined text is appended to
    ``texts``, and a placeholder string ``lazy_placeholder(i)`` stands
    for it in the second value returned, the document json.dumps renders
    for reference."""
    if isinstance(doc, Lazy):
        pieces = [json.dumps(as_reference(x)) for x in doc]
        texts.append("".join(pieces))
        return iter(pieces), lazy_placeholder(len(texts) - 1)
    if isinstance(doc, dict):
        pairs = {k: as_written(v, texts) for k, v in doc.items()}
        return {k: w for k, (w, _) in pairs.items()}, {k: r for k, (_, r) in pairs.items()}
    if isinstance(doc, (list, tuple)):
        pairs = [as_written(x, texts) for x in doc]
        return type(doc)(w for w, _ in pairs), type(doc)(r for _, r in pairs)
    return doc, doc


def lazy_placeholder(i: int) -> str:
    return f"\x01lazy {i}\x01"


def as_reference(doc):
    if isinstance(doc, dict):
        return {k: as_reference(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        kind = list if isinstance(doc, Lazy) else type(doc)
        return kind(as_reference(x) for x in doc)
    return doc


def written(doc) -> str:
    stream = io.StringIO()
    write_json(doc, stream)
    return stream.getvalue()


def spliced(reference, texts: list[str]) -> str:
    """json.dumps of the reference, each placeholder replaced by the text
    its iterator yields."""
    expected = json.dumps(reference, indent=2, sort_keys=True) + "\n"
    for i, text in enumerate(texts):
        expected = expected.replace(json.dumps(lazy_placeholder(i)), text)
    return expected


JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**300), 2**300),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
    st.text(),
    st.text(st.characters(max_codepoint=0x7F)),
)
JSON_DOCS = st.recursive(
    JSON_SCALARS
    | st.lists(st.integers(-5, 5), max_size=4).map(tuple)
    | st.lists(st.sampled_from(["a", "é", "\n"]), max_size=3).map(tuple)
    | st.sampled_from([(1, 2), (True, 2), (1.0, 2), (1, True), ("1", "2")]),
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4).map(Lazy),
        st.dictionaries(st.text(max_size=4), kids, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(JSON_DOCS)
def test_write_json_matches_json_dumps(doc):
    # with no iterator in it, the document is json.dumps's text
    plain = as_reference(doc)
    assert written(plain) == json.dumps(plain, indent=2, sort_keys=True) + "\n"
    # each iterator's text goes in verbatim where the array would be, at
    # any depth; the same values again in one document, at other depths
    for value in (doc, [doc, {"again": [doc]}]):
        texts: list[str] = []
        handed, reference = as_written(value, texts)
        assert written(handed) == spliced(reference, texts)


def test_write_json_streams_an_iterator_in_batches():
    class Writes(io.StringIO):
        count = 0

        def write(self, text):
            self.count += 1
            return super().write(text)

    stream = Writes()
    batches = [f"<batch {i}>" for i in range(10)]
    write_json({"a": 1, "cones": iter(batches), "z": [2]}, stream)
    expected = json.dumps({"a": 1, "cones": "P", "z": [2]}, indent=2, sort_keys=True) + "\n"
    assert stream.getvalue() == expected.replace('"P"', "".join(batches))
    # one write per batch, besides the text around the iterator
    assert stream.count >= len(batches) + 2


@pytest.mark.parametrize(
    "doc",
    [{"x": Fraction(1, 2)}, [Fraction(1)], {1: "a"}, {"a": 1, None: 2}, {(1,): 2}, {1, 2}],
    ids=["fraction-value", "fraction-item", "int-key", "none-key", "tuple-key", "set"],
)
def test_write_json_refuses_what_json_cannot_key_or_encode(doc):
    if doc == {1: "a"}:
        # json.dumps writes an int key as its str, and so does write_json
        assert written(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n" == '{\n  "1": "a"\n}\n'
        return
    with pytest.raises(TypeError):
        write_json(doc, io.StringIO())


@pytest.mark.parametrize(
    "doc",
    [
        {"a": cli._MARKER},
        {"a": cli._MARKER, "b": Lazy([1])},
        {cli._MARKER: 1, "b": Lazy()},
    ],
    ids=["value", "value-beside-iterator", "key"],
)
def test_write_json_refuses_a_string_that_reads_as_the_marker(doc):
    stream = io.StringIO()
    with pytest.raises(RuntimeError, match="marker"):
        write_json(as_written(doc, [])[0], stream)
    assert stream.getvalue() == ""


@pytest.mark.parametrize("depth", [0, 3])
def test_write_json_writes_rendered_items_verbatim(depth):
    # the text need not be JSON for the writer to hand it on unchanged,
    # and nothing in it is re-indented
    texts = ["<first>", "<second,\n    line>", ""]

    def at_depth(x):
        return x if depth == 0 else {"a": {"b": [x]}}

    expected = json.dumps(at_depth("P"), indent=2, sort_keys=True) + "\n"
    assert written(at_depth(iter(texts))) == expected.replace('"P"', "".join(texts))


def test_write_json_writes_an_empty_iterator_as_no_text():
    assert written(iter(())) == "\n"
    assert written({"a": iter(()), "b": [iter(())]}) == '{\n  "a": ,\n  "b": [\n    \n  ]\n}\n'


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux /proc")
@pytest.mark.parametrize("command", ["bergman", "positive-bergman"])
def test_fan_documents_stream_in_small_memory(command):
    # A fresh process reports the peak of its own address space, VmHWM.
    # Its ru_maxrss would not do: Linux carries the peak of the process
    # that forked it, here this test run, across exec.
    script = (
        "import sys\n"
        "from tropibound.cli import main\n"
        f"code = main([{command!r}, {str(INPUTS / 'hhk_crn.json')!r}, '--json', '-'])\n"
        "peak = [line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')]\n"
        "print(code, *peak, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(INPUTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    code, peak_kb = map(int, done.stderr.split()[-2:])
    assert code == 0
    assert peak_kb < 60 * 1024


def test_only_verify_imports_numpy():
    # numpy serves the Newton witnesses alone, so a fresh process loads it
    # at the first `verify`, not at import or for any other command
    others = [c for c in cli.COMMANDS if c != "verify"]
    script = (
        "import sys\n"
        "from tropibound.cli import main\n"
        "print('numpy' in sys.modules, file=sys.stderr)\n"
        f"for command in {others!r}:\n"
        f"    main([command, {str(INPUTS / 'running_2x5.json')!r}, '--json', '-'])\n"
        "    print(command, 'numpy' in sys.modules, file=sys.stderr)\n"
        f"code = main(['verify', {str(INPUTS / 'running_2x5.json')!r}, '--json', '-'])\n"
        "print('verify', code, 'numpy' in sys.modules, file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(INPUTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    lines = [line for line in done.stderr.splitlines() if not line.startswith("error:")]
    assert lines == ["False", *(f"{c} False" for c in others), "verify 0 True"]


def test_verify_document_same_in_a_fresh_process(capsys):
    # the fresh process imports numpy inside `verify`; the witnesses it
    # prints are the bytes this process prints with numpy loaded long before
    argv = ["verify", str(INPUTS / "running_2x5.json"), "--seed", "978", "--json", "-"]
    env = {**os.environ, "PYTHONPATH": str(INPUTS.parent / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "tropibound.cli", *argv],
        capture_output=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert main(argv) == 0
    assert done.stdout == capsys.readouterr().out.encode()


def reference_fan_text(M, command: str, chains) -> str:
    """The fan document of M over chains, built as dicts and rendered by json."""
    positive = command == "positive-bergman"
    cones = []
    for chain in chains:
        sample = sample_relative_interior(chain, M.ground_size)
        cone = {"flats": [f.elements for f in chain], "sample": [str(x) for x in sample]}
        if positive:
            cone["dimension"] = len(chain) + 1
        cones.append(cone)
    doc = {"kind": "fan", "ground_size": M.ground_size, "cones": cones}
    if positive:
        doc.update(kind="positive_fan", free_matroid=not M.circuits)
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_fan_documents_match(M):
    # the handlers walk the covers of the flat lattice; the reference
    # chains come from scanning every flat of the next rank, and the fine
    # and positive ones from sampling each chain's relative interior
    r = M.ground_size
    chains = reference_full_chains(all_flats(M), M.rank)
    fine = [c for c in chains if is_member(sample_relative_interior(c, r), M)]
    positive = [c for c in fine if is_positive_member(sample_relative_interior(c, r), M)]
    expected_lines = {
        "bergman": f"fine fan: {len(fine)} maximal cones",
        "positive-bergman": f"positive fan: {len(positive)} of {len(fine)} maximal cones",
    }
    for command, chains in (("bergman", fine), ("positive-bergman", positive)):
        _, handler, _ = cli.COMMANDS[command]
        doc, lines, _ = handler(M, argparse.Namespace(coarse_compare=None))
        assert written(doc) == reference_fan_text(M, command, chains), command
        assert lines == [expected_lines[command]]


@pytest.mark.parametrize(
    "M",
    [
        OrientedMatroid(3, []),
        realize_from_kernel(RationalMatrix.from_rows([[1, 1]])),
        realize_from_kernel(RationalMatrix.from_rows([[1, -1]])),
        realize_from_kernel(RationalMatrix.from_rows([[-3, 1, -1, -2, 2], [-1, 1, -1, -1, 1]])),
    ],
    ids=["free", "one-signed-circuit", "rank-1", "running"],
)
def test_fan_documents_match_dict_rendering(M):
    assert_fan_documents_match(M)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 3).flatmap(
        lambda rows: st.integers(rows + 1, 6).flatmap(
            lambda cols: st.lists(
                st.lists(st.integers(-2, 2), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    ),
)
def test_fan_documents_match_dict_rendering_random(rows):
    C = RationalMatrix.from_rows(rows)
    assume(not C.is_zero())
    assert_fan_documents_match(realize_from_kernel(C))


def seeded_kernel_matroid(rng, rows: int, cols: int) -> OrientedMatroid:
    while True:
        C = RationalMatrix.from_rows(
            [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        )
        if not C.is_zero():
            return realize_from_kernel(C)


def seeded_fan_cases():
    rng = random.Random(3011)
    cases = {
        "rank-0-loops": OrientedMatroid(2, [SignedCircuit((1,), ()), SignedCircuit((2,), ())]),
        "rank-1": realize_from_kernel(RationalMatrix.from_rows([[1, -1]])),
        "one-signed-circuit": realize_from_kernel(RationalMatrix.from_rows([[1, 1]])),
    }
    # ground sizes 9 and 10 put the sample past 64 bits
    for rows, cols in ((1, 4), (2, 5), (3, 6), (5, 9), (7, 10)):
        cases[f"random-{rows}x{cols}"] = seeded_kernel_matroid(rng, rows, cols)
    return cases


SEEDED_FANS = seeded_fan_cases()


@pytest.mark.parametrize("M", SEEDED_FANS.values(), ids=SEEDED_FANS)
def test_fan_documents_load_as_the_library_fans(M):
    # the documents read back as the cones of maximal_flags and
    # positive_fan, each with the reference sample of its chain
    r = M.ground_size
    for command, chains in (("bergman", maximal_flags(M)), ("positive-bergman", positive_fan(M))):
        _, handler, _ = cli.COMMANDS[command]
        doc, _, _ = handler(M, argparse.Namespace(coarse_compare=None))
        expected = []
        for chain in chains:
            sample = sample_relative_interior(chain, r)
            cone = {"flats": [list(f.elements) for f in chain], "sample": [str(x) for x in sample]}
            if command == "positive-bergman":
                cone["dimension"] = len(chain) + 1
            expected.append(cone)
        assert json.loads(written(doc))["cones"] == expected, command


def test_seeded_fan_cases_reach_the_edge_cases():
    ranks = [M.rank for M in SEEDED_FANS.values()]
    assert min(ranks) == 0 and 1 in ranks and max(ranks) >= 3
    assert max(M.ground_size for M in SEEDED_FANS.values()) >= 9
    one_signed = SEEDED_FANS["one-signed-circuit"]
    assert one_signed.circuits and not positive_fan(one_signed)
    # loops leave no cone at all, not the empty chain of rank 0
    assert not maximal_flags(SEEDED_FANS["rank-0-loops"])


def test_loop_leaves_the_fine_fan_empty(tmp_path, capsys):
    # element 1 is a loop of ker C: its circuit {1} never attains its
    # minimum twice, so no weight lies in the fan, whose 6 maximal flags
    # of flats are not cones of it
    path = write(tmp_path, "loop.json", {"kind": "matrix", "matrix": [[1, 0, 0, 0]]})
    M = realize_from_kernel(RationalMatrix.from_rows([[1, 0, 0, 0]]))
    flags = reference_full_chains(all_flats(M), M.rank)
    assert len(flags) == 6
    assert not any(is_member(sample_relative_interior(c, 4), M) for c in flags)
    assert maximal_flags(M) == () and maximal_flag_count(M) == 0
    for command, line in (
        ("bergman", "fine fan: 0 maximal cones"),
        ("positive-bergman", "positive fan: 0 of 0 maximal cones"),
    ):
        assert main([command, path]) == 0
        assert capsys.readouterr() == (line + "\n", "")
        assert main([command, path, "--json", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["cones"] == []


def test_hhk_fan_reaches_write_json_in_batches():
    M = realize_from_kernel(assemble_crn(parse_input(str(INPUTS / "hhk_crn.json"))).C)
    doc, _, _ = cli._bergman(M, argparse.Namespace(coarse_compare=None))
    texts = list(doc["cones"])
    # the batches, then the closing bracket
    assert len(texts) - 1 == -(-29484 // cli._BATCH) == 8
    assert texts[0].startswith("[\n    {\n") and texts[-1] == "\n  ]"
    assert all(t.startswith(",\n    {\n") for t in texts[1:-1])
    # each cone holds one "flats" key
    sizes = [t.count('"flats": ') for t in texts[:-1]]
    assert sizes == [cli._BATCH] * 7 + [29484 - 7 * cli._BATCH]


@pytest.mark.parametrize(
    "command, walks, line",
    [
        ("bergman", 1, "fine fan: 29484 maximal cones"),
        ("positive-bergman", 2, "positive fan: 8064 of 29484 maximal cones"),
    ],
)
def test_fan_commands_walk_the_covers_once_per_flat_set(
    monkeypatch, capsys, tmp_path, command, walks, line
):
    # the chain count reads the levels the cones walk; only the fine
    # count of positive-bergman walks the covers of all flats again
    calls = []
    covers = matroid._covers

    def counted(*args):
        calls.append(args)
        return covers(*args)

    monkeypatch.setattr(cli, "_covers", counted)
    monkeypatch.setattr(matroid, "_covers", counted)
    path = tmp_path / "fan.json"
    assert main([command, str(INPUTS / "hhk_crn.json"), "--json", str(path)]) == 0
    assert capsys.readouterr().out == f"{line}\nmachine-readable report written to {path}\n"
    assert len(calls) == walks


def test_fan_commands_refuse_rank_above_byte_lanes(monkeypatch, capsys):
    # a free matroid of rank 257 has a chain of 256 flats, one more than
    # a byte lane counts; it is refused before any flat is listed
    def unlisted(M):
        raise AssertionError("flats listed")

    monkeypatch.setattr(cli, "_fine_flats", unlisted)
    monkeypatch.setattr(cli, "_positive_flats", unlisted)
    monkeypatch.setattr(cli, "realize_from_kernel", lambda C: OrientedMatroid(257, []))
    for command in ("bergman", "positive-bergman"):
        assert main([command, str(INPUTS / "running_2x5.json"), "--json", "-"]) == 1
        refusal = "error: fan documents need rank at most 256, got rank 257\n"
        assert capsys.readouterr() == ("", refusal)
    assert len(cli._fan_levels(OrientedMatroid(256, []), lambda M: [])) == 256


@pytest.mark.parametrize(
    "command, doc",
    [
        ("bound", {"kind": "vertical_system", "C": [[1, -1, 1]], "A": [[0, "1/2", 2]], "h": [0, 0, 0]}),
        (
            "crn",
            {
                "kind": "crn",
                "N": [[1, -1]],
                "B": [["3/2", 1]],
                "W": [[0]],
                "T": [1],
                "h": [0, 0],
            },
        ),
    ],
    ids=["vertical_system-A", "crn-B"],
)
def test_non_integer_exponents_exit_one(tmp_path, capsys, command, doc):
    code = main([command, write(tmp_path, "fractional.json", doc)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "integer" in err and "Traceback" not in err


# the flags each command takes besides --json, and a value for each flag
TAKES = {
    "circuits": (),
    "flats": (),
    "bergman": ("--coarse-compare",),
    "positive-bergman": ("--coarse-compare",),
    "intersect": ("--cross-check",),
    "subdivision": (),
    "decorated": (),
    "bound": ("--cross-check",),
    "crn": ("--cross-check",),
    "verify": ("--t", "--seed"),
}
FLAG_ARGS = {
    "--coarse-compare": ["--coarse-compare", "x"],
    "--cross-check": ["--cross-check"],
    "--t": ["--t", "0.01"],
    "--seed": ["--seed", "0"],
}
REFUSED = [(c, f) for c, takes in TAKES.items() for f in FLAG_ARGS if f not in takes]


@pytest.mark.parametrize("command, flag", REFUSED, ids=[f"{c}{f}" for c, f in REFUSED])
def test_flag_of_another_command_refused(monkeypatch, capsys, command, flag):
    # refused before the input is read, even at the flag's default value
    import tropibound.cli as cli

    def unread(path):
        raise AssertionError("input read")

    monkeypatch.setattr(cli, "parse_input", unread)
    argv = [command, str(INPUTS / "running_2x5.json"), *FLAG_ARGS[flag], "--json", "-"]
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err == f"error: command '{command}' does not take {flag}" + (
        f" (it takes {', '.join((*TAKES[command], '--json'))})\n"
    )


def test_flags_of_the_command_accepted(monkeypatch, capsys):
    import tropibound.cli as cli

    def stop(path):
        raise CliInputError("input reached")

    monkeypatch.setattr(cli, "parse_input", stop)
    for command, takes in TAKES.items():
        argv = [command, "in.json", *(a for f in takes for a in FLAG_ARGS[f]), "--json", "-"]
        assert main(argv) == 1
        assert capsys.readouterr() == ("", "error: input reached\n")


DOCS = Path(__file__).resolve().parents[1] / "docs" / "formats.md"


def documented_commands() -> dict:
    """command -> (input kinds, flags, kinds of the --coarse-compare
    document), read off the command table of docs/formats.md."""
    section = DOCS.read_text().split("## Commands and their flags")[1].split("\n## ")[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) != 3 or not cells[0].strip().startswith("`"):
            continue
        commands, kinds, flags = (re.findall(r"`([^`]*)`", cell) for cell in cells)
        takes = tuple(f.split()[0] for f in flags if f.startswith("--"))
        coarse = tuple(f for f in flags if not f.startswith("--"))
        for command in commands:
            table[command] = (kinds, takes, coarse)
    return table


def test_documented_commands_match_the_cli(tmp_path, monkeypatch, capsys):
    # each flag and input kind the docs list for a command is taken; every
    # other one exits 1 with one error line, and a refused kind is named
    # by document kinds alone
    table = documented_commands()
    assert sorted(table) == sorted(cli.COMMANDS)
    assert {f for _, takes, _ in table.values() for f in takes} == set(FLAG_ARGS)
    running = json.loads((INPUTS / "running_2x5.json").read_text())
    inputs = {
        "matrix": write(tmp_path, "matrix.json", {"kind": "matrix", "matrix": running["C"]}),
        "vertical_system": str(INPUTS / "running_2x5.json"),
        "crn": str(INPUTS / "hhk_crn.json"),
        "coarse_fan": str(INPUTS / "coarse_fan_2x5.json"),
    }

    def refused(err, user, kinds, got):
        match = re.fullmatch(r"error: (.+) needs a (.+) document, got a (\w+) document\n", err)
        assert match and match[1] == user and match[3] == got, err
        assert set(match[2].split(" or ")) == set(kinds), err
        assert not re.search("RationalMatrix|VerticalSystem|CRNModel|dict", err)

    for command, (_, _, coarse) in table.items():
        for kind, path in inputs.items() if coarse else ():
            code = main([command, inputs["matrix"], "--coarse-compare", path])
            out, err = capsys.readouterr()
            if kind in coarse:
                assert (code, err) == (0, ""), (command, kind)
            else:
                assert code == 1 and out == "", (command, kind)
                refused(err, "--coarse-compare", coarse, kind)
    # the other checks need no report, so each handler returns an empty one
    for command, (kinds, takes, _) in table.items():
        taken, _, flags = cli.COMMANDS[command]
        monkeypatch.setitem(cli.COMMANDS, command, (taken, lambda obj, args: ({}, [], 0), flags))
        for kind, path in inputs.items():
            code = main([command, path])
            out, err = capsys.readouterr()
            if kind in kinds:
                assert (code, out, err) == (0, "", ""), (command, kind)
            else:
                assert code == 1 and out == "", (command, kind)
                refused(err, f"command '{command}'", kinds, kind)
        for flag, args in FLAG_ARGS.items():
            code = main([command, inputs[kinds[0]], *args])
            out, err = capsys.readouterr()
            if flag in takes:
                assert (code, out, err) == (0, "", ""), (command, flag)
            else:
                assert code == 1 and out == "", (command, flag)
                assert err.startswith(f"error: command '{command}' does not take {flag} "), err
