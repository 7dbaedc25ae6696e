import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropibound.cli import CliInputError, main, parse_input, write_json
from tropibound.rational import RationalMatrix
from tropibound.systems import CRNModel, VerticalSystem

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
    path = write(tmp_path, "dec.json", {"kind": "matrix", "matrix": [[0.5]]})
    with pytest.raises(CliInputError):
        parse_input(path)


def test_parse_ragged_matrix(tmp_path):
    path = write(tmp_path, "ragged.json", {"kind": "matrix", "matrix": [[1, 2], [3]]})
    with pytest.raises(CliInputError, match="ragged"):
        parse_input(path)


def test_parse_unknown_kind(tmp_path):
    path = write(tmp_path, "odd.json", {"kind": "polygon"})
    with pytest.raises(CliInputError, match="unknown kind"):
        parse_input(path)


def test_parse_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(CliInputError, match="line"):
        parse_input(str(p))


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


def test_isolation_contradicting_fan_walk_exit_three(monkeypatch, capsys):
    # the fan walk met no positive-dimensional piece, so every point it
    # reports must be isolated
    import tropibound.intersection as mod

    monkeypatch.setattr(mod, "is_isolated", lambda v, OM, A, h: False)
    code = main(["intersect", str(INPUTS / "running_2x5.json")])
    assert code == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("internal error:") and "Traceback" not in captured.err
    assert captured.out == ""


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
    ],
)
def test_coarse_compare_refuses_bad_fan(tmp_path, capsys, field, value):
    doc = json.loads((INPUTS / "coarse_fan_2x5.json").read_text())
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
    ("running_2x5", "crn"): (EMPTY, "fa6c0d6a1a695555e24e31a18b26858e32f0133144c9a6a22526cfc962172ed2"),
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
    """An array that write_json is handed as a generator."""


def as_written(doc):
    if isinstance(doc, Lazy):
        return (as_written(x) for x in doc)
    if isinstance(doc, dict):
        return {k: as_written(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return type(doc)(as_written(x) for x in doc)
    return doc


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
    expected = json.dumps(as_reference(doc), indent=2, sort_keys=True) + "\n"
    assert written(as_written(doc)) == expected
    # the same tuple values again, at other depths, after the memo has them
    twice = [doc, {"again": [doc]}]
    assert written(as_written(twice)) == json.dumps(
        as_reference(twice), indent=2, sort_keys=True
    ) + "\n"


def test_write_json_streams_an_iterator_in_batches():
    class Writes(io.StringIO):
        count = 0

        def write(self, text):
            self.count += 1
            return super().write(text)

    stream = Writes()
    write_json({"cones": ({"n": i, "flats": [(1, 2), (i,)]} for i in range(10_000))}, stream)
    reference = {"cones": [{"n": i, "flats": [(1, 2), (i,)]} for i in range(10_000)]}
    assert stream.getvalue() == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert stream.count > 2


@pytest.mark.parametrize(
    "doc",
    [{"x": Fraction(1, 2)}, [Fraction(1)], {1: "a"}, {"a": 1, None: 2}, {(1,): 2}, {1, 2}],
    ids=["fraction-value", "fraction-item", "int-key", "none-key", "tuple-key", "set"],
)
def test_write_json_refuses_what_json_cannot_key_or_encode(doc):
    with pytest.raises(TypeError):
        write_json(doc, io.StringIO())


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
