"""End-to-end command-line tests on the fixture documents."""

import json

import pytest

from hopforder import cli, groups, induction, order
from hopforder.cli import main

from conftest import fixture_path, i_over_3_document


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    report = json.loads(out)
    report.pop("timings", None)
    return report


def test_check_cubic(capsys):
    r = run_json(capsys, "check", fixture_path("cubic_eisenstein"))
    assert r["field_axioms_ok"] and r["rank_ok"] and r["j_bijective"]


def test_check_reports_bad_structure_constants(capsys, tmp_path):
    doc = json.loads(open(fixture_path("quadratic")).read())
    doc["field"]["structure_constants"][1][0] = ["1", "0"]  # z*1 != 1*z
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    r = run_json(capsys, "check", str(p))
    assert not r["field_axioms_ok"]
    assert "commutativity" in r["field_axioms_reason"]


def test_parse_error_exit_code(capsys, tmp_path):
    p = tmp_path / "trunc.json"
    p.write_text('{"ring":')
    code, out, err = run(capsys, "check", str(p))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_order_quadratic(capsys):
    r = run_json(capsys, "order", fixture_path("quadratic"))
    assert r["hnf_D"] == [["1", "1"], ["0", "2"]]
    assert r["content"] == "1"
    assert r["order_basis_in_hopf_coordinates"] == [["1", "-1/2"], ["0", "1/2"]]
    assert all(r["verify_order"].values())


def test_order_trivial(capsys):
    r = run_json(capsys, "order", fixture_path("trivial"))
    assert r["order_basis_in_hopf_coordinates"] == [["1"]]


def test_free_with_beta(capsys):
    r = run_json(
        capsys, "free", fixture_path("cubic_eisenstein_alt"), "--beta", "0,1,0"
    )
    assert r["free"] is True
    # unit determinant over Z_(3)
    assert int(r["det"]) % 3 != 0


@pytest.mark.parametrize("beta", ["1,,0", "1,0,"])
def test_free_rejects_empty_coordinates(capsys, beta):
    code, out, err = run(capsys, "free", fixture_path("quadratic"), "--beta", beta)
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_free_zero_beta(capsys):
    r = run_json(capsys, "free", fixture_path("quadratic"), "--beta", "0,0")
    assert r["free"] is False and r["det"] == "0"


def test_free_search(capsys):
    r = run_json(
        capsys, "free", fixture_path("quadratic"), "--search-bound", "1"
    )
    assert r["found"] and r["free"]
    assert all(abs(int(x)) <= 1 for x in r["beta"])


def test_free_search_miss_is_undecided(capsys, monkeypatch):
    monkeypatch.setattr(cli, "search_free_generator", lambda ob, bound: None)
    r = run_json(capsys, "free", fixture_path("quadratic"))
    assert r["found"] is False
    assert r["free"] is None


@pytest.mark.parametrize("bound", ["0", "-2"])
def test_free_search_bound_below_one_is_reported(capsys, bound):
    code, out, err = run(
        capsys, "free", fixture_path("quadratic"), f"--search-bound={bound}"
    )
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == {
        "type": "ValueError",
        "message": "bound must be >= 1",
    }


def test_induce_disjoint_pair(capsys):
    r = run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein_alt"),
        fixture_path("quadratic_i_local3"),
        "--gamma",
        "0,1,0",
        "--delta",
        "1,1",
    )
    assert r["kronecker_factorization_ok"]
    assert r["arithmetically_disjoint"]
    o = r["order_level"]
    assert not o["refused"] and o["tensor_order_ok"]
    assert o["generator"]["free"] and o["generator"]["kronecker_factorization_ok"]
    assert o["base_change"]["lattice_matches_product_basis"]
    assert o["base_change"]["gamma_free"]


def test_induce_refusal_when_not_disjoint(capsys):
    r = run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein"),
        fixture_path("quadratic_sqrtm3_local3"),
    )
    assert r["kronecker_factorization_ok"]
    assert not r["arithmetically_disjoint"]
    assert r["order_level"]["refused"]


def counted(monkeypatch, name):
    """Record the calls of induction.<name>, also where order or cli
    bound it."""
    calls = []
    real = getattr(induction, name)

    def wrapper(*args):
        calls.append(args)
        return real(*args)

    for module in (induction, order, cli):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, wrapper)
    return calls


def test_induce_computes_each_order_once(capsys, monkeypatch):
    orders = counted(monkeypatch, "associated_order")
    verdicts = counted(monkeypatch, "are_arithmetically_disjoint")
    run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein_alt"),
        fixture_path("quadratic_i_local3"),
        "--gamma=0,1,0",
        "--delta=1,1",
    )
    # left, right and induced orders, and the base-change order
    assert len(orders) == 4
    assert len(verdicts) == 1


def test_induce_proves_the_tensor_order_once(capsys, monkeypatch):
    comparisons = counted(monkeypatch, "lattice_equal")
    run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein_alt"),
        fixture_path("quadratic_i_local3"),
        "--gamma=0,1,0",
        "--delta=1,1",
    )
    # the tensor order, read by both verifiers, and the base-change order
    assert len(comparisons) == 2


def test_refused_induce_computes_no_order(capsys, monkeypatch):
    orders = counted(monkeypatch, "associated_order")
    r = run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein"),
        fixture_path("quadratic_sqrtm3_local3"),
    )
    assert r["order_level"]["refused"]
    assert orders == []


def test_induce_negative_coordinates_spaced_or_joined(capsys):
    pair = (fixture_path("cubic_eisenstein_alt"), fixture_path("quadratic_i_local3"))
    spaced = run_json(capsys, "induce", *pair, "--gamma", "-1,0,2", "--delta", "1,-1")
    joined = run_json(capsys, "induce", *pair, "--gamma=-1,0,2", "--delta=1,-1")
    abbreviated = run_json(capsys, "induce", *pair, "--gam", "-1,0,2", "--d", "1,-1")
    assert spaced == joined == abbreviated
    assert spaced["order_level"]["generator"]["gamma"] == ["-1", "0", "2"]


def test_induce_rejects_non_integral_basis(capsys, tmp_path):
    p = tmp_path / "i_over_3.json"
    p.write_text(json.dumps(i_over_3_document()))
    code, out, err = run(capsys, "induce", str(p), fixture_path("quadratic"))
    assert code == 1
    error = json.loads(err)["error"]
    assert error["type"] == "ValidationError" and "not integral" in error["message"]


def test_induce_trivial_right(capsys):
    r = run_json(
        capsys,
        "induce",
        fixture_path("cubic_eisenstein"),
        fixture_path("trivial"),
        "--ring",
        "zp:3",
    )
    assert r["kronecker_factorization_ok"]


def test_enum_s3(capsys):
    r = run_json(
        capsys, "enum", fixture_path("group_s3"), "--detect-induced"
    )
    types = [s["type"] for s in r["subgroups"]]
    assert types.count("C6") == 3 and types.count("S3") == 2
    c6 = [s for s in r["subgroups"] if s["type"] == "C6"]
    assert all(s["induced"] for s in c6)
    assert sorted(tuple(s["factors"]["Gprime"]) for s in c6) == [
        (0, 3),
        (0, 4),
        (0, 5),
    ]
    assert any(s["is_left_translations"] for s in r["subgroups"])
    assert any(s["is_right_translations"] for s in r["subgroups"])


def test_enum_c2(capsys):
    r = run_json(capsys, "enum", fixture_path("group_c2"))
    assert r["count"] == 1


def test_enum_degree_too_large(capsys, tmp_path):
    n = 16
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    p = tmp_path / "c13.json"
    p.write_text(json.dumps({"group": {"order": n, "cayley": cayley}}))
    code, out, err = run(capsys, "enum", str(p))
    assert code == 1
    assert json.loads(err)["error"]["type"] == "DegreeTooLargeError"


@pytest.mark.parametrize(
    "j, gprime, trivial",
    [([0], [0, 1, 2, 3, 4, 5], "N1"), ([0, 1, 2, 3, 4, 5], [0], "N2")],
    ids=["trivial_J", "trivial_Gprime"],
)
def test_enum_detects_through_a_trivial_factor(capsys, tmp_path, j, gprime, trivial):
    # G = 1 x| G or G x| 1: every structure is induced, with the trivial
    # factor on one point
    doc = json.loads(open(fixture_path("group_s3")).read())
    doc["group"].update(J=j, Gprime=gprime)
    p = tmp_path / "s3_trivial_factor.json"
    p.write_text(json.dumps(doc))
    r = run_json(capsys, "enum", str(p), "--detect-induced")
    assert r["count"] == 5
    other = "N2" if trivial == "N1" else "N1"
    for s in r["subgroups"]:
        assert s["induced"]
        assert s["factors"][trivial] == [[0]]
        assert s["factors"][f"{trivial}_type"] == "C1"
        assert s["factors"][f"{other}_type"] == s["type"]


def test_enum_computes_complements_and_actions_once(capsys, monkeypatch):
    complements, actions = [], []
    real_complements, real_actions = cli.complements_of, groups.translation_actions
    monkeypatch.setattr(
        cli, "complements_of", lambda g: complements.append(g) or real_complements(g)
    )
    monkeypatch.setattr(
        groups, "translation_actions", lambda g: actions.append(g) or real_actions(g)
    )
    r = run_json(capsys, "enum", fixture_path("group_s3"), "--detect-induced")
    assert r["count"] == 5 and len(complements) == 1
    # one per decomposition G = J x| G'_d: the document's and two others
    assert len(actions) == 3


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda g: g.update(J=[0, 1, 9]), "J has an index outside 0..5"),
        (lambda g: g.update(Gprime=[0, -3]), "Gprime has an index outside 0..5"),
        (lambda g: g["cayley"][2].__setitem__(3, "x"), "Cayley entries must be"),
    ],
)
def test_enum_reports_bad_group_indices(capsys, tmp_path, edit, message):
    doc = json.loads(open(fixture_path("group_s3")).read())
    edit(doc["group"])
    p = tmp_path / "bad_group.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "enum", str(p), "--detect-induced")
    assert code == 1 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "GroupValidationError"
    assert error["message"].startswith(message)


def test_reports_are_deterministic(capsys):
    a = run_json(capsys, "order", fixture_path("cubic_eisenstein"))
    b = run_json(capsys, "order", fixture_path("cubic_eisenstein"))
    assert a == b


def test_table_format_and_output_file(capsys, tmp_path):
    out_path = tmp_path / "report.txt"
    code, out, err = run(
        capsys,
        "order",
        fixture_path("quadratic"),
        "--format",
        "table",
        "--output",
        str(out_path),
    )
    assert code == 0
    text = out_path.read_text()
    assert "hnf_D" in text and "elapsed" in text


def test_ring_flag_overrides_document(capsys):
    r = run_json(
        capsys, "order", fixture_path("cubic_eisenstein"), "--ring", "zp:3"
    )
    assert r["input"]["ring"] == {"kind": "local", "prime": 3}
