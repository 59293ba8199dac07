"""Command-line interface: subcommands, exit statuses, and output formats."""

import hashlib
import json

import numpy as np
import pytest

from bicomplex import CHECK_IDS, Bicomplex, Submodule, TFunctional, TMatrix, TVector, _arrays, verifier
from bicomplex.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_calc_mul_idempotents(capsys):
    code, out, _ = run_cli(capsys, "calc", "0.5 0 0 0.5", "mul", "0.5 0 0 -0.5")
    assert code == 0
    assert out == "0 0 0 0\n"


def test_calc_add(capsys):
    code, out, _ = run_cli(capsys, "calc", "0.5 0 0 0.5", "add", "0.5 0 0 -0.5")
    assert code == 0
    assert out == "1 0 0 0\n"


def test_calc_inverse(capsys):
    code, out, _ = run_cli(capsys, "calc", "0 0 0 1", "inverse")
    assert code == 0
    assert out == "0 0 0 1\n"


def test_calc_inverse_of_singular_is_domain_error(capsys):
    code, out, err = run_cli(capsys, "calc", "0.5 0 0 0.5", "inverse")
    assert code == 1
    assert out == ""
    payload = json.loads(err)
    assert payload["error"] == "SingularElement"
    assert payload["vanishing_components"] == [2]


def test_calc_output_round_trips(capsys):
    literal = "0.1 -2.5e-07 3 -4.125"
    code, out, _ = run_cli(capsys, "calc", literal, "add", "0 0 0 0")
    assert code == 0
    assert Bicomplex.from_text(out.strip()) == Bicomplex.from_text(literal)


def test_decompose(capsys):
    code, out, _ = run_cli(capsys, "decompose", "0 0 0 1")
    assert code == 0
    payload = json.loads(out)
    assert payload["h1"] == [1.0, 0.0]
    assert payload["h2"] == [-1.0, 0.0]
    assert payload["is_singular"] is False
    assert payload["vanishing_components"] == []


def test_decompose_keeps_the_sign_of_a_zero_hat_part(capsys):
    code, out, _ = run_cli(capsys, "decompose", "1 -0 0 0")
    assert code == 0
    assert '"h1": [1.0, -0.0]' in out


def test_decompose_singular(capsys):
    code, out, _ = run_cli(capsys, "decompose", "0.5 0 0 0.5")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_singular"] is True
    assert payload["vanishing_components"] == [2]


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["calc", "1 0 0 0", "mul"],  # missing operand
        ["calc", "1 0 0 0", "inverse", "2 0 0 0"],  # inverse takes one scalar
        ["verify", "--all", "--frobnicate"],
        ["verify"],  # needs --all or --check
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    for command in (["calc", "1 0 0 0", "inverse"], ["decompose", "1 0 0 0"], ["solve", "m.json", "v.json"]):
        for tol in ("0", "-1", "nan"):
            with pytest.raises(SystemExit) as exc:
                main([*command, "--tol", tol])
            assert exc.value.code == 2 and "--tol: must be positive" in capsys.readouterr().err


def test_unknown_check_id_is_a_usage_error_naming_the_valid_ids(capsys, monkeypatch):
    monkeypatch.setattr(verifier, "run_check", lambda config: pytest.fail("a check ran"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--check", "no-such-check", "--trials", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "no-such-check" in err and all(check_id in err for check_id in CHECK_IDS)


def test_an_exception_escaping_a_check_exits_3(capsys, monkeypatch):
    def shape_bug(H):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(_arrays, "pair_singular_values", shape_bug)
    code, out, err = run_cli(capsys, "verify", "--check", "norm-sandwich", "--trials", "2")
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "InternalError" and payload["check_id"] == "norm-sandwich"
    assert payload["message"] == "ValueError: operands could not be broadcast together"
    code, _, err = run_cli(capsys, "verify", "--all", "--trials", "2")
    assert code == 3 and json.loads(err)["error"] == "InternalError"
    # bad settings are still usage errors, found before any check runs
    code, _, err = run_cli(capsys, "verify", "--check", "norm-sandwich", "--trials", "0")
    assert code == 2 and json.loads(err)["error"] == "ValueError"


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("scope", [["--all"], ["--check", "ubp"]], ids=["all", "check"])
def test_a_seed_outside_64_bits_is_a_usage_error(capsys, monkeypatch, seed, scope):
    monkeypatch.setattr(verifier, "_run", lambda check, cfg, rng: pytest.fail("a check ran"))
    code, out, err = run_cli(capsys, "verify", *scope, "--seed", seed, "--trials", "3")
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "ValueError", "message": f"seed must be in [0, 2**64), got {seed}"}


def test_malformed_literal_exits_2(capsys):
    code, _, err = run_cli(capsys, "calc", "1 2 3", "add", "0 0 0 0")
    assert code == 2
    assert json.loads(err)["error"] == "ValueError"


@pytest.fixture
def problem_files(tmp_path):
    T = TMatrix.scalar(2, Bicomplex.from_idempotent(2, 1))
    b = TVector.from_scalars([Bicomplex(1.0), Bicomplex(2.0)])
    matrix = tmp_path / "mat.json"
    vector = tmp_path / "vec.json"
    matrix.write_text(json.dumps(T.to_json()))
    vector.write_text(json.dumps(b.to_json()))
    return matrix, vector, T, b


def test_solve_json(capsys, problem_files):
    matrix, vector, T, b = problem_files
    code, out, _ = run_cli(capsys, "solve", str(matrix), str(vector))
    assert code == 0
    payload = json.loads(out)
    x = TVector.from_json(payload["solution"])
    assert (T.apply(x) - b).norm() <= 1e-12
    assert payload["residual"] <= 1e-12


def test_solve_json_reports_component_condition_numbers(capsys, tmp_path):
    rng = np.random.default_rng(3)
    T = TMatrix(rng.uniform(-1, 1, (3, 3, 4))) + TMatrix.scalar(3, 2.0)
    matrix = tmp_path / "mat.json"
    vector = tmp_path / "vec.json"
    matrix.write_text(json.dumps(T.to_json()))
    vector.write_text(json.dumps(TVector.basis(3, 0).to_json()))
    code, out, _ = run_cli(capsys, "solve", str(matrix), str(vector))
    assert code == 0
    sv1, sv2 = T.component_singular_values()
    assert json.loads(out)["condition"] == [sv1[0] / sv1[-1], sv2[0] / sv2[-1]]


def test_solve_csv_format(capsys, problem_files, tmp_path):
    matrix, vector, T, b = problem_files
    out_path = tmp_path / "sol.csv"
    code, _, _ = run_cli(capsys, "solve", str(matrix), str(vector), "--format", "csv", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    x = TVector.from_csv("\n".join(line for line in lines if not line.startswith("#")))
    assert (T.apply(x) - b).norm() <= 1e-12


def test_solve_accepts_csv_vectors(capsys, problem_files, tmp_path):
    matrix, _, T, b = problem_files
    vec_csv = tmp_path / "vec.csv"
    vec_csv.write_text(b.to_csv())
    code, out, _ = run_cli(capsys, "solve", str(matrix), str(vec_csv))
    assert code == 0
    assert json.loads(out)["residual"] <= 1e-12


def test_solve_singular_matrix_exits_1(capsys, tmp_path):
    T = TMatrix.scalar(2, Bicomplex(0.5, 0, 0, 0.5))
    matrix = tmp_path / "sing.json"
    vector = tmp_path / "vec.json"
    matrix.write_text(json.dumps(T.to_json()))
    vector.write_text(json.dumps(TVector.zero(2).to_json()))
    code, _, err = run_cli(capsys, "solve", str(matrix), str(vector))
    assert code == 1
    payload = json.loads(err)
    assert payload["error"] == "SingularOperator"
    assert payload["components"] == [2]


_ONE = [[1.0, 0.0, 0.0, 0.0]]
_FUNCTIONAL = {"n": 1, "coeffs": _ONE}
_MATRIX = {"m": 1, "n": 1, "entries": _ONE}


def _json(data):
    return ".json", json.dumps(data)


#: (command, input files as (suffix, text), index of the malformed file,
#: the dimension field that is not an integer or None).
_MALFORMED_INPUTS = [
    ("solve", [_json({"m": None, "n": 1, "entries": _ONE}), _json(_ONE)], 0, "m"),
    ("solve", [_json(_ONE), _json(_ONE)], 0, None),
    ("norm", [_json({"m": 1.9, "n": 1, "entries": _ONE})], 0, "m"),
    ("norm", [_json({"m": True, "n": 1, "entries": _ONE})], 0, "m"),
    ("extend", [_json({"n": 1, "generators": 5}), _json(_FUNCTIONAL)], 0, None),
    ("extend", [_json(_FUNCTIONAL), _json(_FUNCTIONAL)], 0, None),
    ("extend", [_json({"n": 2.7, "generators": [[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]]}), _json(_FUNCTIONAL)],
     0, "n"),
    ("extend", [_json({"n": 2, "generators": [_ONE]}), _json(_FUNCTIONAL)], 0, None),
    ("solve", [(".json", '{"m": 1,'), _json(_ONE)], 0, None),
    ("solve", [_json(_MATRIX), (".csv", "1,0,0,x\n")], 1, None),
    ("solve", [_json(_MATRIX), (".csv", "")], 1, None),
]


@pytest.mark.parametrize("command, files, bad, field", _MALFORMED_INPUTS,
                         ids=[f"{case[0]}-files{k}" for k, case in enumerate(_MALFORMED_INPUTS)])
def test_a_json_file_of_the_wrong_structure_exits_2_naming_it(capsys, tmp_path, command, files, bad, field):
    """A file whose text does not decode or parse, JSON or CSV, exits 2 with
    a ValueError that names that file and no other, and the field it gets wrong."""
    paths = [tmp_path / f"in{k}{suffix}" for k, (suffix, _) in enumerate(files)]
    for path, (_, text) in zip(paths, files):
        path.write_text(text)
    code, out, err = run_cli(capsys, command, *map(str, paths))
    payload = json.loads(err)
    assert (code, out, sorted(payload)) == (2, "", ["error", "message"])
    assert payload["error"] == "ValueError"
    assert [str(path) in payload["message"] for path in paths] == [k == bad for k in range(len(paths))]
    assert field is None or f"{field}: a dimension must be an integer, got" in payload["message"]


def test_matrix_dimensions_below_1_exit_2_naming_the_file_and_fields(capsys, tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"m": -1, "n": -1, "entries": _ONE}))  # m * n = 1 entry
    code, out, err = run_cli(capsys, "norm", str(path))
    message = json.loads(err)["message"]
    assert (code, out) == (2, "")
    assert str(path) in message and "m and n must be at least 1, got m=-1, n=-1" in message


def test_norm_report(capsys, problem_files):
    matrix, _, T, _ = problem_files
    code, out, _ = run_cli(capsys, "norm", str(matrix))
    assert code == 0
    payload = json.loads(out)
    report = T.norms()
    assert payload["sup_norm"] == report.sup_norm
    assert payload["idem_norm"] == report.idem_norm
    assert payload["s1"] == report.s1 and payload["s2"] == report.s2
    assert list(payload) == ["sup_norm", "idem_norm", "s1", "s2"]


def test_extend(capsys, tmp_path):
    sub = tmp_path / "sub.json"
    fun = tmp_path / "fun.json"
    sub.write_text(json.dumps(Submodule.span(TVector.basis(2, 0)).to_json()))
    fun.write_text(json.dumps(TFunctional.coordinate(2, 0).to_json()))
    code, out, _ = run_cli(capsys, "extend", str(sub), str(fun))
    assert code == 0
    payload = json.loads(out)
    assert payload["restriction_error"] <= 1e-12
    assert payload["y_component_norms"] == payload["x_component_norms"]
    with pytest.raises(SystemExit) as exc:
        main(["extend", str(sub), str(fun), "--tol", "1"])  # extension has no tolerance
    assert exc.value.code == 2


def test_verify_single_check(capsys):
    code, out, _ = run_cli(capsys, "verify", "--check", "ring-axioms", "--seed", "42", "--trials", "500")
    assert code == 0
    payload = json.loads(out)
    assert payload["check_id"] == "ring-axioms"
    assert payload["pass"] is True
    assert "elapsed" not in payload


def test_verify_all_small_trials(capsys):
    code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "42", "--trials", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 18
    for line in lines:
        assert json.loads(line)["pass"] is True


def test_verify_all_at_seed_42_is_pinned_bit_for_bit(capsys):
    # A change that alters these bits on purpose updates the digest and says
    # why in CHANGES.md.
    code, out, _ = run_cli(capsys, "verify", "--all", "--seed", "42")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9c510f550077675a516ae5982d33b3355f75b297fe5e75b24ea0e436d240fc49"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--seed", "1"), "5b7cf5481b289a42a6f4f9d0d4f61cc855c5c6b2d5b2862c91475d0b6d25cdeb"),
        (("--seed", "7", "--trials", "40"), "1de87455647873b9be57ba81122fe02080748bcb41bb13d5525fe799a36e8f4d"),
        (("--seed", "123", "--trials", "40"), "0efeba6800a0f25832229439d09070c3b80ff0c52d6803ebaa4adab1898a9d3d"),
    ],
    ids=["seed-1", "seed-7-trials-40", "seed-123-trials-40"],
)
def test_verify_all_at_more_seeds_and_trials_is_pinned_bit_for_bit(capsys, args, digest):
    code, out, _ = run_cli(capsys, "verify", "--all", *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "verify", "--all", "--seed", "9", "--trials", "5")
    _, second, _ = run_cli(capsys, "verify", "--all", "--seed", "9", "--trials", "5")
    assert first == second


def test_verify_out_file(capsys, tmp_path):
    out_path = tmp_path / "reports.jsonl"
    code, out, _ = run_cli(capsys, "verify", "--check", "submult", "--trials", "100", "--out", str(out_path))
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["check_id"] == "submult"
