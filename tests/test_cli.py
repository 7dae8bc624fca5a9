import json

import numpy as np
import pytest

from framesphere.cli import (
    main,
    read_operator_json,
    read_samples_csv,
    write_operator_json,
    write_samples_csv,
)
from framesphere.frame import FrameFunction, OperatorMatrix
from framesphere.harmonics import bidegrees_up_to, build_basis
from framesphere.measure import RngStream, sphere_sample_batch
from framesphere.polynomials import BiDegreePolynomial, inner_product


def _operator_file(tmp_path, entries, name="op.json"):
    path = tmp_path / name
    write_operator_json(path, OperatorMatrix(np.asarray(entries, dtype=complex)))
    return str(path)


def _quartic_samples_file(tmp_path, count=400, name="quartic.csv"):
    poly = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    pts = sphere_sample_batch(3, count, RngStream(seed=99))
    path = tmp_path / name
    write_samples_csv(path, pts, poly.evaluate_batch(pts))
    return str(path)


def _quadratic_samples_file(tmp_path, name="quad.csv"):
    gen = np.random.default_rng(98)
    b = gen.uniform(-1, 1, (3, 3)) + 1j * gen.uniform(-1, 1, (3, 3))
    a = (b + np.conj(b.T)) / 2
    pts = sphere_sample_batch(3, 400, RngStream(seed=97))
    vals = np.einsum("sk,kl,sl->s", np.conj(pts), a, pts)
    path = tmp_path / name
    write_samples_csv(path, pts, vals)
    return str(path), a


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_operator_json_round_trip(tmp_path):
    entries = np.array([[1.0, 2j, 0], [-2j, 0.5, 1], [0, 1, -1]])
    path = _operator_file(tmp_path, entries)
    back = read_operator_json(path)
    assert np.array_equal(back.entries, entries)


def test_samples_csv_round_trip(tmp_path):
    pts = sphere_sample_batch(3, 7, RngStream(seed=1))
    vals = np.arange(7) + 1j
    path = tmp_path / "s.csv"
    write_samples_csv(path, pts, vals)
    back_pts, back_vals = read_samples_csv(path)
    assert np.array_equal(back_pts, pts)
    assert np.array_equal(back_vals, vals)


def test_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x_1,x_2,f\n1,0,1\n")
    with pytest.raises(Exception, match="header"):
        read_samples_csv(str(path))


def test_samples_csv_names_bad_field(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("re_1,re_2,re_3,im_1,im_2,im_3,f_re,f_im\n1,0,0,0,0,oops,1,0\n")
    with pytest.raises(Exception, match="oops"):
        read_samples_csv(str(path))


# ---------------------------------------------------------------------------
# verify-frame
# ---------------------------------------------------------------------------


def test_verify_frame_accepts_quadratic_form(tmp_path, capsys):
    path = _operator_file(tmp_path, np.diag([1.0, 2.0, 3.0]))
    code = main(["verify-frame", "--input", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] is True
    assert payload["weight"]["mean"] == pytest.approx([6.0, 0.0])
    assert payload["weight"]["verdict"] is True
    assert payload["residual"]["l2_norm"] < 1e-10
    assert payload["reconstruction"]["cross_method_gap"] < 1e-10
    assert payload["hermitian_check"]["consistent"] is True
    assert payload["additivity_max_error"] < 1e-10
    rec = OperatorMatrix.from_dict(payload["reconstruction"]["operator"])
    assert np.max(np.abs(rec.entries - np.diag([1.0, 2.0, 3.0]))) < 1e-10


def test_verify_frame_rejects_quartic_samples(tmp_path, capsys):
    path = _quartic_samples_file(tmp_path)
    code = main(["verify-frame", "--input", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["verdict"] is False
    flagged = {(row["p"], row["q"]): row["norm_sq"] for row in payload["residual"]["components"]}
    assert flagged[(2, 2)] == pytest.approx(1 / 300, rel=1e-6)
    assert payload["weight"]["n_bases"] == 100
    assert payload["weight"]["verdict"] is False


def test_verify_frame_reconstructs_only_the_quadratic_part_of_quartic_samples(tmp_path, capsys):
    # the (0,0) + (1,1) part of |z1|^4 at n = 3 is <z|Az> with A = diag(0.7, -0.1, -0.1)
    path = _quartic_samples_file(tmp_path)
    assert main(["verify-frame", "--input", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    rec = OperatorMatrix.from_dict(payload["reconstruction"]["operator"])
    assert np.max(np.abs(rec.entries - np.diag([0.7, -0.1, -0.1]))) < 1e-12
    assert payload["reconstruction"]["cross_method_gap"] < 1e-12
    assert payload["reconstruction"]["verdict"] is True


def test_verify_frame_accepts_quadratic_samples(tmp_path, capsys):
    path, a = _quadratic_samples_file(tmp_path)
    code = main(["verify-frame", "--input", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] is True
    rec = OperatorMatrix.from_dict(payload["reconstruction"]["operator"])
    assert np.max(np.abs(rec.entries - a)) < 1e-10


def test_verify_frame_accepts_quadratic_samples_at_low_max_bidegree(tmp_path, capsys):
    # the fit still covers p+q <= 2, so no (1,1) mass leaks into (1,0) and (0,1)
    path, a = _quadratic_samples_file(tmp_path)
    code = main(["verify-frame", "--input", path, "--max-bidegree", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["residual"]["l2_norm"] < 1e-12
    assert payload["weight"]["verdict"] is True


def test_verify_frame_is_deterministic(tmp_path):
    op = _operator_file(tmp_path, np.diag([1.0, 2.0, 3.0]))
    out = tmp_path / "report.json"
    assert main(["verify-frame", "--input", op, "--output", str(out)]) == 0
    first = out.read_bytes()
    assert main(["verify-frame", "--input", op, "--output", str(out)]) == 0
    assert out.read_bytes() == first


def test_verify_frame_large_entries_exit_cleanly(tmp_path, capsys):
    gen = np.random.default_rng(1)
    a = gen.normal(size=(4, 4)) * 1e9
    path = _operator_file(tmp_path, a + a.T)
    code = main(["verify-frame", "--input", path, "--max-bidegree", "2"])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert json.loads(captured.out)["config"]["n"] == 4
    assert "Traceback" not in captured.err


def test_verify_frame_scales_its_tolerances_with_the_operator(tmp_path, capsys):
    # a genuine frame function with 1e9-sized entries: rounding alone exceeds
    # the absolute tolerances, the ones scaled by max|A| accept it
    gen = np.random.default_rng(1)
    a = gen.normal(size=(4, 4)) * 1e9
    path = _operator_file(tmp_path, a + a.T)
    code = main(["verify-frame", "--input", path, "--max-bidegree", "2"])
    payload = json.loads(capsys.readouterr().out)
    scale = float(np.max(np.abs(OperatorMatrix.from_dict(payload["reconstruction"]["operator"]).entries)))
    assert code == 0 and payload["verdict"] is True
    assert payload["weight"]["max_deviation"] > 1e-8
    assert payload["reconstruction"]["cross_method_gap"] > 1e-9
    assert payload["tolerances"]["weight_deviation"] == pytest.approx(1e-8 * scale, rel=1e-15)
    assert payload["tolerances"]["cross_method_gap"] == pytest.approx(1e-9 * scale, rel=1e-15)
    assert payload["tolerances"]["residual_l2"] == 1e-8


def test_verify_frame_tolerances_stay_absolute_for_small_operators(tmp_path, capsys):
    path = _operator_file(tmp_path, np.diag([0.5, -0.25, 0.125]))
    assert main(["verify-frame", "--input", path]) == 0
    tolerances = json.loads(capsys.readouterr().out)["tolerances"]
    assert tolerances["weight_deviation"] == 1e-8
    assert tolerances["cross_method_gap"] == 10 * 1e-10


def test_verify_frame_rejects_large_quartic_samples(tmp_path, capsys):
    poly = BiDegreePolynomial.monomial(3, (2, 0, 0), (2, 0, 0))
    pts = sphere_sample_batch(3, 400, RngStream(seed=99))
    path = tmp_path / "big-quartic.csv"
    write_samples_csv(path, pts, 1e9 * poly.evaluate_batch(pts))
    code = main(["verify-frame", "--input", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1 and payload["residual"]["verdict"] is False


# ---------------------------------------------------------------------------
# decompose
# ---------------------------------------------------------------------------


def test_decompose_identity_operator(tmp_path, capsys):
    path = _operator_file(tmp_path, np.eye(3))
    code = main(["decompose", "--input", path])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "p,q,dim,component_l2_norm"
    assert out[1] == "0,0,1,1.0"
    assert len(out) == 2  # the identity form is purely constant


def _every_bidegree_decompose_csv(f, max_bidegree):
    """decompose's table with sum_m |<v_m, f>|^2 / r_m over a basis of every bidegree."""
    lines = ["p,q,dim,component_l2_norm"]
    (part,) = f.polynomial_parts()
    for j in bidegrees_up_to(max_bidegree):
        space = build_basis(f.n, j)
        norm_sq = 0.0
        for v, r in zip(space.polys, space.norms_sq):
            norm_sq = norm_sq + abs(complex(inner_product(v, part))) ** 2 / r
        norm = float(np.sqrt(norm_sq))
        if norm > 1e-12:
            lines.append(f"{j.p},{j.q},{space.dim},{norm!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n, max_bidegree", [(3, 5), (4, 4)])
def test_decompose_skips_unreachable_bases_without_changing_the_table(tmp_path, n, max_bidegree):
    gen = np.random.default_rng(n)
    a = gen.normal(size=(n, n)) + 1j * gen.normal(size=(n, n))
    path = _operator_file(tmp_path, a)
    out = tmp_path / "table.csv"
    code = main(["decompose", "--input", path, "--max-bidegree", str(max_bidegree), "--output", str(out)])
    assert code == 0
    f = FrameFunction(operator=OperatorMatrix(a))
    assert out.read_text() == _every_bidegree_decompose_csv(f, max_bidegree)


def test_decompose_quartic_samples(tmp_path, capsys):
    path = _quartic_samples_file(tmp_path)
    code = main(["decompose", "--input", path])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    rows = {tuple(map(int, line.split(",")[:2])): line.split(",") for line in out[1:]}
    assert set(rows) == {(0, 0), (1, 1), (2, 2)}
    assert float(rows[(0, 0)][3]) == pytest.approx(1 / 6, abs=1e-9)
    assert float(rows[(1, 1)][3]) == pytest.approx(np.sqrt(8 / 225), abs=1e-9)
    assert float(rows[(2, 2)][3]) == pytest.approx(np.sqrt(1 / 300), abs=1e-9)
    assert rows[(1, 1)][2] == "8"  # dim H_(1,1) = n^2 - 1


# ---------------------------------------------------------------------------
# zonal-table
# ---------------------------------------------------------------------------


def test_zonal_table_golden_rows(capsys):
    code = main(["zonal-table", "--max-bidegree", "2"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[0] == "p,q,value_at_1,value_at_0,basis_sum"
    table = {tuple(map(int, line.split(",")[:2])): line.split(",")[2:] for line in out[1:]}
    assert table[(0, 0)] == ["1", "1", "3"]
    assert table[(1, 0)] == ["2", "0", "2"]
    assert table[(0, 1)] == ["2", "0", "2"]
    assert table[(1, 1)] == ["4", "-2", "0"]  # the selection rule row
    sums = {j: vals[2] for j, vals in table.items()}
    assert [j for j, s in sums.items() if s == "0"] == [(1, 1)]


# ---------------------------------------------------------------------------
# character-check
# ---------------------------------------------------------------------------


def test_character_check_statistics(tmp_path):
    out = tmp_path / "chars.csv"
    code = main(
        ["character-check", "--samples", "4000", "--max-bidegree", "2", "--output", str(out)]
    )
    lines = out.read_text().splitlines()
    assert code == 0
    assert lines[0] == "p1,q1,p2,q2,mean_re,mean_im,stderr,expected,within_4_stderr"
    rows = [line.split(",") for line in lines[1:]]
    trivial = next(r for r in rows if r[:4] == ["0", "0", "0", "0"])
    assert float(trivial[4]) == 1.0 and float(trivial[6]) == 0.0
    assert all(r[8] == "True" for r in rows)


# ---------------------------------------------------------------------------
# gleason-demo
# ---------------------------------------------------------------------------


def test_gleason_demo_maximally_mixed(tmp_path, capsys):
    path = _operator_file(tmp_path, np.eye(3))
    code = main(["gleason-demo", "--input", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["verdict"] is True
    assert payload["positive"] is True
    assert payload["warnings"] == []
    assert payload["additivity_error"] < 1e-12
    by_rank = {m["rank"]: m["measure"] for m in payload["projector_measures"]}
    assert by_rank[1] == pytest.approx(1 / 3, abs=1e-12)
    assert by_rank[2] == pytest.approx(2 / 3, abs=1e-12)


def test_gleason_demo_flags_negative_eigenvalues(tmp_path, capsys):
    path = _operator_file(tmp_path, np.diag([0.8, 0.5, -0.3]))
    code = main(["gleason-demo", "--input", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # additivity still holds; negativity is reported, not fatal
    assert payload["positive"] is False
    assert payload["negative_eigenvalues"] == [pytest.approx(-0.3)]
    assert len(payload["warnings"]) == 1


def test_gleason_demo_requires_hermitian(tmp_path, capsys):
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1.0
    path = _operator_file(tmp_path, skew)
    assert main(["gleason-demo", "--input", path]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("framesphere ")


def test_workers_flag_is_a_usage_error(tmp_path, capsys):
    path = _operator_file(tmp_path, np.diag([1.0, 2.0, 3.0]))
    assert main(["verify-frame", "--input", path, "--workers", "2"]) == 2
    assert "--workers" in capsys.readouterr().err
    out = tmp_path / "report.json"
    assert main(["verify-frame", "--input", path, "--output", str(out)]) == 0
    assert "workers" not in json.loads(out.read_text())["config"]


def test_unread_flag_is_reported_with_the_command_usage(tmp_path, capsys):
    path = _operator_file(tmp_path, np.diag([1.0, 2.0, 3.0]))
    assert main(["gleason-demo", "--input", path, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: framesphere gleason-demo ")
    assert "framesphere gleason-demo: error: unrecognized arguments: --n 3" in err


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().err


def test_env_fallback_and_flag_precedence(monkeypatch, capsys):
    monkeypatch.setenv("FRAMESPHERE_MAX_BIDEGREE", "1")
    code = main(["zonal-table"])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3  # header + (0,0),(0,1),(1,0)

    code = main(["zonal-table", "--max-bidegree", "0"])  # flag beats the env var
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 1


def test_invalid_env_value_is_reported(monkeypatch, capsys):
    monkeypatch.setenv("FRAMESPHERE_SEED", "not-a-number")
    assert main(["character-check", "--samples", "200", "--max-bidegree", "1"]) == 2
    assert "FRAMESPHERE_SEED" in capsys.readouterr().err


_SETTINGS = ("n", "seed", "samples", "tol", "max_bidegree", "input", "output")

# command -> the settings of a quick run; {name} is a file of the setting_files fixture
_QUICK_RUNS = {
    "verify-frame": {"input": "{op}", "max_bidegree": "2"},
    "decompose": {"input": "{quartic}", "max_bidegree": "2"},
    "zonal-table": {"max_bidegree": "1"},
    "character-check": {"samples": "200", "max_bidegree": "1"},
    "gleason-demo": {"input": "{op}"},
}

# (command, setting) for each setting but --output that the command reads ->
# (other settings of the run, a new value, and None when the new value must
# change the report, or the error it must exit 2 with)
_SETTING_CHANGES = {
    ("verify-frame", "n"): ({}, "4", "disagrees with the input"),
    ("verify-frame", "seed"): ({}, "1", None),
    ("verify-frame", "tol"): ({}, "1e-6", None),
    ("verify-frame", "max_bidegree"): ({"input": "{quartic}"}, "4", None),
    ("verify-frame", "input"): ({}, "{other}", None),
    ("decompose", "n"): ({}, "4", "disagrees with the input"),
    ("decompose", "max_bidegree"): ({}, "4", None),
    ("decompose", "input"): ({}, "{op}", None),
    ("zonal-table", "n"): ({}, "4", None),
    ("zonal-table", "max_bidegree"): ({}, "2", None),
    ("character-check", "n"): ({}, "4", None),
    ("character-check", "seed"): ({}, "1", None),
    ("character-check", "samples"): ({}, "300", None),
    ("character-check", "max_bidegree"): ({}, "2", None),
    ("gleason-demo", "seed"): ({}, "1", None),
    ("gleason-demo", "tol"): ({}, "1e-6", None),
    ("gleason-demo", "input"): ({}, "{other}", None),
}
# a valid value of each setting, so that a run can fail only for not reading it
_VALID = {"n": "3", "seed": "1", "samples": "300", "tol": "1e-6", "max_bidegree": "2", "input": "{op}"}


@pytest.fixture
def setting_files(tmp_path):
    return {
        "op": _operator_file(tmp_path, np.diag([1.0, 2.0, 3.0])),
        "other": _operator_file(tmp_path, np.diag([0.5, 0.25, 0.25]), "other.json"),
        "quartic": _quartic_samples_file(tmp_path),
    }


def _argv(command, settings, files):
    argv = [command]
    for name, value in settings.items():
        argv += ["--" + name.replace("_", "-"), value.format(**files)]
    return argv


def _without_config(text):
    """A JSON report without its config section, which echoes the settings."""
    if not text.startswith("{"):
        return text
    report = json.loads(text)
    del report["config"]
    return report


def _report(command, settings, files, capsys):
    """Exit code, stdout without a JSON report's config section, and stderr of one run."""
    code = main(_argv(command, settings, files))
    captured = capsys.readouterr()
    return code, _without_config(captured.out), captured.err


@pytest.mark.parametrize(
    "command, setting",
    [(command, setting) for command in _QUICK_RUNS for setting in _SETTINGS],
    ids=lambda value: value.replace("_", "-"),
)
def test_each_command_accepts_only_the_settings_it_reads(
    command, setting, setting_files, tmp_path, monkeypatch, capsys
):
    var = "FRAMESPHERE_" + setting.upper()
    quick = _QUICK_RUNS[command]
    if setting == "output":  # every command reads it
        code, out, err = _report(command, quick, setting_files, capsys)
        path = tmp_path / "report"
        assert _report(command, {**quick, "output": str(path)}, setting_files, capsys) == (code, "", err)
        assert _without_config(path.read_text()) == out
        monkeypatch.setenv(var, str(tmp_path / "from-env"))
        assert _report(command, quick, setting_files, capsys) == (code, "", err)
        assert _without_config((tmp_path / "from-env").read_text()) == out
        return
    if (command, setting) not in _SETTING_CHANGES:
        base = _report(command, quick, setting_files, capsys)
        assert main(_argv(command, {**quick, setting: _VALID[setting]}, setting_files)) == 2
        assert "unrecognized arguments: --" + setting.replace("_", "-") in capsys.readouterr().err
        monkeypatch.setenv(var, "junk")  # an unread variable is never parsed
        assert _report(command, quick, setting_files, capsys) == base
        return
    others, value, expected_error = _SETTING_CHANGES[command, setting]
    run = {**quick, **others}
    changed = _report(command, {**run, setting: value}, setting_files, capsys)
    if expected_error is None:
        assert changed[0] in (0, 1) and changed != _report(command, run, setting_files, capsys)
    else:
        assert changed[0] == 2 and expected_error in changed[2]
    run.pop(setting, None)
    monkeypatch.setenv(var, value.format(**setting_files))  # the variable acts as the flag
    assert _report(command, run, setting_files, capsys) == changed


@pytest.mark.parametrize(
    "argv",
    [
        ["zonal-table", "--n", "2"],
        ["verify-frame"],  # --input required
        ["verify-frame", "--input", "does-not-exist.json"],
        ["verify-frame", "--input", "wrong-extension.txt"],
        ["character-check", "--samples", "1"],
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text("{not json")
    assert main(["verify-frame", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,content",
    [
        ("op.json", b'{"n": 1e400, "re": [], "im": []}'),  # json reads inf; int(inf) overflows
        ("op.json", b"\xff\xfe"),
        ("samples.csv", b"\xff\xfe"),
        ("op.json", b"[" * 100_000),  # nested past the decoder's recursion limit
        ("samples.csv", b"re_1,im_1,f_re,f_im\n" + b"1" * 200_000 + b",0,1,0\n"),  # over csv's field limit
    ],
    ids=["overflowing-n", "non-utf8-json", "non-utf8-csv", "deep-json", "long-csv-field"],
)
def test_malformed_input_file_exits_2(tmp_path, capsys, name, content):
    path = tmp_path / name
    path.write_bytes(content)
    assert main(["verify-frame", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_random_input_files_exit_2(tmp_path, capsys):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
    # lists of at most two entries: a well-formed matrix is at most 2x2, which n >= 3 refuses
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=2), max_leaves=8)
    files = st.tuples(st.sampled_from(["in.json", "in.csv"]), st.binary(max_size=64)) | st.tuples(
        st.just("in.json"),
        st.fixed_dictionaries({"n": values, "re": values, "im": values}).map(
            lambda record: json.dumps(record).encode()
        ),
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(files)
    def check(file):
        name, content = file
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["verify-frame", "--input", str(path)]) == 2
        capsys.readouterr()

    check()


def test_dimension_mismatch_exits_2(tmp_path, capsys):
    path = _operator_file(tmp_path, np.eye(3))
    assert main(["verify-frame", "--input", path, "--n", "4"]) == 2
    assert "disagrees" in capsys.readouterr().err


def test_default_dimension_flag_still_checked_against_input(tmp_path, capsys):
    path = _operator_file(tmp_path, np.eye(4))
    assert main(["verify-frame", "--input", path, "--n", "3"]) == 2
    assert "disagrees" in capsys.readouterr().err
    # checked before the fit: 30 points are too few for n = 4 but enough to be read
    samples = tmp_path / "few.csv"
    write_samples_csv(samples, sphere_sample_batch(3, 30, RngStream(seed=3)), np.ones(30))
    assert main(["decompose", "--input", str(samples), "--n", "4"]) == 2
    assert "disagrees" in capsys.readouterr().err


def test_default_dimension_env_still_checked_against_input(tmp_path, monkeypatch, capsys):
    path = _operator_file(tmp_path, np.eye(4))
    monkeypatch.setenv("FRAMESPHERE_N", "3")
    assert main(["verify-frame", "--input", path]) == 2
    assert "disagrees" in capsys.readouterr().err


def test_underdetermined_samples_exit_2(tmp_path, capsys):
    pts = sphere_sample_batch(3, 5, RngStream(seed=2))
    path = tmp_path / "few.csv"
    write_samples_csv(path, pts, np.ones(5))
    assert main(["verify-frame", "--input", str(path)]) == 2
    assert "error:" in capsys.readouterr().err
