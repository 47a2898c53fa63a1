import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spectral_forge
from spectral_forge import io
from spectral_forge.cli import main
from spectral_forge.linalg import OperatorMatrix


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_file(tmp_path, name, *extra):
    path = str(tmp_path / name)
    assert main(list(extra) + ["--output", path]) == 0
    return path


def test_gen_multiplication_hand_value(tmp_path, capsys):
    path = str(tmp_path / "t.json")
    code, _, _ = run(["gen", "--kind", "multiplication", "--dim", "4",
                      "--scale", "4", "--output", path], capsys)
    assert code == 0
    m = io.read_matrix(path)
    np.testing.assert_array_equal(m.array, np.diag([1.0, 2.0, 3.0, 4.0]))


def test_decompose_round(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "6", "--seed", "5")
    out = str(tmp_path / "d.json")
    code, _, err = run(["decompose", "--input", t, "--output", out], capsys)
    assert code == 0
    assert "checks passed" in err
    doc = json.loads(open(out).read())
    assert set(doc) == {"t", "a", "b", "source_norm", "report"}
    assert all(doc["report"]["pass"].values())


def test_decompose_passes_on_a_spectrum_with_0_at_1e4(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "momentum_1d",
                 "--dim", "12", "--scale", "1e4")
    code, out, _ = run(["decompose", "--input", t, "--emit", "report"],
                       capsys)
    assert code == 0
    assert all(json.loads(out)["pass"].values())


def test_decompose_emit_report_only(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "multiplication",
                 "--dim", "3")
    code, out, _ = run(["decompose", "--input", t, "--emit", "report"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"residuals", "pass", "tolerances"}


def test_decompose_emit_measure_writes_the_pair_without_report(tmp_path,
                                                             capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "3")
    out = str(tmp_path / "d.json")
    code, _, err = run(["decompose", "--input", t, "--emit", "measure",
                        "--output", out], capsys)
    assert code == 0 and "checks passed" in err
    assert set(json.loads(open(out).read())) == {"t", "a", "b", "source_norm"}
    code, out, _ = run(["verify", "--decomposition", out], capsys)
    assert code == 0
    assert "FAIL" not in out and "injectivity_margin" in out


def test_decompose_rejects_jordan_with_exit_3(tmp_path, capsys):
    t = gen_file(tmp_path, "j.json", "gen", "--kind", "jordan_block",
                 "--dim", "4")
    code, _, err = run(["decompose", "--input", t], capsys)
    assert code == 3
    assert "input is not normal" in err


def test_missing_input_is_usage_error(capsys):
    code, _, err = run(["decompose"], capsys)
    assert code == 2
    assert "--input" in err


def test_unreadable_file_is_usage_error(tmp_path, capsys):
    code, _, err = run(["decompose", "--input", str(tmp_path / "no.json")],
                       capsys)
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_spectrum_atoms(tmp_path, capsys):
    t = str(tmp_path / "t.json")
    io.write_matrix(
        __import__("spectral_forge").OperatorMatrix(np.diag([2j, -3.0])), t)
    out = str(tmp_path / "e.json")
    code, _, err = run(["spectrum", "--input", t, "--emit", "measure",
                        "--output", out], capsys)
    assert code == 0
    assert "2 atoms" in err
    e = io.read_pvm(out)
    np.testing.assert_allclose(e.points, [-3.0, 2j], atol=1e-12)


def test_pipeline_cross_check_scalar_example(tmp_path, capsys):
    t = str(tmp_path / "t.json")
    io.write_matrix(
        __import__("spectral_forge").OperatorMatrix(np.diag([2j, -3.0])), t)
    code, out, err = run(["pipeline", "--input", t, "--cross-check"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["residuals"]["atom_count"] == 2.0
    assert doc["report"]["pass"]["cross_unmatched"]
    assert "direct" in doc
    assert len(doc["measure"]["atoms"]) == 2


def test_pipeline_emit_measure(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "2")
    code, out, _ = run(["pipeline", "--input", t, "--emit", "measure"],
                       capsys)
    assert code == 0
    doc = json.loads(out)
    assert "atoms" in doc


def test_stdout_gets_the_text_output_writes(tmp_path, capsysbinary):
    # both deliveries stream the same pieces, repeated projections included
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "2")
    bundle = str(tmp_path / "bundle.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    capsysbinary.readouterr()
    assert main(["pipeline", "--input", t, "--emit", "all"]) == 0
    with open(bundle, "rb") as handle:
        assert capsysbinary.readouterr().out == handle.read()


def test_verify_decomposition_pass_and_tamper(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "21")
    bundle = str(tmp_path / "d.json")
    assert main(["decompose", "--input", t, "--output", bundle]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", "--decomposition", bundle], capsys)
    assert code == 0
    assert "pass" in out
    # corrupt one entry of b and verify again
    doc = json.loads(open(bundle).read())
    doc["b"]["entries"][0][0] += 0.5
    open(bundle, "w").write(io.dumps(doc))
    code, out, _ = run(["verify", "--decomposition", bundle], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("flag", ["--decomposition", "--dir"])
def test_verify_parses_a_stored_t_once(tmp_path, capsys, monkeypatch, flag):
    # the t a decomposition stores is parsed once, to compare it with
    # --input and to hold the pair to; a, b and --input once each
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "21")
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    path = str(run_dir / "d.json")
    assert main(["decompose", "--input", t, "--output", path]) == 0
    capsys.readouterr()
    parsed = []
    parse = io.matrix_from_doc

    def counted(doc, where="matrix"):
        parsed.append(where)
        return parse(doc, where)

    monkeypatch.setattr(io, "matrix_from_doc", counted)
    target = path if flag == "--decomposition" else str(run_dir)
    code, out, _ = run(["verify", flag, target, "--input", t], capsys)
    assert code == 0 and "FAIL" not in out
    assert sorted(parsed) == ["d.json.a", "d.json.b", "d.json.t", "t.json"]


def test_verify_pvm_with_source(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "6", "--seed", "31")
    pvm = str(tmp_path / "e.json")
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", pvm]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", "--pvm", pvm, "--input", t], capsys)
    assert code == 0
    assert "reconstruction" in out


def test_verify_output_writes_its_one_targets_report(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "31")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    for flag, key in (("--pvm", "min_point_gap"),
                      ("--decomposition", "commutator")):
        out = str(tmp_path / "r.json")
        assert main(["verify", flag, bundle, "--output", out]) == 0
        assert key in json.loads(open(out).read())["residuals"]


@pytest.mark.parametrize("targets", [
    ["--dir", "."],
    ["--pvm", "e.json", "--decomposition", "d.json"],
    [],
], ids=["dir", "two", "none"])
def test_verify_output_needs_one_explicit_target(tmp_path, capsys, targets):
    # refused before any file is read: none of these files exist
    out = tmp_path / "r.json"
    code, _, err = run(["verify", "--input", str(tmp_path / "t.json"),
                        "--output", str(out)] + targets, capsys)
    assert code == 2
    assert "exactly one of --decomposition or --pvm" in err
    assert not out.exists()


@pytest.mark.parametrize("entries", [
    np.zeros((3, 3)), np.eye(4), np.array([[2.0]]),
], ids=["zero3", "identity4", "one_by_one"])
def test_one_atom_measure_reports_and_verifies(tmp_path, capsys, entries):
    t = str(tmp_path / "t.json")
    io.write_matrix(OperatorMatrix(entries.astype(complex)), t)
    doc = str(tmp_path / "s.json")
    code, _, _ = run(["spectrum", "--input", t, "--output", doc], capsys)
    assert code == 0
    report = json.loads(open(doc).read())["report"]
    assert "min_point_gap" not in report["residuals"]
    assert all(np.isfinite(v) for v in report["residuals"].values())
    m = str(tmp_path / "m.json")
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", m]) == 0
    out = str(tmp_path / "r.json")
    code, _, _ = run(["verify", "--pvm", m, "--input", t, "--output", out],
                     capsys)
    assert code == 0
    assert json.loads(open(out).read())["pass"]["reconstruction"]


def test_verify_dir_batch(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "41")
    assert main(["decompose", "--input", t,
                 "--output", str(tmp_path / "a_bundle.json")]) == 0
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", str(tmp_path / "b_measure.json")]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", "--dir", str(tmp_path)], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    # sorted deterministic order: bundle, measure, then the raw matrix
    assert lines[0].startswith("a_bundle.json:")
    assert lines[1].startswith("b_measure.json:")
    assert lines[2].startswith("t.json: skipped")


def test_verify_empty_dir_finds_nothing_checkable(tmp_path, capsys):
    code, out, err = run(["verify", "--dir", str(tmp_path)], capsys)
    assert (code, out) == (0, "")
    assert err == "nothing checkable found\n"
    code, _, err = run(["verify"], capsys)
    assert code == 2
    assert "verify needs --decomposition, --pvm, or --dir" in err


def test_verify_dir_recheck_emit_all_bundle(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "43")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", "--dir", str(tmp_path)], capsys)
    assert code == 0
    assert "full.json: bundle(decomposition,e1,e2,product,measure) pass" in out

    doc = json.loads(open(bundle).read())
    doc["measure"]["atoms"][0]["projection"]["entries"][0][0] += 0.05
    open(bundle, "w").write(json.dumps(doc))
    code, out, _ = run(["verify", "--dir", str(tmp_path)], capsys)
    assert code == 1
    assert "FAIL measure" in out


@pytest.mark.parametrize("part", ["e1", "e2", "product", "measure"])
def test_verify_dir_names_the_part_whose_copy_of_a_projection_changed(
        tmp_path, capsys, part):
    # the four measures hold the same projections, and a read decodes
    # each repeated text once: a change to one part's copy must fail that
    # part alone, never the copies the other parts hold
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "6", "--seed", "43")
    os.mkdir(tmp_path / "run")
    bundle = str(tmp_path / "run" / "bundle.json")
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", bundle]) == 0
    doc = json.loads(open(bundle).read())
    entries = doc[part]["atoms"][0]["projection"]["entries"]
    for other in ("e1", "e2", "product", "measure"):
        assert entries in [atom["projection"]["entries"]
                           for atom in doc[other]["atoms"]]
    entries[0][0] += 0.05
    text = json.dumps(doc) + "\n"
    open(bundle, "w").write(text)
    assert io._parse_once(text.encode()) is not None  # the other copies repeat
    capsys.readouterr()
    code, out, _ = run(["verify", "--dir", str(tmp_path / "run"),
                        "--input", t], capsys)
    assert code == 1
    assert out == ("bundle.json: bundle(decomposition,e1,e2,product,measure)"
                   f" FAIL {part}\n")


def test_verify_dir_rechecks_direct_part(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "43")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--cross-check",
                 "--output", bundle]) == 0
    capsys.readouterr()
    parts = "bundle(decomposition,e1,e2,product,measure,direct)"
    code, out, _ = run(["verify", "--dir", str(tmp_path)], capsys)
    assert code == 0
    assert f"full.json: {parts} pass" in out

    doc = json.loads(open(bundle).read())
    atom = doc["direct"]["atoms"][0]
    atom["projection"]["entries"][0][0] += 0.05
    atom["point"][0] += 0.05
    open(bundle, "w").write(json.dumps(doc))
    code, out, _ = run(["verify", "--dir", str(tmp_path)], capsys)
    assert code == 1
    assert f"full.json: {parts} FAIL direct" in out


def test_verify_requires_a_target(capsys):
    code, _, err = run(["verify"], capsys)
    assert code == 2


@pytest.mark.parametrize("radius", [[], ["--cluster", "1e-6"]],
                         ids=["default", "cluster"])
def test_byte_identical_reruns(tmp_path, capsys, radius):
    args = ["gen", "--kind", "random_normal", "--dim", "6", "--seed", "77"]
    p1 = str(tmp_path / "a.json")
    p2 = str(tmp_path / "b.json")
    assert main(args + ["--output", p1]) == 0
    assert main(args + ["--output", p2]) == 0
    assert open(p1, "rb").read() == open(p2, "rb").read()
    capsys.readouterr()
    pipeline = ["pipeline", "--input", p1, "--cross-check"] + radius
    code1, out1, _ = run(pipeline, capsys)
    code2, out2, _ = run(pipeline, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    # the measures of T carry the radius, and no other measure does
    assert out1.count('"cluster": 1e-06') == (2 if radius else 0)


def test_env_tolerance_override(tmp_path, capsys, monkeypatch):
    # the relative tolerance is the constant linalg.REL, read at call
    # time; no flag or environment variable sets it.  A diagonal T is
    # normal to the bit, so it passes the normality test at any budget
    from spectral_forge import linalg
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "multiplication",
                 "--dim", "8", "--scale", "3")
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "REL", 1e-20 / 8)
        code, _, _ = run(["decompose", "--input", t], capsys)
    assert code == 1  # residuals cannot clear a 1e-20 relative budget
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "REL", 1e-9 / 8)
        code, _, _ = run(["decompose", "--input", t], capsys)
    assert code == 0
    monkeypatch.setenv("SPECTRAL_FORGE_TOL", "1e-20")
    code, _, _ = run(["decompose", "--input", t], capsys)
    assert code == 0


@pytest.mark.parametrize("args", [
    ["--kind", "from_file"],
    ["--kind", "multiplication", "--dim", "2", "--path", "m.json"],
], ids=["from_file", "path"])
def test_gen_reads_no_file(capsys, args):
    code, _, _ = run(["gen"] + args, capsys)
    assert code == 2


def test_gen_without_kind_is_usage_error(capsys):
    code, _, _ = run(["gen", "--dim", "4"], capsys)
    assert code == 2


def test_gen_bad_spec_is_usage_error(capsys):
    code, _, err = run(["gen", "--kind", "random_normal", "--dim", "4"],
                       capsys)
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("dim", [2**32, 10**12], ids=["2^32", "1e12"])
def test_gen_refuses_a_dim_past_the_file_limit(capsys, monkeypatch, dim):
    # the limit a file's dim is held to: one error line and exit 2, with
    # no operator generated and no array allocated
    def refuse(spec):
        raise AssertionError(f"generated {spec}")

    monkeypatch.setattr("spectral_forge.cli.generate", refuse)
    tracemalloc.start()
    try:
        code, out, err = run(["gen", "--kind", "multiplication",
                              "--dim", str(dim)], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "error: dimension must be below 2^32\n")
    assert peak < 1 << 20


def test_gen_reports_a_dim_past_memory_as_a_bad_spec(capsys, monkeypatch):
    # a dim below 2^32 that the machine cannot hold: one error line and
    # exit 2, not numpy's traceback
    def exhaust(spec):
        raise MemoryError

    monkeypatch.setattr("spectral_forge.cli.generate", exhaust)
    code, out, err = run(["gen", "--kind", "multiplication",
                          "--dim", "3000000000"], capsys)
    assert (code, out, err) == (
        2, "", "error: dimension 3000000000 does not fit in memory\n")


@pytest.mark.parametrize("kind,dim", [("laplacian_1d", 3),
                                      ("multiplication", 4)])
def test_gen_refuses_an_overflowing_scale(tmp_path, kind, dim):
    # in a fresh process, where numpy would print its overflow warning:
    # one error line, exit 2 and no file
    src = str(Path(spectral_forge.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    out = tmp_path / "big.json"
    done = subprocess.run(
        [sys.executable, "-m", "spectral_forge.cli", "gen", "--kind", kind,
         "--dim", str(dim), "--scale", "1e308", "--output", str(out)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("error:") == 1, done.stderr
    assert "RuntimeWarning" not in done.stderr
    assert f"{kind} at dim {dim} and scale 1e+308" in done.stderr
    assert not out.exists()


def test_verify_pvm_on_product_from_bundle(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "47")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    product = str(tmp_path / "product.json")
    io.write_json(json.loads(open(bundle).read())["product"], product)
    capsys.readouterr()
    code, out, _ = run(["verify", "--pvm", product], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "product.json"
    assert [line.split()[0] for line in lines[1:]] == [
        "idempotency", "hermitian_defect", "orthogonality", "completeness",
        "rank_deficit"]
    assert all(line.endswith("pass") for line in lines[1:])

    doc = json.loads(open(product).read())
    doc["atoms"][0]["projection"]["entries"][0][0] += 0.05
    open(product, "w").write(io.dumps(doc))
    code, out, _ = run(["verify", "--pvm", product], capsys)
    assert code == 1
    assert "FAIL" in out


def test_verify_explicit_targets_on_bundle(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "53")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    capsys.readouterr()
    # each flag checks its own part, against the bundle's stored T
    code, out, _ = run(["verify", "--pvm", bundle], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "full.json"
    assert [line.split()[0] for line in lines[1:]] == [
        "idempotency", "hermitian_defect", "orthogonality", "completeness",
        "rank_deficit", "min_point_gap", "reconstruction"]
    assert all(line.endswith("pass") for line in lines[1:])
    code, out, _ = run(["verify", "--decomposition", bundle], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "full.json"
    assert "reconstruction" in [line.split()[0] for line in lines[1:]]
    assert all(line.endswith("pass") for line in lines[1:])

    doc = json.loads(open(bundle).read())
    doc["measure"]["atoms"][0]["projection"]["entries"][0][0] += 0.05
    open(bundle, "w").write(io.dumps(doc))
    code, out, _ = run(["verify", "--pvm", bundle], capsys)
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("bad", [0, [1]], ids=["zero", "list"])
@pytest.mark.parametrize("flag", ["--dir", "--pvm", "--decomposition"])
def test_verify_refuses_a_bundle_whose_t_is_no_matrix(tmp_path, capsys,
                                                      flag, bad):
    # a malformed stored T is a ParseError naming it (exit 2), never a
    # silent fallback that drops the checks held to T
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "53")
    os.mkdir(tmp_path / "run")
    bundle = str(tmp_path / "run" / "full.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    doc = json.loads(open(bundle).read())
    doc["t"] = bad
    open(bundle, "w").write(io.dumps(doc))
    capsys.readouterr()
    target = str(tmp_path / "run") if flag == "--dir" else bundle
    code, out, err = run(["verify", flag, target], capsys)
    assert code == 2 and "full.json.t: " in err, err
    assert "pass" not in out


def test_verify_bundle_without_t_falls_back_to_input(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "53")
    bundle = str(tmp_path / "full.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    doc = json.loads(open(bundle).read())
    del doc["t"]
    open(bundle, "w").write(io.dumps(doc))
    capsys.readouterr()
    code, _, err = run(["verify", "--decomposition", bundle], capsys)
    assert code == 2 and "stores no source operator" in err, err
    code, out, _ = run(["verify", "--decomposition", bundle, "--input", t],
                       capsys)
    assert code == 0 and "reconstruction" in out


def _bundle_parts_as_files(tmp_path, capsys, seed):
    """t.json and the e1, e2, product and measure parts of its bundle,
    each written as its own file under parts/."""
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", str(seed))
    bundle = json.loads(run(["pipeline", "--input", t], capsys)[1])
    parts = tmp_path / "parts"
    parts.mkdir()
    for key in ("e1", "e2", "product", "measure"):
        io.write_json(bundle[key], str(parts / f"{key}.json"))
    return t, parts


def test_verify_dir_holds_only_measures_of_t_to_t(tmp_path, capsys):
    # E_A and E_B are measures of A and B: saved as files beside E_T,
    # they are validated, not held to reconstruction against --input
    t, parts = _bundle_parts_as_files(tmp_path, capsys, 59)
    code, out, _ = run(["verify", "--dir", str(parts), "--input", t], capsys)
    assert code == 0, out
    assert out.splitlines() == [f"{key}.json: measure pass" for key in
                                ("e1", "e2", "measure", "product")]
    e1 = parts / "e1.json"
    doc = json.loads(e1.read_text())
    doc["atoms"][0]["projection"]["entries"][0][0] += 0.05
    e1.write_text(json.dumps(doc))
    code, out, _ = run(["verify", "--dir", str(parts), "--input", t], capsys)
    assert code == 1
    assert "e1.json: measure FAIL" in out


@pytest.mark.parametrize("target", ["pvm", "dir", "bundle"])
def test_verify_holds_a_measure_of_t_to_an_operator_of_its_dimension(
        tmp_path, capsys, target):
    # a measure of T is held to reconstruction against the operator it
    # is checked with; one of another dimension is a DimensionMismatch,
    # as for a decomposition, never a pass with no reconstruction
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "71")
    other = gen_file(tmp_path, "other.json", "gen", "--kind",
                     "random_normal", "--dim", "3", "--seed", "72")
    work = tmp_path / "work"
    work.mkdir()
    if target == "bundle":
        # a 4-dim bundle whose measures of T were swapped for a valid
        # 3-dim measure of another operator
        bundle = json.loads(run(["pipeline", "--input", t, "--cross-check"],
                                capsys)[1])
        swap = json.loads(run(["pipeline", "--input", other,
                               "--cross-check"], capsys)[1])
        bundle["measure"] = bundle["direct"] = swap["measure"]
        io.write_json(bundle, str(work / "bundle.json"))
        args = ["--dir", str(work)]
    else:
        m = str(work / "m.json")
        assert main(["spectrum", "--input", other, "--emit", "measure",
                     "--output", m]) == 0
        args = ["--pvm", m] if target == "pvm" else ["--dir", str(work)]
    capsys.readouterr()
    code, out, err = run(["verify"] + args + ["--input", t], capsys)
    assert code == 2, out
    assert "dimension mismatch: 3 versus 4" in err


def test_verify_dir_fails_a_part_of_another_dimension_and_goes_on(
        tmp_path, capsys):
    # a measure of T or a decomposition of another dimension than the
    # operator fails its own file, named with its part; the files after
    # it are still checked, and the exit code is that of a usage error
    from spectral_forge.decomposition import decompose
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "71")
    other = gen_file(tmp_path, "other.json", "gen", "--kind",
                     "random_normal", "--dim", "3", "--seed", "72")
    work = tmp_path / "work"
    work.mkdir()
    for name, source in (("a.json", other), ("c.json", t)):
        assert main(["spectrum", "--input", source, "--emit", "measure",
                     "--output", str(work / name)]) == 0
    io.write_decomposition(None, decompose(io.read_matrix(other)),
                           str(work / "b.json"))
    capsys.readouterr()
    code, out, err = run(["verify", "--dir", str(work), "--input", t],
                         capsys)
    assert code == 2
    assert out.splitlines() == ["a.json: measure FAIL measure",
                                "b.json: decomposition FAIL decomposition",
                                "c.json: measure pass"]
    assert err.splitlines() == [
        "error: a.json: measure: dimension mismatch: 3 versus 4",
        "error: b.json: decomposition: operator and decomposition "
        "dimensions differ"]


def test_verify_dir_fails_a_part_that_raises_and_goes_on(tmp_path, capsys):
    # any error from a part's check fails that file alone, named with its
    # part: a pair with A = 1e40 I is refused past 2^128, and a measure
    # whose weighted sum overflows, though each entry is finite, is named
    # as such; the exit code is the worst over the files, 3 above 2
    import json
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "71")
    other = gen_file(tmp_path, "other.json", "gen", "--kind",
                     "random_normal", "--dim", "3", "--seed", "72")
    work = tmp_path / "work"
    work.mkdir()
    for name, source in (("a.json", t), ("b.json", other)):
        assert main(["spectrum", "--input", source, "--emit", "measure",
                     "--output", str(work / name)]) == 0
    doc = json.loads((work / "a.json").read_text())
    # entries below 2^128, which dense atoms are refused past
    doc["atoms"][0]["point"] = [1e300, 0.0]
    doc["atoms"][0]["projection"]["entries"][0] = [1e10, 0.0]
    (work / "a.json").write_text(json.dumps(doc))
    eye = [[1e40 if i == j else 0.0, 0.0] for i in range(4) for j in range(4)]
    zero = [[0.0, 0.0]] * 16
    (work / "a_dec.json").write_text(json.dumps({
        "a": {"dim": 4, "entries": eye}, "b": {"dim": 4, "entries": zero},
        "source_norm": 1.0}))
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", str(work / "c.json")]) == 0
    capsys.readouterr()
    code, out, err = run(["verify", "--dir", str(work), "--input", t],
                         capsys)
    assert code == 3
    assert out.splitlines() == [
        "a.json: measure FAIL measure",
        "a_dec.json: decomposition FAIL decomposition",
        "b.json: measure FAIL measure",
        "c.json: bundle(decomposition,e1,e2,product,measure) pass"]
    assert [line for line in err.splitlines()
            if line.startswith("error: ")] == [
        "error: a.json: measure: sum z_k P_k - T overflows the float range",
        "error: a_dec.json: decomposition: largest entry 1.000e+40 passes "
        "2^128; the sums of squares this route forms unscaled would overflow",
        "error: b.json: measure: dimension mismatch: 3 versus 4"]


@pytest.mark.parametrize("bad", ["json", "layout", "t"])
def test_verify_dir_fails_a_file_it_cannot_read_and_goes_on(tmp_path, capsys,
                                                            bad):
    # a file that is no JSON, of no known layout, or whose stored t is no
    # n x n matrix fails alone, its error named on stderr; the good
    # bundle after it still gets its status line, and the exit code is 2
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "73")
    work = tmp_path / "work"
    work.mkdir()
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", str(work / "b.json")]) == 0
    if bad == "t":
        doc = json.loads((work / "b.json").read_text())
        doc["t"]["entries"].pop()
        text = json.dumps(doc)
    else:
        text = "{not json" if bad == "json" else '{"foo": 1}'
    (work / "a.json").write_text(text)
    capsys.readouterr()
    code, out, err = run(["verify", "--dir", str(work), "--input", t],
                         capsys)
    assert code == 2
    assert out.splitlines() == [
        "a.json: FAIL",
        "b.json: bundle(decomposition,e1,e2,product,measure) pass"]
    message = {"json": f"{work / 'a.json'}: invalid JSON at line 1 column 2",
               "layout": "a.json: unrecognized artifact layout",
               "t": "a.json.t: expected 16 entries, got 15"}[bad]
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


MEASURE_ROWS = ["idempotency", "hermitian_defect", "orthogonality",
                "completeness", "rank_deficit", "min_point_gap",
                "reconstruction"]


def _measure_and_source(tmp_path, dim=8, seed=3):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", str(dim), "--seed", str(seed))
    m = str(tmp_path / "m.json")
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", m]) == 0
    return t, m


def test_verify_goes_on_past_an_explicit_target_it_cannot_read(tmp_path,
                                                                capsys):
    # an explicit target fails alone, as a --dir file does: the missing
    # file is named on stderr and the measure after it is still checked
    t, m = _measure_and_source(tmp_path)
    missing = str(tmp_path / "missing.json")
    capsys.readouterr()
    code, out, err = run(["verify", "--decomposition", missing, "--pvm", m,
                          "--input", t], capsys)
    assert code == 2
    assert err.startswith("error: cannot read ") and "missing.json" in err
    assert err.count("\n") == 1, err
    lines = out.splitlines()
    assert lines[0] == "m.json"
    assert [line.split()[0] for line in lines[1:]] == MEASURE_ROWS
    assert all(line.endswith("pass") for line in lines[1:])


def test_verify_goes_on_past_an_explicit_part_the_file_lacks(tmp_path,
                                                             capsys):
    # --decomposition on a measure fails that target alone; --pvm on the
    # same file still prints the measure's table
    t, m = _measure_and_source(tmp_path)
    capsys.readouterr()
    code, out, err = run(["verify", "--decomposition", m, "--pvm", m,
                          "--input", t], capsys)
    assert code == 2
    assert err == "error: m.json: holds no decomposition to check\n"
    lines = out.splitlines()
    assert lines[0] == "m.json"
    assert [line.split()[0] for line in lines[1:]] == MEASURE_ROWS


def test_verify_output_of_a_failing_target_is_not_written(tmp_path, capsys):
    # a measure held to an operator of another dimension fails before
    # its report exists: exit 2, and no --output file
    t5 = gen_file(tmp_path, "t5.json", "gen", "--kind", "random_normal",
                  "--dim", "5", "--seed", "4")
    m5 = str(tmp_path / "m5.json")
    assert main(["spectrum", "--input", t5, "--emit", "measure",
                 "--output", m5]) == 0
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "8", "--seed", "3")
    report = tmp_path / "r.json"
    capsys.readouterr()
    code, out, err = run(["verify", "--pvm", m5, "--input", t,
                          "--output", str(report)], capsys)
    assert (code, out) == (2, "")
    assert err == "error: dimension mismatch: 5 versus 8\n"
    assert not report.exists()


@pytest.mark.parametrize("bad, worst", [("missing", 2), ("huge", 3)])
def test_verify_dir_and_a_failing_explicit_target(tmp_path, capsys, bad,
                                                  worst):
    # --dir files and explicit targets are checked alike: the passing
    # bundle gets its status line, the explicit target its error, and
    # the exit code is the worst over both
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "73")
    work = tmp_path / "work"
    work.mkdir()
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", str(work / "b.json")]) == 0
    target = tmp_path / "d.json"
    if bad == "huge":
        eye = [[1e40 if i == j else 0.0, 0.0]
               for i in range(4) for j in range(4)]
        target.write_text(json.dumps({
            "a": {"dim": 4, "entries": eye},
            "b": {"dim": 4, "entries": [[0.0, 0.0]] * 16},
            "source_norm": 1.0}))
    capsys.readouterr()
    code, out, err = run(["verify", "--dir", str(work), "--decomposition",
                          str(target), "--input", t], capsys)
    assert code == worst
    assert out == "b.json: bundle(decomposition,e1,e2,product,measure) pass\n"
    message = {"missing": "error: cannot read ",
               "huge": "error: largest entry 1.000e+40 passes 2^128"}[bad]
    assert err.startswith(message) and err.count("\n") == 1, err


def test_verify_fails_a_file_whose_t_is_not_the_input(tmp_path, capsys):
    # a bundle or decomposition storing another t than --input fails,
    # named t, in --dir and as an explicit target; a measure stores no t
    # and is held to --input by its reconstruction
    t3 = gen_file(tmp_path, "t3.json", "gen", "--kind", "random_normal",
                  "--dim", "6", "--seed", "3")
    t4 = gen_file(tmp_path, "t4.json", "gen", "--kind", "random_normal",
                  "--dim", "6", "--seed", "4")
    work = tmp_path / "work"
    work.mkdir()
    assert main(["pipeline", "--input", t3, "--emit", "all",
                 "--output", str(work / "b.json")]) == 0
    assert main(["decompose", "--input", t3,
                 "--output", str(work / "d.json")]) == 0
    assert main(["spectrum", "--input", t3, "--emit", "measure",
                 "--output", str(work / "m.json")]) == 0
    capsys.readouterr()
    code, out, _ = run(["verify", "--dir", str(work), "--input", t3], capsys)
    assert code == 0, out
    code, out, _ = run(["verify", "--dir", str(work), "--input", t4], capsys)
    assert code == 1
    assert out.splitlines() == [
        "b.json: bundle(decomposition,e1,e2,product,measure) FAIL t",
        "d.json: decomposition FAIL t",
        "m.json: measure FAIL reconstruction"]
    for flag, name in (("--pvm", "b.json"), ("--decomposition", "d.json")):
        code, same, _ = run(["verify", flag, str(work / name),
                             "--input", t3], capsys)
        assert code == 0
        assert same.splitlines()[-1].split() == [
            "t", "value", "0.000000e+00", "bound", "0.000000e+00", "pass"]
        code, out, _ = run(["verify", flag, str(work / name),
                            "--input", t4], capsys)
        assert code == 1
        lines = out.splitlines()
        # all 36 entries of a 6x6 t differ between the two seeds
        assert lines[-1].split() == [
            "t", "value", "3.600000e+01", "bound", "0.000000e+00", "FAIL"]
        assert lines[:-1] == same.splitlines()[:-1]
    # a measure stores no t, so its table gains no t row
    code, out, _ = run(["verify", "--pvm", str(work / "m.json"),
                        "--input", t3], capsys)
    assert code == 0 and "\n  t " not in out


def test_verify_output_holds_the_t_record_it_prints(tmp_path, capsys):
    # the stored-t compare is a report record: --output, the table and
    # the exit code all give it, for a pair and for a bundle's measure
    t3 = gen_file(tmp_path, "t3.json", "gen", "--kind", "random_normal",
                  "--dim", "6", "--seed", "3")
    t4 = gen_file(tmp_path, "t4.json", "gen", "--kind", "random_normal",
                  "--dim", "6", "--seed", "4")
    d, b = str(tmp_path / "d.json"), str(tmp_path / "b.json")
    assert main(["decompose", "--input", t3, "--emit", "all",
                 "--output", d]) == 0
    assert main(["pipeline", "--input", t3, "--emit", "all",
                 "--output", b]) == 0
    capsys.readouterr()
    r = tmp_path / "r.json"
    for flag, path in (("--decomposition", d), ("--pvm", b)):
        code, out, _ = run(["verify", flag, path, "--input", t4,
                            "--output", str(r)], capsys)
        assert code == 1
        report = io.read_report(str(r))
        assert not report.all_passed
        assert report.failed == ["t"]
        assert report.residuals["t"] == 36.0
        rows = [line.split()[0] for line in out.splitlines()[1:]]
        assert rows == list(report.residuals)
        r.unlink()
    # across dimensions every entry of the stored t counts
    t5 = gen_file(tmp_path, "t5.json", "gen", "--kind", "random_normal",
                  "--dim", "5", "--seed", "4")
    code, _, _ = run(["verify", "--decomposition", d, "--input", t5,
                      "--output", str(r)], capsys)
    assert code == 1
    assert io.read_report(str(r)).residuals["t"] == 36.0


@pytest.mark.parametrize("target", ["pvm", "dir"])
def test_verify_refuses_a_dense_atom_entry_past_2_128(tmp_path, capsys,
                                                      target):
    # a stored projection entry of 1e200 is refused before any product
    # is formed: exit 3 with ScaleLimit's message, no numpy overflow
    # warning, and no report written
    import warnings
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "3")
    work = tmp_path / "work"
    work.mkdir()
    m = work / "m.json"
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", str(m)]) == 0
    doc = json.loads(m.read_text())
    doc["atoms"][0]["projection"]["entries"][1][0] = 1e200
    m.write_text(json.dumps(doc))
    report = tmp_path / "r.json"
    args = (["--pvm", str(m), "--output", str(report)] if target == "pvm"
            else ["--dir", str(work)])
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(["verify"] + args + ["--input", t], capsys)
    assert code == 3
    assert "largest entry 1.000e+200 passes 2^128" in err, err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "nan" not in out and "inf" not in out
    assert not report.exists()


def test_verify_pvm_on_a_measure_of_a_has_no_reconstruction(tmp_path, capsys):
    t, parts = _bundle_parts_as_files(tmp_path, capsys, 61)
    for key, rows in (("e1", ()), ("measure", ("reconstruction",))):
        code, out, _ = run(["verify", "--pvm", str(parts / f"{key}.json"),
                            "--input", t], capsys)
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()[1:]] == [
            "idempotency", "hermitian_defect", "orthogonality",
            "completeness", "rank_deficit", "min_point_gap", *rows]


def test_write_pvm_of_e_a_is_not_held_to_t(tmp_path, capsys):
    # E_A written on its own says it resolves A, so verify --pvm
    # validates it and holds it to no reconstruction against --input
    from spectral_forge.gallery import OperatorSpec, generate
    from spectral_forge.pipeline import spectral_theorem
    t = generate(OperatorSpec("random_normal", dim=5, scale=2.0, seed=67))
    src, e1 = str(tmp_path / "t.json"), str(tmp_path / "e1.json")
    io.write_matrix(t, src)
    io.write_pvm(spectral_theorem(t).e1, e1)
    code, out, _ = run(["verify", "--pvm", e1, "--input", src], capsys)
    assert code == 0, out
    assert "reconstruction" not in out


def test_momentum_at_9e5_bundle_passes_verify(tmp_path, capsys):
    # E_A's points join relative to their own size in the pipeline and
    # in verify's min_point_gap alike, so both pass the bundle
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "momentum_1d",
                 "--dim", "48", "--scale", "9e5")
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, err = run(["pipeline", "--input", t, "--emit", "all",
                        "--output", str(out_dir / "bundle.json")], capsys)
    assert code == 0, err
    code, out, _ = run(["verify", "--dir", str(out_dir), "--input", t], capsys)
    assert code == 0, out
    assert out.splitlines() == ["bundle.json: bundle(decomposition,e1,e2,"
                                "product,measure) pass"]


@pytest.mark.parametrize("of", [None, "X"], ids=["missing", "unknown"])
def test_measure_doc_must_name_its_operator(tmp_path, capsys, of):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "63")
    m = tmp_path / "m.json"
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", str(m)]) == 0
    doc = json.loads(m.read_text())
    if of is None:
        del doc["of"]
    else:
        doc["of"] = of
    m.write_text(json.dumps(doc))
    capsys.readouterr()
    for args in (["--pvm", str(m)], ["--dir", str(tmp_path)]):
        code, _, err = run(["verify"] + args, capsys)
        assert code == 2
        assert err.startswith("error: m.json:") and "'of'" in err, err


def test_measure_docs_name_their_operator_and_nothing_unread(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "65")
    code, out, _ = run(["pipeline", "--input", t, "--cross-check"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert {key: doc[key]["of"] for key in ("e1", "e2", "measure", "direct")
            } == {"e1": "A", "e2": "B", "measure": "T", "direct": "T"}
    for key in ("e1", "e2", "measure", "direct"):
        assert set(doc[key]) == {"dim", "of", "atoms"}
        assert all(set(atom) == {"point", "projection"}
                   for atom in doc[key]["atoms"])


@pytest.mark.parametrize("kind, per_norm", [
    ("random_normal", 1.0), ("random_hermitian", 1.0),
    ("momentum_1d", 1.0), ("laplacian_1d", 0.25)])
def test_verify_dir_passes_the_bundles_the_pipeline_passes(tmp_path, capsys,
                                                           kind, per_norm):
    # verify --dir agrees with the pipeline's report on every bundle
    for n in (4, 8, 16):
        for norm in (1e-2, 1.0, 1e2):
            case = tmp_path / f"{n}-{norm}"
            case.mkdir()
            t = gen_file(case, "t.json", "gen", "--kind", kind, "--dim",
                         str(n), "--scale", str(norm * per_norm),
                         "--seed", str(n))
            assert main(["pipeline", "--input", t, "--emit", "all",
                         "--output", str(case / "bundle.json")]) == 0
            code, out, _ = run(["verify", "--dir", str(case), "--input", t],
                               capsys)
            assert code == 0, (n, norm, out)


@pytest.mark.parametrize("kind, scale", [
    ("random_normal", 1e5), ("random_normal", 9e5),
    ("random_hermitian", 1e5), ("momentum_1d", 1e5), ("laplacian_1d", 1e5)])
def test_verify_dir_passes_large_norm_bundles(tmp_path, capsys, kind, scale):
    # the pipeline and verify hold a measure of T to one reconstruction
    # rule, so past ||T|| = 1e2 too every bundle the pipeline passes
    # passes verify --dir
    t = gen_file(tmp_path, "t.json", "gen", "--kind", kind, "--dim", "8",
                 "--scale", str(scale), "--seed", "3")
    case = tmp_path / "case"
    case.mkdir()
    assert main(["pipeline", "--input", t, "--emit", "all",
                 "--output", str(case / "bundle.json")]) == 0
    code, out, _ = run(["verify", "--dir", str(case), "--input", t], capsys)
    assert code == 0, out


BIG = "1" + "0" * 400  # an integer literal beyond double range


@pytest.mark.parametrize("name, path, literal, command, where", [
    ("t.json", ("entries", 0, 0), BIG, ["decompose", "--input"],
     "t.json.entries[0]"),
    ("e.json", ("atoms", 0, "point", 0), BIG, ["verify", "--pvm"],
     "e.json.atoms[0].point"),
    ("p.json", ("atoms", 0, "w", 1), BIG, ["verify", "--pvm"],
     "p.json.atoms[0].w"),
    ("p.json", ("atoms", 0, "t"), BIG, ["verify", "--pvm"],
     "p.json.atoms[0].t"),
    ("d.json", ("source_norm",), BIG, ["verify", "--decomposition"],
     "d.json.source_norm"),
    ("p.json", ("atoms", 0, "t"), "1e999", ["verify", "--pvm"],
     "p.json.atoms[0].t"),
    ("d.json", ("source_norm",), "1e999", ["verify", "--decomposition"],
     "d.json.source_norm"),
    ("t.json", ("entries", 0, 0), "1e999", ["decompose", "--input"],
     "t.json.entries[0]"),
    ("e.json", ("atoms", 0, "projection", "entries", 5, 1), BIG,
     ["verify", "--pvm"], "e.json.atoms[0].projection.entries[5]"),
], ids=["entries-big", "point-big", "w-big", "t-big", "source_norm-big",
        "t-inf", "source_norm-inf", "entries-inf", "projection-big"])
def test_number_beyond_double_range_exits_2(tmp_path, capsys, name, path,
                                             literal, command, where):
    # json reads 1e999 as inf and keeps a long integer exact; neither is
    # a double an artifact can hold, so both are malformed input
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "61")
    bundle = json.loads(run(["pipeline", "--input", t], capsys)[1])
    io.write_json(bundle["measure"], str(tmp_path / "e.json"))
    io.write_json(bundle["product"], str(tmp_path / "p.json"))
    assert main(["decompose", "--input", t,
                 "--output", str(tmp_path / "d.json")]) == 0
    target = str(tmp_path / name)
    doc = json.loads(open(target).read())
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = "@"
    open(target, "w").write(json.dumps(doc).replace('"@"', literal))
    capsys.readouterr()
    code, _, err = run(command + [target], capsys)
    assert code == 2
    assert err.startswith(f"error: {where}: not a finite double")


@pytest.mark.parametrize("literal", ["true", '"1.5"', "null"])
def test_non_number_in_last_entry_exits_2(tmp_path, capsys, literal):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "61")
    doc = json.loads(open(t).read())
    doc["entries"][8][1] = "@"
    open(t, "w").write(json.dumps(doc).replace('"@"', literal))
    code, _, err = run(["pipeline", "--input", t], capsys)
    assert code == 2
    assert err.startswith("error: t.json.entries[8]: expected a number")


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_bytes(b'{"dim": 1, "entries": [[1.0, 0.0]], "note": "\xff"}')
    code, _, err = run(["decompose", "--input", str(path)], capsys)
    assert code == 2
    assert f"{path}: not UTF-8 text" in err


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"dim": ' + "[" * 100000 + "]" * 100000 + "}")
    code, _, err = run(["verify", "--pvm", str(path)], capsys)
    assert code == 2
    assert f"{path}: JSON nested too deeply" in err


def test_non_object_part_exits_2(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "67")
    dec = str(tmp_path / "d.json")
    assert main(["decompose", "--input", t, "--output", dec]) == 0
    doc = json.loads(open(dec).read())
    doc["t"] = 5
    open(dec, "w").write(json.dumps(doc))
    bundle = str(tmp_path / "b.json")
    assert main(["pipeline", "--input", t, "--output", bundle]) == 0
    doc = json.loads(open(bundle).read())
    doc["decomposition"] = 5
    open(bundle, "w").write(json.dumps(doc))
    capsys.readouterr()
    code, _, err = run(["verify", "--decomposition", dec], capsys)
    assert (code, err) == (2, "error: d.json.t: expected an object\n")
    code, _, err = run(["verify", "--decomposition", bundle], capsys)
    assert (code, err) == (2, "error: b.json: expected an object\n")


@pytest.mark.parametrize("command, flag", [
    ("gen", ["--tol-rel", "1e-9"]),
    ("gen", ["--tol-abs", "1e-12"]),
    ("gen", ["--cluster", "1e-8"]),
    ("gen", ["--emit", "all"]),
    ("gen", ["--input", "t.json"]),
    ("verify", ["--emit", "all"]),
    ("verify", ["--seed", "1"]),
    ("decompose", ["--seed", "1"]),
    ("spectrum", ["--seed", "1"]),
    ("pipeline", ["--seed", "1"]),
    # the absolute floor is a constant: no subcommand reads --tol-abs
    ("decompose", ["--tol-abs", "1e-12"]),
    ("spectrum", ["--tol-abs", "1e-12"]),
    ("pipeline", ["--tol-abs", "1e-12"]),
    ("verify", ["--tol-abs", "1e-12"]),
    # decompose joins no atom: it reads no tolerance
    ("decompose", ["--cluster", "1e-3"]),
    # the relative tolerance is a constant: no subcommand reads --tol-rel
    ("decompose", ["--tol-rel", "1e-9"]),
    ("spectrum", ["--tol-rel", "1e-9"]),
    ("pipeline", ["--tol-rel", "1e-9"]),
    ("verify", ["--tol-rel", "1e-9"]),
    # a measure carries the radius it joined by: verify reads no --cluster
    ("verify", ["--cluster", "1e-6"]),
])
def test_flags_a_command_does_not_read_exit_2(tmp_path, capsys, command,
                                               flag):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "multiplication",
                 "--dim", "3")
    m = str(tmp_path / "m.json")
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", m]) == 0
    args = {"gen": ["--kind", "multiplication", "--dim", "3"],
            "verify": ["--pvm", m]}.get(command, ["--input", t])
    capsys.readouterr()
    code, _, err = run([command] + args + flag, capsys)
    assert code == 2
    assert "unrecognized arguments: " + " ".join(flag) in err


@pytest.mark.parametrize("scale", ["1e160", "1e300"])
@pytest.mark.parametrize("kind", [["momentum_1d"],
                                  ["random_normal", "--seed", "2"]],
                         ids=["momentum_1d", "random_normal"])
def test_every_command_past_squared_overflow(tmp_path, capsys, kind, scale):
    # squares of these entries overflow: every command, the pipeline
    # forced or not, refuses with the one 2^128 ScaleLimit (exit 3)
    # before any solve, and no numpy overflow warning reaches stderr
    import warnings
    t = gen_file(tmp_path, "t.json", "gen", "--kind", *kind, "--dim", "4",
                 "--scale", scale)
    overflow = "passes 2^128; the sums of squares this route forms " \
        "unscaled would overflow"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in (["decompose"], ["spectrum"], ["pipeline"],
                        ["pipeline", "--force-scale"]):
            code, _, err = run(command + ["--input", t], capsys)
            assert code == 3 and overflow in err, (command, err)
            assert err.count("error:") == 1 and "RuntimeWarning" not in err
        code, out, err = run(["verify", "--dir", str(tmp_path), "--input", t],
                             capsys)
        assert code == 0 and "skipped (operator matrix)" in out
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("part", ["t", "a", "b"])
def test_verify_refuses_a_stored_pair_past_2_128(tmp_path, capsys, part):
    # a stored T, A or B of 1e200 is refused before verify forms any
    # product: exit 3, and no numpy overflow warning
    import warnings
    from spectral_forge.decomposition import Decomposition, decompose
    t = io.read_matrix(gen_file(tmp_path, "t.json", "gen", "--kind",
                                "random_normal", "--dim", "4", "--seed", "2"))
    d = decompose(t)
    arrays = {"t": t.array, "a": d.a.array, "b": d.b.array}
    arrays[part] = arrays[part] * 1e200
    path = str(tmp_path / "d.json")
    io.write_json(io.decomposition_to_doc(
        OperatorMatrix(arrays["t"]), Decomposition(
            OperatorMatrix(arrays["a"]), OperatorMatrix(arrays["b"]),
            d.source_norm)), path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(["verify", "--decomposition", path], capsys)
    assert code == 3 and "passes 2^128" in err, err
    assert "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_pipeline_run_leaves_numpy_ma_unimported(tmp_path):
    # numpy.ma costs about 17 ms to import, and np.unique asked for no
    # indices imports it; momentum_1d's rank-2 atoms take the K-block path
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "momentum_1d",
                 "--dim", "12", "--scale", "3")
    bundle = str(tmp_path / "bundle.json")
    script = (
        "import sys\n"
        "from spectral_forge.cli import main\n"
        f"code = main(['pipeline', '--input', {t!r}, '--emit', 'all', "
        f"'--output', {bundle!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    src = str(Path(spectral_forge.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_explicit_radius_passes_pipeline_and_verify(tmp_path, capsys):
    # --cluster is read for the measures of T alone: the pipeline passes
    # its report with any radius, its measures of T carry the radius and
    # E_A and E_B none, and verify --dir passes the bundle with no flag
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "12", "--scale", "1000", "--seed", "3")
    for radius in ("1e-9", "1e-6", "1e-3"):
        case = tmp_path / f"case{radius}"
        case.mkdir()
        bundle = case / "bundle.json"
        code, _, err = run(["pipeline", "--input", t, "--cluster", radius,
                            "--cross-check", "--emit", "all",
                            "--output", str(bundle)], capsys)
        assert code == 0, (radius, err)
        doc = json.loads(bundle.read_text())
        assert [doc[key].get("cluster") for key in ("e1", "e2", "measure",
                "direct")] == [None, None, float(radius), float(radius)]
        code, out, _ = run(["verify", "--dir", str(case), "--input", t],
                           capsys)
        assert code == 0, (radius, out)
        assert out == "bundle.json: bundle(decomposition,e1,e2,product," \
            "measure,direct) pass\n"


def test_a_measure_is_verified_by_the_radius_it_was_built_with(tmp_path,
                                                               capsys):
    # momentum_1d's points pi/6 apart, minus rounding, come 1.1e-16 apart
    # at the ends; a radius of 1e-20 keeps them apart, and verify, with
    # no flag, holds the written measure to that radius, not the default
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "momentum_1d",
                 "--dim", "12")
    m = str(tmp_path / "m.json")
    code, _, err = run(["spectrum", "--input", t, "--cluster", "1e-20",
                        "--emit", "measure", "--output", m], capsys)
    assert (code, err) == (0, "spectrum (12 atoms): all 7 checks passed\n")
    assert list(json.loads(open(m).read())) == ["dim", "of", "cluster",
                                                 "atoms"]
    code, out, _ = run(["verify", "--pvm", m, "--input", t], capsys)
    assert code == 0, out
    gap = next(line for line in out.splitlines() if "min_point_gap" in line)
    assert "bound 1.000000e-20  pass" in gap


@pytest.mark.parametrize("of, cluster, message", [
    ("T", -1, "cluster must be strictly positive"),
    ("T", 0, "cluster must be strictly positive"),
    ("T", "x", "expected a number"),
    ("T", 1e999, "not a finite double"),
    ("A", 1e-6, "carries no cluster radius"),
    ("B", 1e-6, "carries no cluster radius"),
], ids=["negative", "zero", "string", "infinite", "of-A", "of-B"])
def test_a_bad_radius_in_a_measure_doc_exits_2(tmp_path, capsys, of, cluster,
                                               message):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "63")
    m = tmp_path / "m.json"
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", str(m)]) == 0
    doc = json.loads(m.read_text())
    doc = {"dim": doc["dim"], "of": of, "cluster": cluster,
           "atoms": doc["atoms"]}
    m.write_text(json.dumps(doc).replace("Infinity", "1e999"))
    capsys.readouterr()
    for args in (["--pvm", str(m)], ["--dir", str(tmp_path)]):
        code, _, err = run(["verify"] + args, capsys)
        assert code == 2
        assert err.startswith("error: m.json") and message in err, err


def test_non_normal_past_2_128_is_refused_as_non_normal(tmp_path, capsys):
    # every command tests normality before it refuses an entry past 2^128
    t = gen_file(tmp_path, "j.json", "gen", "--kind", "jordan_block",
                 "--dim", "4", "--scale", "1e300")
    for command in (["decompose"], ["spectrum"], ["pipeline"],
                    ["pipeline", "--force-scale"]):
        code, _, err = run(command + ["--input", t], capsys)
        assert code == 3 and "normal" in err and "2^128" not in err, err


def test_tolerance_flags_are_read_and_checked(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "5", "--seed", "4")
    code, out, _ = run(["spectrum", "--input", t, "--cluster", "1e-8",
                        "--emit", "report"], capsys)
    assert code == 0
    assert set(json.loads(out)) == {"residuals", "pass", "tolerances"}
    code, _, err = run(["spectrum", "--input", t, "--cluster", "-1"], capsys)
    assert code == 2 and "cluster must be strictly positive" in err


def test_verify_dir_of_a_report_finds_nothing_checkable(tmp_path, capsys):
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "4", "--seed", "4")
    case = tmp_path / "case"
    case.mkdir()
    assert main(["spectrum", "--input", t, "--emit", "report",
                 "--output", str(case / "r.json")]) == 0
    capsys.readouterr()
    code, out, err = run(["verify", "--dir", str(case)], capsys)
    assert code == 0
    assert out == "r.json: skipped (report artifact)\n"
    assert err == "nothing checkable found\n"


def test_verify_usage_errors_exit_2(tmp_path, capsys):
    odd = tmp_path / "odd.json"
    odd.write_text('{"foo": 1}')
    code, _, err = run(["verify", "--pvm", str(odd)], capsys)
    assert code == 2 and "odd.json: unrecognized artifact layout" in err
    code, _, err = run(["verify", "--dir", str(tmp_path / "none")], capsys)
    assert code == 2 and "cannot list" in err
    t = gen_file(tmp_path, "t.json", "gen", "--kind", "random_normal",
                 "--dim", "3", "--seed", "4")
    e = str(tmp_path / "e.json")
    assert main(["spectrum", "--input", t, "--emit", "measure",
                 "--output", e]) == 0
    capsys.readouterr()
    code, _, err = run(["verify", "--decomposition", e], capsys)
    assert code == 2 and "e.json: holds no decomposition to check" in err
