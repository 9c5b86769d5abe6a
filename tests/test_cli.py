"""CLI surface: command round trips, library equivalence, exit codes."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import subsketch as ss
from subsketch import (
    SketchSpec,
    apply as lib_apply,
    build_osnap,
    exact_leverage,
    independence_degree,
    load_matrix,
    load_sketch,
    save_matrix,
)
from subsketch.cli import EXIT_IO, EXIT_OK, EXIT_PARAMETER, EXIT_VERIFY, main
from subsketch.pipeline import PipelineConfig
from subsketch.experiments import run_config
from subsketch.leverage import _DIRECT, _sketch_rows


def _run_cli(argv):
    """Run ``python -m subsketch.cli argv`` in a fresh process against this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    return subprocess.run([sys.executable, "-m", "subsketch.cli", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.standard_normal((200, 6))
    path = tmp_path / "A.mtx"
    save_matrix(path, A)
    return path, A


class TestSketchCommand:
    def test_sketch_then_apply_matches_library(self, tmp_path, matrix_file):
        mpath, A = matrix_file
        skt = tmp_path / "s.skt"
        out = tmp_path / "out.mtx"
        rc = main(["sketch", "--kind", "osnap", "--m", "64", "--n", "200",
                   "--p", "0.125", "--seed", "1", "--out", str(skt)])
        assert rc == EXIT_OK
        rc = main(["apply", str(skt), str(mpath), "--out", str(out)])
        assert rc == EXIT_OK
        spec = SketchSpec(kind="osnap", m=64, n=200, p=0.125, seed=1,
                          degree_k=8)
        want = lib_apply(build_osnap(spec), A)
        got = load_matrix(out)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", ["0", "-3"])
    def test_out_of_range_m_exits_2_in_subprocess(self, tmp_path, m):
        # --m 0 once died on a ZeroDivisionError traceback from s / m (exit 1)
        proc = _run_cli(["sketch", "--kind", "osnap", "--m", m, "--n", "16", "--s", "1",
                         "--out", str(tmp_path / "s.skt")])
        assert proc.returncode == EXIT_PARAMETER, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "s.skt").exists()

    @pytest.mark.parametrize("flags", [
        ["--p", "0.5", "--s", "2"],  # --s was once ignored: p = 0.5, exit 0
        [],
        ["--p", "0.5", "--family", "kwise"],  # the kind fixes the model
        # ose-ie does not hash with K: --degree-k 3 and 99 once wrote the same
        # payload under headers that differed only in degree_k
        ["--p", "0.5", "--degree-k", "3"],
    ], ids=["p-and-s", "neither", "family", "degree-k"])
    def test_rejected_flags_exit_2_in_subprocess(self, tmp_path, flags):
        proc = _run_cli(["sketch", "--kind", "ose-ie", "--m", "8", "--n", "16", *flags,
                         "--out", str(tmp_path / "s.skt")])
        assert proc.returncode == EXIT_PARAMETER, proc.stderr
        assert "error:" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "s.skt").exists()

    def test_less_ie_rejects_degree_k(self, tmp_path):
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"beta1": 1.0, "beta2": 1.0, "z": [0.5] * 16}))
        rc = main(["sketch", "--kind", "less-ie", "--m", "8", "--p", "0.25",
                   "--scores", str(scores), "--degree-k", "8", "--out", str(tmp_path / "s.skt")])
        assert rc == EXIT_PARAMETER
        assert not (tmp_path / "s.skt").exists()

    @pytest.mark.parametrize("kind", ["osnap", "ose-ie"])
    def test_default_degree_k_keeps_the_bytes(self, tmp_path, kind):
        # without --degree-k the CLI writes the library's default spec: K = 8
        # for osnap, no K for ose-ie
        out = tmp_path / "s.skt"
        assert main(["sketch", "--kind", kind, "--m", "8", "--n", "16", "--s", "2",
                     "--seed", "3", "--out", str(out)]) == EXIT_OK
        spec = SketchSpec(kind=kind, m=8, n=16, p=0.25, seed=3)
        ss.build(spec).save(tmp_path / "lib.skt")
        assert out.read_bytes() == (tmp_path / "lib.skt").read_bytes()

    def test_less_ic_needs_scores(self, tmp_path):
        rc = main(["sketch", "--kind", "less-ic", "--m", "32", "--p", "0.25",
                   "--out", str(tmp_path / "s.skt")])
        assert rc == EXIT_PARAMETER

    def test_less_ic_with_scores(self, tmp_path, matrix_file):
        mpath, A = matrix_file
        scores_path = tmp_path / "scores.json"
        rc = main(["leverage", str(mpath), "--exact", "--out", str(scores_path)])
        assert rc == EXIT_OK
        rc = main(["sketch", "--kind", "less-ic", "--m", "64", "--s", "8",
                   "--scores", str(scores_path), "--seed", "2",
                   "--out", str(tmp_path / "s.skt")])
        assert rc == EXIT_OK
        sk = load_sketch(tmp_path / "s.skt")
        assert sk.spec.kind == "less-ic"
        assert "scores_sha256" in sk.extras

    @pytest.mark.parametrize("payload", [
        "{not json",
        json.dumps({"beta1": 1.0, "beta2": 1.0, "z": ["x"] * 200}),
        json.dumps({"beta1": 1.0, "z": [0.5] * 200}),
    ], ids=["malformed-json", "non-numeric-score", "missing-key"])
    def test_bad_scores_file_is_io_error(self, tmp_path, payload):
        scores = tmp_path / "scores.json"
        scores.write_text(payload)
        rc = main(["sketch", "--kind", "less-ic", "--m", "64", "--s", "8",
                   "--scores", str(scores), "--out", str(tmp_path / "s.skt")])
        assert rc == EXIT_IO
        assert not (tmp_path / "s.skt").exists()

    def test_structural_error_exit_code(self, tmp_path):
        rc = main(["sketch", "--kind", "osnap", "--m", "4", "--n", "3",
                   "--p", "0.75", "--out", str(tmp_path / "s.skt")])
        assert rc == EXIT_PARAMETER


class TestLeverageCommand:
    def test_exact_scores_roundtrip(self, tmp_path, matrix_file):
        mpath, A = matrix_file
        out = tmp_path / "scores.json"
        assert main(["leverage", str(mpath), "--exact", "--out", str(out)]) == EXIT_OK
        payload = json.loads(out.read_text())
        np.testing.assert_allclose(payload["z"], exact_leverage(A).z, atol=1e-12)

    @pytest.mark.parametrize("sparse", [False, True], ids=["array", "coordinate"])
    def test_complex_matrix_is_io_error(self, tmp_path, sparse):
        # the imaginary parts were once dropped: exit 0, and on a coordinate
        # file scores summing to ~1e-14 instead of d
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 4)) + 1j * rng.standard_normal((40, 4))
        path = tmp_path / "c.mtx"
        save_matrix(path, scipy.sparse.csr_matrix(A) if sparse else A)
        out = tmp_path / "z.json"
        assert main(["leverage", str(path), "--exact", "--out", str(out)]) == EXIT_IO
        assert not out.exists()

    def test_gamma_mode(self, tmp_path, matrix_file):
        mpath, _ = matrix_file
        out = tmp_path / "scores.json"
        rc = main(["leverage", str(mpath), "--gamma", "0.5", "--seed", "3",
                   "--out", str(out)])
        assert rc == EXIT_OK
        payload = json.loads(out.read_text())
        assert payload["beta1"] >= 4.0


class TestApplyCommand:
    def test_missing_file_is_io_error(self, tmp_path):
        rc = main(["apply", str(tmp_path / "none.skt"), str(tmp_path / "none.mtx"),
                   "--out", str(tmp_path / "o.mtx")])
        assert rc == EXIT_IO

    def test_dimension_mismatch_is_parameter_error(self, tmp_path, matrix_file):
        mpath, _ = matrix_file
        skt = tmp_path / "s.skt"
        main(["sketch", "--kind", "osnap", "--m", "16", "--n", "50",
              "--p", "0.25", "--out", str(skt)])
        rc = main(["apply", str(skt), str(mpath), "--out", str(tmp_path / "o.mtx")])
        assert rc == EXIT_PARAMETER

    @pytest.mark.parametrize("field,index,value", [("rows", 7, 999), ("indptr", -1, 5)])
    def test_corrupt_sketch_exits_3_in_subprocess(self, tmp_path, field, index, value):
        # both files once crashed the sparse product with a segfault
        skt = tmp_path / "s.skt"
        main(["sketch", "--kind", "osnap", "--m", "16", "--n", "50",
              "--p", "0.25", "--out", str(skt)])
        raw = bytearray(skt.read_bytes())
        start = 16 + int.from_bytes(raw[8:16], "little")
        offset = start + 8 * (51 + index) if field == "rows" else start + 8 * 50
        raw[offset:offset + 8] = int(value).to_bytes(8, "little")
        skt.write_bytes(bytes(raw))
        A = tmp_path / "A.mtx"
        save_matrix(A, np.ones((50, 3)))
        proc = _run_cli(["apply", str(skt), str(A), "--out", str(tmp_path / "o.mtx")])
        assert proc.returncode == EXIT_IO, proc.stderr
        assert "error:" in proc.stderr

    def test_threads_flag_removed(self, tmp_path, matrix_file):
        mpath, _ = matrix_file
        with pytest.raises(SystemExit):
            main(["leverage", str(mpath), "--exact", "--threads", "2",
                  "--out", str(tmp_path / "z.json")])

    def test_malformed_matrix_is_io_error(self, tmp_path):
        skt = tmp_path / "s.skt"
        main(["sketch", "--kind", "osnap", "--m", "16", "--n", "50",
              "--p", "0.25", "--out", str(skt)])
        bad = tmp_path / "bad.mtx"
        bad.write_text("not a matrix market file\n")
        rc = main(["apply", str(skt), str(bad), "--out", str(tmp_path / "o.mtx")])
        assert rc == EXIT_IO


class TestNonFiniteInput:
    """One NaN in a 2000x8 CSR input: a typed error (exit 2), no output."""

    @pytest.fixture
    def nan_matrix(self, tmp_path):
        A = scipy.sparse.random(2000, 8, density=0.05, random_state=3, format="csr")
        A = (A + scipy.sparse.eye(2000, 8, format="csr")).tocsr()
        A.data[A.data.size // 2] = np.nan
        path = tmp_path / "nan.mtx"
        save_matrix(path, A)
        return path

    @pytest.mark.parametrize("kind", ["osnap", "less-ic"])
    def test_pipeline(self, tmp_path, nan_matrix, kind):
        out = tmp_path / "o.mtx"
        rc = main(["pipeline", str(nan_matrix), "--eps", "0.5", "--kind", kind,
                   "--out", str(out)])
        assert rc == EXIT_PARAMETER
        assert not out.exists()

    @pytest.mark.parametrize("mode", [["--exact"], ["--gamma", "0.5"]])
    def test_leverage(self, tmp_path, nan_matrix, mode):
        out = tmp_path / "z.json"
        rc = main(["leverage", str(nan_matrix), *mode, "--out", str(out)])
        assert rc == EXIT_PARAMETER
        assert not out.exists()

    @pytest.mark.parametrize("route", ["direct", "sketch"])
    def test_leverage_gamma_on_either_route(self, tmp_path, nan_matrix, route):
        # the fixture's ~680 nonzero rows are factored directly; a dense
        # 4096x8 input's 4096 rows go through the leverage sketch
        path = nan_matrix
        if route == "sketch":
            A = np.random.default_rng(4).standard_normal((4096, 8))
            A[100, 3] = np.nan
            path = tmp_path / "dense.mtx"
            save_matrix(path, A)
        A = load_matrix(path)
        n, d = A.shape
        r = np.count_nonzero(np.diff(A.indptr)) if scipy.sparse.issparse(A) else n
        assert (r <= _DIRECT * _sketch_rows(d, n)) == (route == "direct")
        out = tmp_path / "z.json"
        rc = main(["leverage", str(path), "--gamma", "0.5", "--out", str(out)])
        assert rc == EXIT_PARAMETER
        assert not out.exists()

    def test_apply(self, tmp_path, nan_matrix):
        skt = tmp_path / "s.skt"
        main(["sketch", "--kind", "osnap", "--m", "16", "--n", "2000",
              "--p", "0.25", "--out", str(skt)])
        out = tmp_path / "o.mtx"
        rc = main(["apply", str(skt), str(nan_matrix), "--out", str(out)])
        assert rc == EXIT_PARAMETER
        assert not out.exists()


class TestVerifyCommand:
    def test_passing_config(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "embedding",
            "kind": "gaussian-dense",
            "d": 8,
            "n": 256,
            "eps": 0.9,
            "delta": 0.05,
            "trials": 20,
            "seed": 4,
            "sampler": "haar",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        rc = main(["verify", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_OK
        report = json.loads(out.read_text())
        assert report["result"]["failure_fraction"] == 0.0

    def test_failing_config_exit_4(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "embedding",
            "kind": "gaussian-dense",
            "d": 8,
            "n": 64,
            "m": 16,
            "eps": 0.05,
            "delta": 0.05,
            "trials": 10,
            "seed": 5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == EXIT_VERIFY

    def test_bad_schema_version(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 99}))
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER

    def test_missing_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"schema_version": 1, "experiment": "embedding",
                                    "kind": "osnap"}))
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{nope")
        assert main(["verify", "--config", str(path)]) == EXIT_IO

    @pytest.mark.parametrize("cfg, code", [
        # a field of the wrong type, or a config that is not an object: exit 3
        ({"d": "x"}, EXIT_IO),
        ({"sampler": ["haar"]}, EXIT_IO),
        ({"trials": 1.7}, EXIT_IO),  # int() would run one trial
        ({"d": True}, EXIT_IO),  # int() would read d = 1
        ([1, 2], EXIT_IO),
        # an unknown sampler is a bad value for every experiment: exit 2
        ({"experiment": "trace_moment", "m": 64, "s": 16, "q": 1, "sampler": "nope"},
         EXIT_PARAMETER),
    ], ids=["d-string", "sampler-list", "trials-float", "d-bool", "top-level-array",
            "moment-unknown-sampler"])
    def test_malformed_config_gives_typed_exit(self, tmp_path, cfg, code):
        base = {"schema_version": 1, "experiment": "embedding", "kind": "osnap",
                "d": 4, "n": 128, "eps": 0.5, "delta": 0.05, "trials": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base | cfg if isinstance(cfg, dict) else cfg))
        assert main(["verify", "--config", str(path)]) == code

    @pytest.mark.parametrize("dims", [{"m": 0}, {"s": 0}, {"s": -4}],
                             ids=["m-zero", "s-zero", "s-negative"])
    def test_out_of_range_dimensions_rejected(self, tmp_path, dims):
        # "m": 0 used to select the default m, and "s": -4 became s = 1
        cfg = {"schema_version": 1, "experiment": "trace_moment", "kind": "osnap",
               "d": 4, "n": 128, "m": 64, "s": 16, "q": 1, "trials": 2} | dims
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER

    @pytest.mark.parametrize("kind", ["less-ic", "less-ie"])
    @pytest.mark.parametrize("d, n", [(80, 64), (0, 64)], ids=["d-above-n", "d-zero"])
    def test_score_adapted_dimensions_rejected(self, tmp_path, kind, d, n):
        # d > n used to pass on an n x n basis while reporting d; d = 0 died
        # with an IndexError
        cfg = {"schema_version": 1, "experiment": "embedding", "kind": kind,
               "d": d, "n": n, "eps": 0.5, "delta": 0.05, "trials": 2}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER

    def test_moment_config_needs_a_trial(self, tmp_path, capsys):
        # zero trials used to report "estimate overflowed; use a smaller q"
        cfg = {"schema_version": 1, "experiment": "trace_moment", "kind": "osnap",
               "d": 4, "n": 128, "m": 64, "s": 16, "q": 1, "trials": 0}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER
        assert "trials must be an integer >= 1" in capsys.readouterr().err

    def test_pinned_sparsity_sets_the_degree(self):
        # K once stayed that of the default s (16 here) when s was pinned
        cfg = {"schema_version": 1, "experiment": "trace_moment", "kind": "osnap",
               "d": 1, "n": 256, "eps": 0.5, "delta": 0.5, "m": 64, "s": 16, "trials": 1}
        dims = run_config(cfg)[0]["config"]
        assert dims["degree_k"] == independence_degree(1, 0.5, 0.5, 16) == 24

    def _target_config(self, tmp_path, target):
        cfg = {"schema_version": 1, "experiment": "embedding", "kind": "gaussian-dense",
               "d": 8, "n": 256, "eps": 0.9, "delta": 0.05, "trials": 20, "seed": 4,
               "target": target}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_zero_target_kept(self, tmp_path):
        # "target": 0 used to be replaced by delta
        path = self._target_config(tmp_path, 0)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["target"] == 0.0

    @pytest.mark.parametrize("target", [-0.1, 1.5])
    def test_out_of_range_target_rejected(self, tmp_path, target):
        path = self._target_config(tmp_path, target)
        assert main(["verify", "--config", str(path)]) == EXIT_PARAMETER

    def test_score_adapted_embedding_config(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "embedding",
            "kind": "less-ic",
            "d": 4,
            "n": 256,
            "m": 96,
            "s": 12,
            "eps": 0.6,
            "delta": 0.1,
            "trials": 15,
            "seed": 8,
            "sampler": "haar",
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["config"]["m"] == 96

    def test_moment_config(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "experiment": "gamma_moment",
            "kind": "osnap",
            "d": 8,
            "n": 128,
            "m": 64,
            "s": 16,
            "eps": 0.5,
            "delta": 0.05,
            "q": 1,
            "trials": 30,
            "seed": 6,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "probe.json"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["result"]["estimate"] > 0


    @pytest.mark.parametrize("extra, named", [
        ({"trails": 2}, "trails"),  # ran the default 100 trials
        ({"q": 2}, "q"),  # embedding experiments take no q
        ({"experiment": "trace_moment", "m": 64, "target": 0.5}, "target"),
    ], ids=["misspelt-trials", "embedding-q", "moment-target"])
    def test_unread_key_rejected(self, extra, named):
        # each key was dropped without a word
        cfg = {"schema_version": 1, "experiment": "embedding", "kind": "osnap",
               "d": 4, "n": 128, "eps": 0.5, "delta": 0.05, "trials": 2} | extra
        with pytest.raises(ss.ParameterError, match=f"does not read {named}$"):
            run_config(cfg)

    @pytest.mark.parametrize("cfg, code, err", [
        ({"trials": 2}, EXIT_OK, ""),
        ({"trails": 2}, EXIT_PARAMETER, "does not read trails"),
        ("{nope", EXIT_IO, "invalid JSON"),
    ], ids=["ok", "misspelt-key", "invalid-json"])
    def test_exit_codes_in_subprocess(self, tmp_path, cfg, code, err):
        base = {"schema_version": 1, "experiment": "embedding", "kind": "gaussian-dense",
                "d": 4, "n": 64, "eps": 0.9, "delta": 0.05}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base | cfg) if isinstance(cfg, dict) else cfg)
        proc = _run_cli(["verify", "--config", str(path)])
        assert proc.returncode == code, proc.stderr
        assert err in proc.stderr and "Traceback" not in proc.stderr


class TestBenchCommand:
    def test_calibrate_selects_the_pinned_constants(self, tmp_path, capsys):
        # the other calibrate tests fake it; this runs the search, the
        # pipeline surface included, at 2 trials a point
        out = tmp_path / "calibrate.csv"
        assert main(["bench", "--calibrate", "--trials", "2", "--seed", "1",
                     "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert json.loads(printed[printed.index("{"):]) == asdict(ss.CONSTANTS)
        with out.open(newline="") as fh:
            kinds = {row["kind"] for row in csv.DictReader(fh)}
        assert kinds == {"gaussian-dense", "osnap", "ose-ie", "less-ic", "less-ic-pipeline"}

    def test_s_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["bench", "--sweep", "s", "--kind", "osnap", "--trials", "5",
                   "--n", "256", "--d", "4", "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("kind,")
        assert len(lines) > 1

    def test_nnz_sweep_trend(self, tmp_path):
        out = tmp_path / "nnz.csv"
        rc = main(["bench", "--sweep", "nnz", "--n", "2048", "--d", "8",
                   "--out", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("nnz,")
        assert [int(line.split(",")[1]) for line in lines[1:]] == [2048, 4096, 8192, 16384]

    def test_needs_mode(self):
        assert main(["bench"]) == EXIT_PARAMETER

    @pytest.mark.parametrize("argv", [
        ["--sweep", "eps", "--trials", "2", "--d", "0"],  # used to raise ZeroDivisionError
        ["--sweep", "nnz", "--n", "0"],  # used to run at n = 4096
        ["--calibrate", "--trials", "0"],  # used to run 100 trials
        ["--sweep", "nnz", "--d", "0"],  # used to exit 0 with rows of nnz 0
        ["--sweep", "nnz", "--d", "-3"],  # used to exit 1 on a scipy traceback
    ], ids=["eps-d-zero", "nnz-n-zero", "calibrate-trials-zero", "nnz-d-zero", "nnz-d-negative"])
    def test_explicit_zero_rejected(self, argv):
        # nnz takes no --trials, so its cases pass none: each fails on its zero
        assert main(["bench", *argv]) == EXIT_PARAMETER

    @pytest.mark.parametrize("argv, named", [
        (["--sweep", "nnz", "--kind", "ose-ie", "--eps", "0.1", "--trials", "9"],
         "--kind, --trials, --eps"),
        (["--sweep", "eps", "--eps", "0.1"], "--eps"),
        (["--calibrate", "--kind", "osnap"], "--kind"),
        (["--calibrate", "--sweep", "eps"], "not both"),
    ], ids=["nnz-kind-eps-trials", "eps-eps", "calibrate-kind", "calibrate-sweep"])
    def test_unread_flag_rejected(self, monkeypatch, capsys, argv, named):
        # each used to exit 0, running its mode as if the flag were absent
        ran = []
        for name in ("calibrate", "eps_sweep", "nnz_sweep"):
            monkeypatch.setattr(f"subsketch.cli.{name}", lambda **kw: ran.append(kw))
        assert main(["bench", *argv]) == EXIT_PARAMETER
        assert ran == []
        assert named in capsys.readouterr().err

    def test_nnz_sweep_negative_seed(self, tmp_path):
        # used to exit 1 on a scipy traceback: its matrices take seeds in [0, 2^32)
        assert main(["bench", "--sweep", "nnz", "--n", "256", "--seed", "-1",
                     "--out", str(tmp_path / "nnz.csv")]) == EXIT_OK

    @pytest.mark.parametrize("argv, seed", [([], None), (["--seed", "0"], 0),
                                            (["--seed", "5"], 5)],
                             ids=["absent", "zero", "five"])
    def test_calibrate_seed(self, monkeypatch, argv, seed):
        # an absent --seed selects the reference seed; --seed 0 used to as well
        calls = []

        def fake(trials, seed):
            calls.append((trials, seed))
            return ss.CONSTANTS, []

        monkeypatch.setattr("subsketch.cli.calibrate", fake)
        assert main(["bench", "--calibrate", "--trials", "3", *argv]) == EXIT_OK
        assert calls == [(3, seed)]

    def test_calibrate_default_trials_are_the_reference(self, monkeypatch):
        # an absent --trials used to pass the sweeps' default of 50
        calls = []

        def fake(trials, seed):
            calls.append(trials)
            return ss.CONSTANTS, []

        monkeypatch.setattr("subsketch.cli.calibrate", fake)
        assert main(["bench", "--calibrate"]) == EXIT_OK
        assert calls == [None]  # calibrate then takes REFERENCE["trials"]

    def test_sweep_default_trials(self, monkeypatch):
        calls = []
        monkeypatch.setattr("subsketch.cli.eps_sweep",
                            lambda kind, n, **kw: calls.append(kw["trials"]) or [])
        assert main(["bench", "--sweep", "eps"]) == EXIT_OK
        assert calls == [50]


class TestPipelineCommand:
    def test_pipeline_run(self, tmp_path, matrix_file):
        mpath, _ = matrix_file
        out = tmp_path / "embedded.mtx"
        report_path = tmp_path / "report.json"
        rc = main(["pipeline", str(mpath), "--eps", "0.5", "--kind", "less-ic",
                   "--seed", "7", "--validate", "--out", str(out),
                   "--report", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["nnz_sketch"] <= report["nnz_bound"]
        embedded = load_matrix(out)
        assert embedded.shape == (report["m"], 6)

    def test_sparse_input_report_in_subprocess(self, tmp_path):
        # less-ic on a coordinate file once died on a numpy bool in json.dumps
        A = scipy.sparse.random(4000, 4, density=0.01, random_state=5, format="csr")
        path = tmp_path / "A.mtx"
        save_matrix(path, (A + scipy.sparse.eye(4000, 4, format="csr")).tocsr())
        report_path = tmp_path / "report.json"
        proc = _run_cli(["pipeline", str(path), "--eps", "0.5", "--kind", "less-ic",
                         "--out", str(tmp_path / "e.mtx"), "--report", str(report_path)])
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(report_path.read_text())
        assert isinstance(report["sublinear_term_dominates"], bool)

    @pytest.mark.parametrize("flag", ["--m", "--pm"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_out_of_range_override_rejected(self, tmp_path, matrix_file, flag, value):
        # a zero override once fell back to the default (m=90) with exit 0
        mpath, _ = matrix_file
        out = tmp_path / "embedded.mtx"
        rc = main(["pipeline", str(mpath), "--eps", "0.5", "--kind", "osnap",
                   flag, value, "--out", str(out)])
        assert rc == EXIT_PARAMETER
        assert not out.exists()

    def test_osnap_pins_round_as_in_verify(self, tmp_path, matrix_file):
        # the pipeline once rejected m = 100, pm = 7 ("s = 7 must divide
        # m = 100") while verify rounded the same pins to m = 105
        mpath, _ = matrix_file
        report_path = tmp_path / "report.json"
        rc = main(["pipeline", str(mpath), "--eps", "0.5", "--kind", "osnap",
                   "--m", "100", "--pm", "7", "--out", str(tmp_path / "e.mtx"),
                   "--report", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        cfg = {"schema_version": 1, "experiment": "trace_moment", "kind": "osnap",
               "d": 6, "n": 200, "m": 100, "s": 7, "trials": 1}
        dims = run_config(cfg)[0]["config"]
        assert (report["m"], report["pm"]) == (dims["m"], dims["pm"]) == (105, 7)

    def test_explicit_overrides_are_used(self, tmp_path, matrix_file):
        mpath, _ = matrix_file
        report_path = tmp_path / "report.json"
        rc = main(["pipeline", str(mpath), "--eps", "0.5", "--kind", "osnap",
                   "--m", "1", "--pm", "1", "--out", str(tmp_path / "e.mtx"),
                   "--report", str(report_path)])
        assert rc == EXIT_OK
        report = json.loads(report_path.read_text())
        assert (report["m"], report["pm"]) == (1, 1.0)

    @pytest.mark.parametrize("header", [
        "%%MatrixMarket matrix array real general\n5 0\n",
        "%%MatrixMarket matrix coordinate real general\n100 0 0\n",
    ], ids=["array-5x0", "coordinate-100x0"])
    def test_input_without_columns_exits_2_in_subprocess(self, tmp_path, header):
        # both once died with a ValueError traceback (exit 1) in a zero-size reduction
        path = tmp_path / "empty.mtx"
        path.write_text(header)
        out = tmp_path / "e.mtx"
        proc = _run_cli(["pipeline", str(path), "--eps", "0.5", "--out", str(out)])
        assert proc.returncode == EXIT_PARAMETER, proc.stderr
        assert "Traceback" not in proc.stderr and "n >= d >= 1" in proc.stderr
        assert not out.exists()

    def test_omitted_flags_take_the_config_defaults(self, monkeypatch, tmp_path, matrix_file):
        configs = []

        def capture(A, config):
            configs.append(config)
            raise ss.ParameterError("captured")

        monkeypatch.setattr("subsketch.cli.fast_subspace_embed", capture)
        mpath, _ = matrix_file
        out = str(tmp_path / "e.mtx")
        assert main(["pipeline", str(mpath), "--eps", "0.5", "--out", out]) == EXIT_PARAMETER
        assert configs == [PipelineConfig(eps=0.5, delta=0.05)]
        assert (configs[0].gamma, configs[0].kind) == (PipelineConfig.gamma, PipelineConfig.kind)
