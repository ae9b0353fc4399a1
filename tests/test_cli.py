"""End-to-end command line flows in temporary directories.

Covers config validation, strict data parsing with line numbers, fit
artifacts, determinism of outputs, and exit codes.
"""

import csv
import json
import math
import os

import numpy as np
import pytest

from sparsekl import cli, svgp, verify
from sparsekl.cli import main, read_csv, read_xy_data, write_csv
from sparsekl.cox import CoxModel, cox_elbo, cox_elbo_terms, sample_inhomogeneous_pp
from sparsekl.gaussians import NotPositiveDefiniteError
from sparsekl.svgp import elbo, load_checkpoint


# the model of the acceptance battery's command line round trip (test_11)
TEST_11_MODEL = {
    "kernel": {"variance": 1.0, "lengthscales": [0.3]},
    "num_inducing": 10,
    "noise_var": 0.1,
}


def write_config(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def regression_dataset(tmp_path, n=25, seed=0):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    y = np.sin(2 * np.pi * x) + 0.2 * rng.standard_normal(n)
    path = tmp_path / "train.csv"
    write_csv(path, ["x1", "y"], np.column_stack([x, y]))
    return str(path)


def small_fit_config(tmp_path, data, out, extra_model=None, iters=12):
    model = {
        "kernel": {"variance": 1.0, "lengthscales": [0.3]},
        "num_inducing": 4,
        "noise_var": 0.1,
    }
    model.update(extra_model or {})
    return write_config(
        tmp_path,
        "fit.json",
        {
            "data": data,
            "out": out,
            "seed": 0,
            "model": model,
            "optimizer": {"max_iters": iters},
        },
    )


class TestConfigValidation:
    def test_unknown_keys_are_listed_with_paths(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "bad.json",
            {
                "data": "x.csv",
                "model": {
                    "kernel": {"variance": 1.0, "lengthscales": [1.0], "shape": 3},
                    "num_inducing": 2,
                    "noise_var": 0.1,
                },
                "extra_top": True,
            },
        )
        rc = main(["fit-regression", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown keys" in err
        assert "extra_top" in err and "model.kernel.shape" in err

    def test_missing_required_keys(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"data": "x.csv", "model": {}})
        rc = main(["fit-regression", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == 2
        assert "missing required" in err
        assert "model.kernel" in err and "model.noise_var" in err

    @pytest.mark.parametrize(
        "task, doc, missing",
        [
            ("fit-regression", {}, "data, model"),
            ("fit-regression", {"data": "x.csv", "model": {"kernel": {}}},
             "model.kernel.lengthscales, model.kernel.variance, model.noise_var, "
             "model.num_inducing"),
            ("fit-cox", {"data": "x.csv", "optimizer": {}}, "model"),
            ("generate", {"generate": {"n": 5}}, "generate.kind"),
            ("generate", {"out": "o"}, "generate"),
        ],
    )
    def test_missing_keys_name_required_leaves_and_sections(self, tmp_path, task, doc, missing):
        # a section is missing only when it holds a required key; optimizer,
        # verify and the optional leaves never are
        with pytest.raises(cli.ConfigError) as err:
            cli.load_config(write_config(tmp_path, "c.json", doc), task)
        assert str(err.value).endswith(f": missing required keys: {missing}")

    def test_config_without_required_keys_loads(self, tmp_path):
        assert cli.load_config(write_config(tmp_path, "v.json", {}), "verify") == {}

    @pytest.mark.parametrize(
        "task, key, value, phrase",
        [
            ("fit-regression", "model.kernel.variance", -2.0, "positive"),
            # json parses NaN and Infinity; neither is a usable number
            ("fit-regression", "model.noise_var", math.nan, "finite"),
            ("fit-regression", "model.kernel.variance", math.inf, "finite"),
            ("fit-regression", "model.kernel.lengthscales", [math.nan], "finite"),
            ("fit-regression", "model.kernel.mean", math.nan, "finite"),
            # a string or a bool is not a number, whatever float() makes of it
            ("fit-regression", "model.kernel.variance", "2", "number"),
            ("fit-regression", "model.kernel.variance", True, "number"),
            ("fit-cox", "model.domain", [[0.0, math.inf]], "finite"),
            # an order is not truncated to an integer
            ("fit-cox", "model.quad_orders", [20.7], "integer"),
        ],
        ids=[
            "negative", "nan", "infinity", "nan-in-list", "nan-mean",
            "string", "bool", "infinite-domain", "fractional-order",
        ],
    )
    def test_bad_value_types(self, tmp_path, capsys, task, key, value, phrase):
        model = {"kernel": {"variance": 1.0, "lengthscales": [1.0]}, "num_inducing": 2}
        if task == "fit-regression":
            model["noise_var"] = 0.1
        else:
            model["domain"] = [[0.0, 1.0]]
        doc = {"data": "x.csv", "model": model}
        *parents, leaf = key.split(".")
        node = doc
        for name in parents:
            node = node[name]
        node[leaf] = value
        rc = main([task, "--config", write_config(tmp_path, "bad.json", doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert key in err and phrase in err

    def test_removed_step_key_is_rejected(self, tmp_path, capsys):
        data = regression_dataset(tmp_path)
        cfg = small_fit_config(tmp_path, data, str(tmp_path / "o"))
        doc = json.loads(open(cfg, encoding="utf-8").read())
        doc["optimizer"]["step"] = 0.1
        rc = main(["fit-regression", "--config", write_config(tmp_path, "s.json", doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown keys" in err and "optimizer.step" in err

    def test_refine_iters_is_accepted_and_ignored(self, tmp_path):
        data = regression_dataset(tmp_path)
        summaries = []
        for refine_iters in (None, 0, 400):
            out = tmp_path / f"o{refine_iters}"
            cfg = small_fit_config(tmp_path, data, str(out))
            doc = json.loads(open(cfg, encoding="utf-8").read())
            if refine_iters is not None:
                doc["optimizer"]["refine_iters"] = refine_iters
            cfg = write_config(tmp_path, "r.json", doc)
            assert main(["fit-regression", "--config", cfg]) == 0
            summary = json.loads((out / "summary.json").read_text())
            summary.pop("wall_time_s")
            summaries.append(summary)
        assert summaries[0] == summaries[1] == summaries[2]

    def test_config_file_missing(self, tmp_path, capsys):
        rc = main(["verify", "--config", str(tmp_path / "absent.json")])
        assert rc == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_config_not_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["verify", "--config", str(path)])
        assert rc == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_data_path_must_exist(self, tmp_path, capsys):
        cfg = small_fit_config(tmp_path, str(tmp_path / "nope.csv"), str(tmp_path / "o"))
        rc = main(["fit-regression", "--config", cfg])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_cox_domain_dimension_must_match_kernel(self, tmp_path, capsys):
        events = tmp_path / "ev.csv"
        write_csv(events, ["x1"], [[0.5]])
        cfg = write_config(
            tmp_path,
            "cox.json",
            {
                "data": str(events),
                "out": str(tmp_path / "o"),
                "model": {
                    "kernel": {"variance": 1.0, "lengthscales": [1.0, 1.0]},
                    "num_inducing": 2,
                    "domain": [[0.0, 1.0]],
                },
            },
        )
        rc = main(["fit-cox", "--config", cfg])
        assert rc == 2
        assert "domain" in capsys.readouterr().err


class TestCsvHandling:
    def test_roundtrip_values_are_exact(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = np.array([[0.1, 1.0 / 3.0], [math.pi, 1e-300]])
        write_csv(path, ["a", "b"], rows)
        back = read_csv(str(path), ["a", "b"])
        np.testing.assert_array_equal(back, rows)

    def test_write_is_deterministic_bytes(self, tmp_path):
        rows = [[0.5, 2.0], [1.5, -3.25]]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(p1, ["u", "v"], rows)
        write_csv(p2, ["u", "v"], rows)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_mismatch_names_line_one(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("wrong,cols\n1.0,2.0\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 1"):
            read_csv(str(path), ["a", "b"])

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 3"):
            read_csv(str(path), ["a", "b"])

    def test_non_numeric_error_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,fish\n", encoding="utf-8")
        with pytest.raises(Exception, match="line 2"):
            read_csv(str(path), ["a", "b"])

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0,nan\n", encoding="utf-8")
        with pytest.raises(Exception, match="non-finite"):
            read_csv(str(path), ["a", "b"])

    @staticmethod
    def per_cell_reference(header, rows):
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def test_write_matches_per_cell_repr(self, tmp_path):
        rows = np.array([
            [-0.0, 5e-324, 1e16],
            [1e-5, 1e22, -1.0 / 3.0],
            [0.1, -2.5e-310, 123456789.0],
            [np.float64(np.pi), 1.7976931348623157e308, 4.0],
            [1e15, 1e-4, 9.999999999999999e21],
        ])
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == self.per_cell_reference(["a", "b", "c"], rows)

    def test_write_trace_tuples_with_integer_iter(self, tmp_path):
        header = ["iter", "objective", "step_scale", "grad_norm"]
        rows = [(0, -12.5, 0.0, 3.25), (1, -3.0, 0.125, 1e-5), (12, -0.0, 2.0, 5e-324)]
        path = tmp_path / "trace.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == self.per_cell_reference(header, rows)
        assert path.read_text().splitlines()[2].startswith("1.0,")

    @pytest.mark.parametrize("rows", [[], np.empty((0, 3))])
    def test_write_zero_rows_gives_header_alone(self, tmp_path, rows):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b", "c"], rows)
        assert path.read_bytes() == b"a,b,c\n"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("a,b\r\n1.5,2\r\n-3,4e-3\r\n", [[1.5, 2.0], [-3.0, 4e-3]]),
            ('a,b\n"1.5",2\n3," 4 "\n', [[1.5, 2.0], [3.0, 4.0]]),
            ("a,b\n1,2\n\n3,4\n\n", [[1.0, 2.0], [3.0, 4.0]]),
            ('"a", b\r\n\r\n5,6\r\n', [[5.0, 6.0]]),
        ],
        ids=["crlf", "quoted", "blank-lines", "quoted-header-crlf-blank"],
    )
    def test_read_accepts_csv_variants(self, tmp_path, text, expected):
        path = tmp_path / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        back = read_csv(str(path), ["a", "b"])
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, np.array(expected))

    @pytest.mark.parametrize("text", ["a,b,c\n", "a,b,c\n\n\n", "a,b,c"])
    def test_read_header_only_gives_no_rows(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        assert read_csv(str(path), ["a", "b", "c"]).shape == (0, 3)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("a,b\n1.0,inf\n3.0\n", 2),
            ("a,b\n1.0,2.0\n-inf,nan\n1.0,fish\n", 3),
            ("a,b\n1.0,2.0\n\n\n3.0,nan\n", 5),
            ("a,b\n\n1.0,2.0\n3.0,4.0\n5.0,NaN\n6.0,7.0\n", 5),
        ],
    )
    def test_non_finite_is_named_before_a_later_error(self, tmp_path, text, line):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == f"{path} line {line}: non-finite value"

    @pytest.mark.parametrize(
        "later",
        [b"2," + b"1" * 200_000 + b"\n", b"2,3\n" * 5000 + b"\xff\xfe,1\n"],
        ids=["field-over-csv-limit", "invalid-utf8"],
    )
    def test_non_finite_is_named_before_a_reader_error(self, tmp_path, later):
        path = tmp_path / "t.csv"
        path.write_bytes(b"a,b\n1.0,nan\n" + later)
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == f"{path} line 2: non-finite value"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "{path}: empty file, expected header a,b"),
            ("a,c\n1,2\n", "{path} line 1: header 'a,c' does not match expected 'a,b'"),
            ("a,b\n1.0,2.0\n3.0\n", "{path} line 3: expected 2 fields, got 1"),
            ("a,b\n1.0,2.0,3.0\n", "{path} line 2: expected 2 fields, got 3"),
            ("a,b\n1.0,fish\n", "{path} line 2: could not convert string to float: 'fish'"),
            ("a,b\n\n1.0,\n", "{path} line 3: could not convert string to float: ''"),
            ("a,b\n1.0,2.0\n1e999,0\n", "{path} line 3: non-finite value"),
        ],
    )
    def test_error_messages(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == message.format(path=path)

    @pytest.mark.parametrize(
        "body, message",
        [
            (
                b"a,b\n" + b"2,3\n" * 3000 + b"4," + b"1" * 200_000 + b"\n",
                "{path} line 3002: field larger than field limit ({limit})",
            ),
            (
                b"a,b\n" + b"2,3\n" * 3000 + b"\xff,1\n",
                "{path} line 3002: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte",
            ),
            (
                b"a,\xffb\n1,2\n",
                "{path} line 1: 'utf-8' codec can't decode byte 0xff in "
                "position 2: invalid start byte",
            ),
            (
                b'"' + b"a" * 200_000 + b'",b\n1,2\n',
                "{path} line 1: field larger than field limit ({limit})",
            ),
        ],
        ids=["field-over-csv-limit", "invalid-utf8", "invalid-utf8-header", "header-over-limit"],
    )
    def test_reader_errors_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == message.format(path=path, limit=csv.field_size_limit())

    @pytest.mark.parametrize(
        "later", [b"4," + b"1" * 200_000 + b"\n", b"\xff,1\n"], ids=["field", "utf8"]
    )
    def test_reader_error_exits_with_the_data_code(self, tmp_path, capsys, later):
        data = tmp_path / "train.csv"
        data.write_bytes(b"x1,y\n" + b"0.5,1.0\n" * 3000 + later)
        cfg = small_fit_config(tmp_path, str(data), str(tmp_path / "fit"), iters=1)
        assert main(["fit-regression", "--config", cfg]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {data} line 3002: ")
        assert err.count("\n") == 1

    def test_missing_file_message(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value).startswith(f"cannot read {path}: ")

    def test_read_xy_shapes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x1", "x2", "y"], [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]])
        X, Y = read_xy_data(str(path), 2)
        assert X.shape == (2, 2) and Y.shape == (2,)


class TestGenerate:
    def _config(self, tmp_path, kind, out, **kw):
        gen = {"kind": kind}
        gen.update(kw)
        return write_config(
            tmp_path, f"gen-{kind}.json", {"out": out, "seed": 3, "generate": gen}
        )

    def test_regression_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
        cfg1 = self._config(tmp_path, "regression", out1, n=40)
        assert main(["generate", "--config", cfg1]) == 0
        cfg2 = self._config(tmp_path, "regression", out2, n=40)
        assert main(["generate", "--config", cfg2]) == 0
        b1 = (tmp_path / "g1" / "dataset.csv").read_bytes()
        b2 = (tmp_path / "g2" / "dataset.csv").read_bytes()
        assert b1 == b2

    def test_seed_override_changes_output(self, tmp_path):
        out1, out2 = str(tmp_path / "g1"), str(tmp_path / "g2")
        cfg = self._config(tmp_path, "regression", out1, n=40)
        assert main(["generate", "--config", cfg]) == 0
        assert main(["generate", "--config", cfg, "--seed", "9", "--out", out2]) == 0
        b1 = (tmp_path / "g1" / "dataset.csv").read_bytes()
        b2 = (tmp_path / "g2" / "dataset.csv").read_bytes()
        assert b1 != b2

    def test_classification_labels(self, tmp_path):
        out = str(tmp_path / "gc")
        cfg = self._config(tmp_path, "classification", out, n=30)
        assert main(["generate", "--config", cfg]) == 0
        data = read_csv(os.path.join(out, "dataset.csv"), ["x1", "y"])
        assert set(np.unique(data[:, 1])) <= {-1.0, 1.0}

    def test_cox_events_inside_domain(self, tmp_path):
        out = str(tmp_path / "gx")
        cfg = self._config(
            tmp_path, "cox", out, rate=30.0, domain=[[0.0, 2.0]]
        )
        assert main(["generate", "--config", cfg]) == 0
        ev = read_csv(os.path.join(out, "dataset.csv"), ["x1"])
        assert np.all(ev >= 0.0) and np.all(ev <= 2.0)


class TestFitRegression:
    def test_artifacts_and_summary(self, tmp_path):
        data = regression_dataset(tmp_path)
        out = str(tmp_path / "fit")
        cfg = small_fit_config(tmp_path, data, out)
        assert main(["fit-regression", "--config", cfg]) == 0
        for name in ("checkpoint.json", "trace.csv", "predictions.csv", "summary.json"):
            assert os.path.exists(os.path.join(out, name)), name
        summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
        assert summary["task"] == "fit-regression"
        assert summary["n_data"] == 25 and summary["num_inducing"] == 4
        assert summary["collapsed_bound"] >= summary["final_elbo"] - 1e-9
        assert summary["collapsed_gap"] >= -1e-9

    def test_checkpoint_reproduces_final_elbo(self, tmp_path):
        data = regression_dataset(tmp_path)
        out = str(tmp_path / "fit")
        cfg = small_fit_config(tmp_path, data, out)
        assert main(["fit-regression", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        X, Y = read_xy_data(data, 1)
        assert elbo(state, X, Y) == summary["final_elbo"]

    def test_trace_is_monotone(self, tmp_path):
        data = regression_dataset(tmp_path)
        out = str(tmp_path / "fit")
        cfg = small_fit_config(tmp_path, data, out)
        assert main(["fit-regression", "--config", cfg]) == 0
        trace = read_csv(
            os.path.join(out, "trace.csv"),
            ["iter", "objective", "step_scale", "grad_norm"],
        )
        assert np.all(np.diff(trace[:, 1]) >= 0.0)

    def test_reruns_are_identical_except_wall_time(self, tmp_path):
        data = regression_dataset(tmp_path)
        out1, out2 = str(tmp_path / "f1"), str(tmp_path / "f2")
        cfg1 = small_fit_config(tmp_path, data, out1)
        assert main(["fit-regression", "--config", cfg1]) == 0
        cfg2 = small_fit_config(tmp_path, data, out2)
        assert main(["fit-regression", "--config", cfg2]) == 0
        for name in ("checkpoint.json", "trace.csv", "predictions.csv"):
            b1 = (tmp_path / "f1" / name).read_bytes()
            b2 = (tmp_path / "f2" / name).read_bytes()
            assert b1 == b2, name
        s1 = json.loads((tmp_path / "f1" / "summary.json").read_text())
        s2 = json.loads((tmp_path / "f2" / "summary.json").read_text())
        s1.pop("wall_time_s"), s2.pop("wall_time_s")
        assert s1 == s2

    def _test_11_data(self, tmp_path):
        gen = write_config(
            tmp_path,
            "gen.json",
            {"out": str(tmp_path / "gen"), "seed": 5,
             "generate": {"kind": "regression", "n": 100}},
        )
        assert main(["generate", "--config", gen]) == 0
        return str(tmp_path / "gen" / "dataset.csv")

    def _fit(self, tmp_path, name, data, model, optimizer=None):
        doc = {"data": data, "out": str(tmp_path / name), "seed": 0, "model": model}
        if optimizer is not None:
            doc["optimizer"] = optimizer
        cfg = write_config(tmp_path, f"{name}.json", doc)
        assert main(["fit-regression", "--config", cfg]) == 0
        return json.loads((tmp_path / name / "summary.json").read_text())

    def test_default_fit_reaches_collapsed_optimum(self, tmp_path):
        data = self._test_11_data(tmp_path)
        summary = self._fit(tmp_path, "fit", data, TEST_11_MODEL)
        assert summary["final_elbo"] >= -45.526
        assert summary["collapsed_gap"] <= 1e-3
        assert summary["iterations"] <= 50
        assert summary["converged"] is True
        assert summary["stop_reason"].startswith("CONVERGENCE")

    def test_feature_fit_from_fixed_optimum_does_not_lose(self, tmp_path):
        # free locations started from the initial state end below the
        # fixed-feature optimum; started from it, they cannot
        data = self._test_11_data(tmp_path)
        fixed = self._fit(tmp_path, "fixed", data, TEST_11_MODEL)
        state = load_checkpoint(str(tmp_path / "fixed" / "checkpoint.json"))
        model = dict(
            TEST_11_MODEL,
            kernel={
                "variance": state.kernel.variance,
                "lengthscales": state.kernel.lengthscales.tolist(),
                "mean": state.kernel.mean_const,
            },
            noise_var=state.likelihood.noise_var,
        )
        free = self._fit(tmp_path, "free", data, model, {"optimize_features": True})
        assert free["final_elbo"] >= fixed["final_elbo"]
        assert free["collapsed_gap"] <= 1e-3

    def test_one_evaluation_factorizes_Kuu_once(self, tmp_path, monkeypatch):
        # the fit's evaluations share one assembly and one factorization
        # of the feature covariances: value, optimal q and gradient alike
        calls = {"assemble_Kuu": 0, "assemble_Kuf": 0, "_chol_with_fallback": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (svgp, cli):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))

        class OneEvaluation(Exception):
            pass

        def one_evaluation(fused, x0, **kwargs):
            calls.update(dict.fromkeys(calls, 0))
            value, grad = fused(x0)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
            raise OneEvaluation(dict(calls))

        monkeypatch.setattr(cli, "maximize", one_evaluation)
        data = regression_dataset(tmp_path)
        cfg = small_fit_config(tmp_path, data, str(tmp_path / "fit"))
        with pytest.raises(OneEvaluation) as stop:
            main(["fit-regression", "--config", cfg])
        assert stop.value.args[0] == {
            "assemble_Kuu": 1, "assemble_Kuf": 1, "_chol_with_fallback": 1
        }

    @staticmethod
    def assert_named_ending(tmp_path, capsys, rows, model):
        """The fit ends with a summary (exit 0) or one numerical-failure line
        (exit 5); a traceback would escape ``main`` and fail the test."""
        data = tmp_path / "train.csv"
        write_csv(data, ["x1", "y"], rows)
        out = tmp_path / "fit"
        cfg = write_config(tmp_path, "fit.json", {"data": str(data), "out": str(out), "model": model})
        rc = main(["fit-regression", "--config", cfg])
        err = capsys.readouterr().err
        if rc == cli.EXIT_OK:
            assert json.loads((out / "summary.json").read_text())["n_data"] == len(rows)
        else:
            assert rc == cli.EXIT_NUMERICAL
            assert err.count("\n") == 1 and err.startswith("numerical failure: ")

    @pytest.mark.parametrize("num_inducing", [1, 5])
    def test_single_point_ends_with_a_named_outcome(self, tmp_path, capsys, num_inducing):
        # the bound is unbounded above as noise_var falls, so L-BFGS-B can
        # probe far enough for exp to underflow or noise_var**2 to reach 0
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.3]},
            "num_inducing": num_inducing,
            "noise_var": 0.1,
        }
        self.assert_named_ending(tmp_path, capsys, [[0.5, 1.0]], model)

    def test_constant_targets_end_with_a_named_outcome(self, tmp_path, capsys):
        # noise_var falls to ~1e-44, where I + A A^T / noise_var is not
        # positive definite in floating point
        rows = np.column_stack([np.linspace(0.0, 1.0, 50), np.full(50, 2.0)])
        self.assert_named_ending(tmp_path, capsys, rows, TEST_11_MODEL)

    def test_bad_labels_exit_data_error(self, tmp_path, capsys):
        data = regression_dataset(tmp_path)  # continuous targets
        out = str(tmp_path / "fc")
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.3]},
            "num_inducing": 3,
        }
        cfg = write_config(
            tmp_path,
            "cls.json",
            {"data": data, "out": out, "model": model,
             "optimizer": {"max_iters": 5}},
        )
        rc = main(["fit-classification", "--config", cfg])
        assert rc == 3
        assert "labels" in capsys.readouterr().err


class TestFitClassification:
    def test_small_run(self, tmp_path):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0.0, 1.0, size=30))
        y = np.where(np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(30) >= 0, 1.0, -1.0)
        data = tmp_path / "cls.csv"
        write_csv(data, ["x1", "y"], np.column_stack([x, y]))
        out = str(tmp_path / "out")
        cfg = write_config(
            tmp_path,
            "cls.json",
            {
                "data": str(data),
                "out": out,
                "seed": 0,
                "model": {
                    "kernel": {"variance": 1.0, "lengthscales": [0.3]},
                    "num_inducing": 4,
                },
                "optimizer": {"max_iters": 10},
            },
        )
        assert main(["fit-classification", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["task"] == "fit-classification"
        assert "collapsed_bound" not in summary


def classification_dataset(tmp_path, n=30, seed=1):
    rng = np.random.default_rng(seed)
    x = np.sort(rng.uniform(0.0, 1.0, size=n))
    y = np.where(np.sin(2 * np.pi * x) + 0.3 * rng.standard_normal(n) >= 0, 1.0, -1.0)
    path = tmp_path / "cls.csv"
    write_csv(path, ["x1", "y"], np.column_stack([x, y]))
    return str(path)


class TestPostFitPass:
    """``final_elbo`` and the predictions come from one pass at the fitted state."""

    @pytest.mark.parametrize("task", ["fit-regression", "fit-classification"])
    def test_artifacts_equal_elbo_and_marginals_of_checkpoint(self, tmp_path, task):
        model = {"kernel": {"variance": 1.0, "lengthscales": [0.3]}, "num_inducing": 4}
        if task == "fit-regression":
            data, model["noise_var"] = regression_dataset(tmp_path), 0.1
        else:
            data = classification_dataset(tmp_path)
        out = str(tmp_path / "fit")
        cfg = write_config(
            tmp_path, "fit.json",
            {"data": data, "out": out, "model": model, "optimizer": {"max_iters": 6}},
        )
        assert main([task, "--config", cfg]) == 0
        summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        X, Y = read_xy_data(data, 1)
        mean, var = svgp.predictive_marginals(state, X)
        preds = read_csv(os.path.join(out, "predictions.csv"), ["x1", "mean", "variance"])
        assert summary["final_elbo"] == elbo(state, X, Y)
        np.testing.assert_array_equal(preds, np.column_stack([X, mean, var]))

    @staticmethod
    def builds_after_the_fit(monkeypatch, argv):
        """``_FeatureFactors`` built by ``main(argv)`` once the optimizer returns."""
        builds = []
        real = svgp._FeatureFactors

        class Counted(real):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        def fit_then_reset(*args, **kwargs):
            result = real_maximize(*args, **kwargs)
            builds.clear()
            return result

        real_maximize = cli.maximize
        monkeypatch.setattr(svgp, "_FeatureFactors", Counted)
        monkeypatch.setattr(cli, "maximize", fit_then_reset)
        assert main(argv) == 0
        return len(builds)

    def test_regression_builds_feature_factors_three_times_after_the_fit(
        self, tmp_path, monkeypatch
    ):
        # optimal q, the shared elbo-and-predictions pass, collapsed_bound
        data = regression_dataset(tmp_path)
        cfg = small_fit_config(tmp_path, data, str(tmp_path / "fit"), iters=3)
        assert self.builds_after_the_fit(monkeypatch, ["fit-regression", "--config", cfg]) == 3

    def test_cox_builds_feature_factors_twice_after_the_fit(self, tmp_path, monkeypatch):
        # one cox_elbo_terms gives final_elbo and integrated_intensity; the
        # intensity on the prediction grid is the other pass
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], [[0.1], [0.25], [0.3], [0.6], [0.62], [0.9]])
        out = str(tmp_path / "fit")
        model = {
            "kernel": {"variance": 0.5, "lengthscales": [0.25], "mean": 1.5},
            "num_inducing": 4,
            "domain": [[0.0, 1.0]],
        }
        cfg = write_config(
            tmp_path, "cox.json",
            {"data": str(data), "out": out, "model": model, "optimizer": {"max_iters": 3}},
        )
        assert self.builds_after_the_fit(monkeypatch, ["fit-cox", "--config", cfg]) == 2
        summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        cox_model = CoxModel(lower=[0.0], upper=[1.0], events=read_csv(str(data), ["x1"]))
        terms = cox_elbo_terms(state, cox_model)
        assert summary["final_elbo"] == cox_elbo(state, cox_model)
        assert summary["integrated_intensity"] == terms.integral_term


class TestFitCox:
    def test_small_run(self, tmp_path):
        lam = lambda p: 20.0 * (1.0 + np.sin(2 * np.pi * p[:, 0]))
        events = sample_inhomogeneous_pp(lam, 41.0, [0.0], [1.0], seed=2)
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], events)
        out = str(tmp_path / "out")
        cfg = write_config(
            tmp_path,
            "cox.json",
            {
                "data": str(data),
                "out": out,
                "seed": 0,
                "model": {
                    "kernel": {"variance": 0.5, "lengthscales": [0.25], "mean": 3.0},
                    "num_inducing": 5,
                    "domain": [[0.0, 1.0]],
                    "quad_orders": [30],
                },
                "optimizer": {"max_iters": 8},
            },
        )
        assert main(["fit-cox", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["task"] == "fit-cox"
        assert summary["n_events"] == events.shape[0]
        assert summary["integrated_intensity"] > 0.0
        preds = read_csv(os.path.join(out, "predictions.csv"), ["x1", "intensity"])
        assert np.all(preds[:, 1] >= 0.0)

    def test_fit_uses_analytic_gradients(self, tmp_path):
        # one fused value-and-gradient call per evaluation; central
        # differences would cost 2 objective calls per parameter
        lam = lambda p: 20.0 * (1.0 + np.sin(2 * np.pi * p[:, 0]))
        events = sample_inhomogeneous_pp(lam, 41.0, [0.0], [1.0], seed=2)
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], events)
        out = str(tmp_path / "out")
        cfg = write_config(
            tmp_path,
            "cox.json",
            {
                "data": str(data),
                "out": out,
                "model": {
                    "kernel": {"variance": 0.5, "lengthscales": [0.25], "mean": 3.0},
                    "num_inducing": 5,
                    "domain": [[0.0, 1.0]],
                    "quad_orders": [30],
                },
                "optimizer": {"max_iters": 8},
            },
        )
        assert main(["fit-cox", "--config", cfg]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["objective_evaluations"] == summary["gradient_evaluations"] > 0
        assert 0 < summary["iterations"] <= 8


    def test_non_finite_start_exits_numerical_code(self, tmp_path, capsys):
        # exp(800) overflows, so the expected integrated rate is inf at the start
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], [[0.2], [0.5], [0.7]])
        cfg = write_config(
            tmp_path,
            "cox.json",
            {
                "data": str(data),
                "out": str(tmp_path / "out"),
                "model": {
                    "kernel": {"variance": 1.0, "lengthscales": [0.3], "mean": 800.0},
                    "num_inducing": 3,
                    "domain": [[0.0, 1.0]],
                },
            },
        )
        assert main(["fit-cox", "--config", cfg]) == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: objective is non-finite at the starting point")


class TestVerifyTask:
    def test_small_verify_passes(self, tmp_path, capsys):
        out = str(tmp_path / "v")
        cfg = write_config(
            tmp_path, "v.json", {"out": out, "seed": 0, "verify": {"instances": 5}}
        )
        rc = main(["verify", "--config", cfg])
        assert rc == 0
        assert "pass" in capsys.readouterr().out
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert report["all_pass"] is True
        assert len(report["instances"]) == 5

    def test_failing_report_exits_verify_code(self, tmp_path, capsys, monkeypatch):
        def failing_report(seed, n_instances):
            return {
                "all_pass": False,
                "max_equivalence_diff": 1.0,
                "max_chain_residual": 0.0,
                "instances": [
                    {"instance_seed": 11, "pass": True},
                    {"instance_seed": 12, "pass": False},
                    {"instance_seed": 13, "pass": False},
                ],
            }

        monkeypatch.setattr(cli, "run_verification", failing_report)
        cfg = write_config(
            tmp_path,
            "v.json",
            {"out": str(tmp_path / "v"), "seed": 0, "verify": {"instances": 3}},
        )
        assert main(["verify", "--config", cfg]) == 4
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "failing instance seeds: [12, 13]" in captured.err

    def test_worker_numerical_failure_exits_numerical_code(
        self, tmp_path, capsys, monkeypatch
    ):
        # the error is raised in a pool worker and must reach main intact
        original = verify.instance_record

        def failing_record(seed, regime=None):
            if seed == 2:
                raise NotPositiveDefiniteError("Kuu is not positive definite", 1e-2)
            return original(seed, regime)

        monkeypatch.setattr(verify, "instance_record", failing_record)
        cfg = write_config(
            tmp_path,
            "v.json",
            {"out": str(tmp_path / "v"), "seed": 0, "verify": {"instances": 4}},
        )
        assert main(["verify", "--config", cfg]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
