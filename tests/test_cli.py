"""End-to-end command line flows in temporary directories.

Covers config validation, strict data parsing with line numbers, fit
artifacts, determinism of outputs, and exit codes.
"""

import csv
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from sparsekl import cli, interdomain, svgp, verify
from sparsekl.cli import main, read_csv, read_xy_data, write_csv
from sparsekl.cox import (
    CoxModel,
    cox_elbo,
    cox_elbo_terms,
    fitted_intensity,
    sample_inhomogeneous_pp,
)
from sparsekl.gaussians import GaussianDist, NotPositiveDefiniteError
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


def regression_data_of_test_11(tmp_path):
    """The acceptance battery's regression data (test_11): 100 generated rows, seed 5."""
    gen = write_config(
        tmp_path,
        "gen.json",
        {"out": str(tmp_path / "gen"), "seed": 5,
         "generate": {"kind": "regression", "n": 100}},
    )
    assert main(["generate", "--config", gen]) == 0
    return str(tmp_path / "gen" / "dataset.csv")


def events_of_test_09(tmp_path):
    """The acceptance battery's Cox events (test_09): 109 draws of 100 (1 + sin 2 pi x)."""
    events = sample_inhomogeneous_pp(
        lambda p: 100.0 * (1.0 + np.sin(2.0 * np.pi * p[:, 0])), 205.0, [0.0], [1.0], seed=42
    )
    assert events.shape[0] == 109
    data = tmp_path / "events.csv"
    write_csv(data, ["x1"], events)
    return str(data)


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


def runnable_config(tmp_path, task, out):
    """A small config that ``task`` runs to completion, writing into ``out``."""
    model = {"kernel": {"variance": 1.0, "lengthscales": [0.3]}, "num_inducing": 3}
    docs = {
        "fit-regression": {"data": regression_dataset(tmp_path), "model": dict(model, noise_var=0.1)},
        "fit-classification": {"data": classification_dataset(tmp_path), "model": model},
        "fit-cox": {"data": events_of_test_09(tmp_path), "model": dict(model, domain=[[0.0, 1.0]])},
        "verify": {"verify": {"instances": 1}},
        "generate": {"generate": {"kind": "regression", "n": 5}},
    }
    if task.startswith("fit-"):
        docs[task]["optimizer"] = {"max_iters": 2}
    return write_config(tmp_path, "run.json", dict(docs[task], out=out, seed=0))


def assert_reruns_identical(tmp_path, task, doc):
    """Run ``task`` on ``doc`` twice in this process and check that the
    artifacts are byte-identical, apart from the summary's ``wall_time_s``
    line.  Returns the summary and output directory of the first run."""
    outs = [tmp_path / "run1", tmp_path / "run2"]
    for out in outs:
        cfg = write_config(tmp_path, f"{out.name}.json", dict(doc, out=str(out)))
        assert main([task, "--config", cfg]) == 0
    for name in ("checkpoint.json", "trace.csv", "predictions.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    texts = [(out / "summary.json").read_text(encoding="utf-8") for out in outs]
    kept = [[line for line in t.splitlines() if '"wall_time_s"' not in line] for t in texts]
    assert kept[0] == kept[1]
    return json.loads(texts[0]), str(outs[0])


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

    @pytest.mark.parametrize(
        "task, key, value, phrase",
        [
            ("fit-regression", "seed", -1, "seed: must be a nonnegative integer"),
            ("fit-regression", "model.num_inducing", 0, "model.num_inducing: must be a positive integer"),
            ("fit-regression", "data", 3, "data: must be a string"),
            ("fit-regression", "optimizer.optimize_features", "yes", "must be true or false"),
            ("fit-cox", "model.domain", [[1.0, 0.0]], "every lower bound must be below its upper"),
            ("fit-regression", "model.feature_type", "line", "model.feature_type: must be one of"),
        ],
        ids=["negative-seed", "zero-inducing", "numeric-data", "string-bool", "reversed-domain",
             "unknown-choice"],
    )
    def test_every_validator_names_its_key(self, tmp_path, capsys, task, key, value, phrase):
        model = {"kernel": {"variance": 1.0, "lengthscales": [1.0]}, "num_inducing": 2}
        if task == "fit-regression":
            model["noise_var"] = 0.1
        else:
            model["domain"] = [[0.0, 1.0]]
        doc = {"data": "x.csv", "model": model}
        *parents, leaf = key.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = value
        rc = main([task, "--config", write_config(tmp_path, "bad.json", doc)])
        assert rc == 2
        assert phrase in capsys.readouterr().err

    def test_removed_step_key_is_rejected(self, tmp_path, capsys):
        data = regression_dataset(tmp_path)
        cfg = small_fit_config(tmp_path, data, str(tmp_path / "o"))
        doc = json.loads(open(cfg, encoding="utf-8").read())
        doc["optimizer"]["step"] = 0.1
        rc = main(["fit-regression", "--config", write_config(tmp_path, "s.json", doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "unknown keys" in err and "optimizer.step" in err

    @pytest.mark.parametrize("feature_type", [None, "point"])
    def test_window_width_of_point_features_is_a_config_error(self, tmp_path, capsys, feature_type):
        # point features have no width: the setting is rejected, not dropped
        out = tmp_path / "o"
        cfg = small_fit_config(tmp_path, regression_dataset(tmp_path), str(out))
        doc = json.loads(open(cfg, encoding="utf-8").read())
        doc["model"]["window_width"] = 0.05
        if feature_type is not None:
            doc["model"]["feature_type"] = feature_type
        rc = main(["fit-regression", "--config", write_config(tmp_path, "w.json", doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error: ") and "model.window_width" in err
        assert not out.exists()

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

    def test_section_that_is_not_an_object(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"data": "x.csv", "model": 5})
        assert main(["fit-regression", "--config", cfg]) == 2
        assert capsys.readouterr().err.endswith("model: expected an object\n")

    def test_data_path_must_exist(self, tmp_path, capsys):
        cfg = small_fit_config(tmp_path, str(tmp_path / "nope.csv"), str(tmp_path / "o"))
        rc = main(["fit-regression", "--config", cfg])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_seed_override_follows_the_config_rule(self, tmp_path, capsys, task):
        out = tmp_path / "o"
        cfg = runnable_config(tmp_path, task, str(out))
        assert main([task, "--config", cfg, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --seed: must be a nonnegative integer, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_out_path_that_is_a_file_is_a_config_error(self, tmp_path, capsys, task):
        # named before the task runs, and the file is left as it was
        cfg = runnable_config(tmp_path, task, str(tmp_path / "o"))
        before = open(cfg, "rb").read()
        assert main([task, "--config", cfg, "--out", cfg]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: output path exists and is not a directory: {cfg}\n"
        assert open(cfg, "rb").read() == before
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("task", cli.TASKS)
    def test_valid_seed_override_runs(self, tmp_path, capsys, task):
        out = tmp_path / "o"
        assert main([task, "--config", runnable_config(tmp_path, task, str(out)), "--seed", "1"]) == 0
        assert out.is_dir()

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

    @pytest.mark.parametrize(
        "domain, orders, rc, message",
        [
            ([[0.0, 1.0], [0.0, 1.0]], [10], 2, "config error: model.quad_orders"),
            ([[0.0, 1.0]], [10, 10], 2, "config error: model.quad_orders"),
            ([[0.0, 0.4]], [10], 3, "data error: every event must lie inside the domain"),
        ],
        ids=["2d-domain-one-order", "1d-domain-two-orders", "event-outside-domain"],
    )
    def test_cox_orders_are_config_and_events_data(self, tmp_path, capsys, domain, orders, rc, message):
        events = tmp_path / "ev.csv"
        d = len(domain)
        write_csv(events, [f"x{i + 1}" for i in range(d)], [[0.5] * d, [0.25] * d])
        cfg = write_config(
            tmp_path,
            "cox.json",
            {
                "data": str(events),
                "out": str(tmp_path / "o"),
                "model": {
                    "kernel": {"variance": 1.0, "lengthscales": [1.0] * d},
                    "num_inducing": 2,
                    "domain": domain,
                    "quad_orders": orders,
                },
            },
        )
        assert main(["fit-cox", "--config", cfg]) == rc
        assert capsys.readouterr().err.startswith(message)


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
        [
            b"2," + b"1" * 200_000 + b"\n",
            b"2,3\n" * 5000 + b"\xff\xfe,1\n",
            b"\xff,1\n",
            b"3\n\xff,1\n",
        ],
        ids=[
            "field-over-csv-limit",
            "invalid-utf8",
            "invalid-utf8-next-line",
            "field-count-then-invalid-utf8",
        ],
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
            (
                b"a,b\n1,2\n3\n\xff,1\n",
                "{path} line 3: expected 2 fields, got 1",
            ),
            (
                b"a,b\n1,2\nfish,2\n\xff,1\n",
                "{path} line 3: could not convert string to float: 'fish'",
            ),
            (
                b"a,b\n4," + b"1" * 200_000 + b"\n\xff,1\n",
                "{path} line 2: field larger than field limit ({limit})",
            ),
            (
                b"a,b\n1,2\n5,\xc3\n",
                "{path} line 3: 'utf-8' codec can't decode byte 0xc3 in "
                "position 2: invalid continuation byte",
            ),
        ],
        ids=[
            "field-over-csv-limit",
            "invalid-utf8",
            "invalid-utf8-header",
            "header-over-limit",
            "field-count-then-invalid-utf8",
            "not-a-number-then-invalid-utf8",
            "field-over-limit-then-invalid-utf8",
            "truncated-multibyte",
        ],
    )
    def test_reader_errors_name_their_line(self, tmp_path, body, message):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == message.format(path=path, limit=csv.field_size_limit())

    @pytest.mark.parametrize(
        "body, message",
        [
            (b'a,b\n"1\n",2\n3,nan\n', "{path} line 4: non-finite value"),
            (b'a,b\n"1\n",2\n3,4,5\n', "{path} line 4: expected 2 fields, got 3"),
            (
                b'a,b\n"1\n",2\n\n"3\n\n",fish\n',
                "{path} line 5: could not convert string to float: 'fish'",
            ),
            (
                b"a,b\r1,2\r\xff,1\r",
                "{path} line 3: 'utf-8' codec can't decode byte 0xff in "
                "position 0: invalid start byte",
            ),
            (
                b"a,b\r1,2\r\n3,4\r5,\xc3\r6,7\r",
                "{path} line 4: 'utf-8' codec can't decode byte 0xc3 in "
                "position 2: invalid continuation byte",
            ),
        ],
        ids=[
            "non-finite-after-multiline-field",
            "field-count-after-multiline-field",
            "not-a-number-in-multiline-record",
            "invalid-utf8-cr-only",
            "truncated-multibyte-mixed-line-ends",
        ],
    )
    def test_errors_name_the_line_a_record_starts_on(self, tmp_path, body, message):
        # lines are counted as csv counts them: a quoted field may span lines,
        # and a line ends at LF, CRLF or a lone CR
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value) == message.format(path=path)

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

    @pytest.mark.parametrize(
        "body",
        [
            b"a,b\n1,2\n",
            b"a,b\n1.0,nan\n\xff,1\n",
            b"a,b\n" + b"2,3\n" * 3000 + b"\xff,1\n",
            b"\xff\n",
            b"a,b\n4," + b"1" * 200_000 + b"\n",
            b"",
        ],
        ids=["good", "non-finite", "invalid-utf8", "invalid-utf8-header", "field", "empty"],
    )
    def test_data_file_is_opened_once(self, tmp_path, monkeypatch, body):
        path = tmp_path / "t.csv"
        path.write_bytes(body)
        opened = []

        def counted_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(cli, "open", counted_open, raising=False)
        try:
            read_csv(str(path), ["a", "b"])
        except cli.DataError:
            pass
        assert opened == [str(path)]

    def test_large_table_round_trips_exactly(self, tmp_path):
        # 5,000 rows put the bytes and the values well past any read-ahead buffer
        rng = np.random.default_rng(7)
        edge = [-0.0, 5e-324, 1.7976931348623157e308, -2.5e-310, 1e22, 0.1]
        values = rng.standard_normal((5000, 2)) * 10.0 ** rng.integers(-8, 9, (5000, 2))
        rows = [(i, v, edge[i % len(edge)], w) for i, (v, w) in enumerate(values.tolist())]
        header = ["iter", "objective", "step_scale", "grad_norm"]
        path = tmp_path / "big.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == self.per_cell_reference(header, rows)
        assert path.read_text().splitlines()[4999].startswith("4998.0,")
        back = read_csv(str(path), header)
        assert back.tobytes() == np.asarray(rows, dtype=float).tobytes()

    def test_missing_file_message(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(cli.DataError) as err:
            read_csv(str(path), ["a", "b"])
        assert str(err.value).startswith(f"cannot read {path}: ")

    def test_header_only_data_file_exits_with_the_data_code(self, tmp_path, capsys):
        data = tmp_path / "train.csv"
        data.write_text("x1,y\n", encoding="utf-8")
        cfg = small_fit_config(tmp_path, str(data), str(tmp_path / "fit"), iters=1)
        assert main(["fit-regression", "--config", cfg]) == cli.EXIT_DATA
        assert capsys.readouterr().err == f"data error: {data}: no data rows\n"

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

    @pytest.mark.parametrize(
        "kind, key, value",
        [
            ("regression", "domain", [[0, 1], [5, 6]]),
            ("classification", "domain", [[0, 1], [5, 6]]),
            ("regression", "rate", 30.0),
            ("classification", "rate", 30.0),
            ("cox", "noise_sd", 0.2),
            ("cox", "n", 50),
        ],
    )
    def test_setting_of_another_kind_is_a_config_error(self, tmp_path, capsys, kind, key, value):
        out = tmp_path / "g"
        cfg = self._config(tmp_path, kind, str(out), **{key: value})
        assert main(["generate", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"generate.{key}" in err
        assert not out.exists()


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

    def _fit(self, tmp_path, name, data, model, optimizer=None):
        doc = {"data": data, "out": str(tmp_path / name), "seed": 0, "model": model}
        if optimizer is not None:
            doc["optimizer"] = optimizer
        cfg = write_config(tmp_path, f"{name}.json", doc)
        assert main(["fit-regression", "--config", cfg]) == 0
        return json.loads((tmp_path / name / "summary.json").read_text())

    def test_default_fit_reaches_collapsed_optimum(self, tmp_path):
        data = regression_data_of_test_11(tmp_path)
        summary = self._fit(tmp_path, "fit", data, TEST_11_MODEL)
        assert summary["final_elbo"] >= -45.526
        assert summary["collapsed_gap"] <= 1e-3
        assert summary["iterations"] <= 50
        assert summary["converged"] is True
        assert summary["stop_reason"].startswith("CONVERGENCE")

    def test_feature_fit_from_fixed_optimum_does_not_lose(self, tmp_path):
        # free locations started from the initial state end below the
        # fixed-feature optimum; started from it, they cannot
        data = regression_data_of_test_11(tmp_path)
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
        calls = {"assemble_Kuu": 0, "assemble_Kuf": 0, "cholesky_jittered": 0}

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
            "assemble_Kuu": 1, "assemble_Kuf": 1, "cholesky_jittered": 1
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

    def test_window_feature_fit_reruns_identically_and_reloads(self, tmp_path):
        data = classification_dataset(tmp_path)
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.3]},
            "num_inducing": 4,
            "feature_type": "gwindow",
        }
        doc = {"data": data, "seed": 0, "model": model,
               "optimizer": {"max_iters": 8, "optimize_features": True}}
        summary, out = assert_reruns_identical(tmp_path, "fit-classification", doc)
        X, Y = read_xy_data(data, 1)
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        assert elbo(state, X, Y) == summary["final_elbo"]


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
    def builds_after_the_fit(monkeypatch, argv, names=("assemble_Kuf", "cholesky_jittered")):
        """``(_FeatureFactors, *names)`` calls, ``names`` bound in ``svgp``, made by
        ``main(argv)`` once the optimizer returns."""
        counts = dict.fromkeys(("_FeatureFactors", *names), 0)
        real_factors, real_maximize = svgp._FeatureFactors, cli.maximize

        class Counted(real_factors):
            def __init__(self, *args, **kwargs):
                counts["_FeatureFactors"] += 1
                super().__init__(*args, **kwargs)

        def counted(name):
            real = getattr(svgp, name)

            def call(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return call

        def fit_then_reset(*args, **kwargs):
            result = real_maximize(*args, **kwargs)
            counts.update(dict.fromkeys(counts, 0))
            return result

        monkeypatch.setattr(svgp, "_FeatureFactors", Counted)
        for name in names:
            monkeypatch.setattr(svgp, name, counted(name))
        monkeypatch.setattr(cli, "maximize", fit_then_reset)
        assert main(argv) == 0
        return tuple(counts.values())

    @pytest.mark.parametrize(
        "task, expected",
        [("fit-regression", (1, 1, 1)), ("fit-classification", (1, 1, 1)), ("fit-cox", (1, 2, 1))],
        ids=["regression", "classification", "cox"],
    )
    def test_fitted_model_is_factored_once(self, tmp_path, monkeypatch, task, expected):
        # one factorization at the fitted state serves the closed-form q, the
        # conversion, final_elbo, the predictions, the collapsed bound, the Cox
        # terms and the Cox prediction grid, whose rows get only their own Kuf
        out = str(tmp_path / "fit")
        if task == "fit-regression":
            cfg = small_fit_config(tmp_path, regression_dataset(tmp_path), out, iters=3)
        elif task == "fit-classification":
            model = {"kernel": {"variance": 1.0, "lengthscales": [0.3]}, "num_inducing": 4}
            cfg = write_config(
                tmp_path, "fit.json",
                {"data": classification_dataset(tmp_path), "out": out, "model": model,
                 "optimizer": {"max_iters": 3}},
            )
        else:
            data = tmp_path / "events.csv"
            write_csv(data, ["x1"], [[0.1], [0.25], [0.3], [0.6], [0.62], [0.9]])
            model = {
                "kernel": {"variance": 0.5, "lengthscales": [0.25], "mean": 1.5},
                "num_inducing": 4,
                "domain": [[0.0, 1.0]],
            }
            cfg = write_config(
                tmp_path, "cox.json",
                {"data": str(data), "out": out, "model": model, "optimizer": {"max_iters": 3}},
            )
        assert self.builds_after_the_fit(monkeypatch, [task, "--config", cfg]) == expected
        if task == "fit-cox":
            summary = json.loads((tmp_path / "fit" / "summary.json").read_text())
            state = load_checkpoint(os.path.join(out, "checkpoint.json"))
            cox_model = CoxModel(lower=[0.0], upper=[1.0], events=read_csv(str(data), ["x1"]))
            terms = cox_elbo_terms(state, cox_model)
            assert summary["final_elbo"] == cox_elbo(state, cox_model)
            assert summary["integrated_intensity"] == terms.integral_term

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cox_grid_reuses_the_fitted_factor_of_Kuu(self, tmp_path, monkeypatch, dim):
        # after the fit: one Kuu assembled and factored, one Kuf for the events and
        # quadrature nodes and one for the prediction grid
        data = tmp_path / "events.csv"
        events = [[0.1, 0.8], [0.25, 0.3], [0.3, 0.5], [0.6, 0.1], [0.62, 0.9], [0.9, 0.4]]
        write_csv(data, [f"x{i + 1}" for i in range(dim)], [e[:dim] for e in events])
        model = {
            "kernel": {"variance": 0.5, "lengthscales": [0.25] * dim, "mean": 1.5},
            "num_inducing": 4,
            "feature_type": "gwindow",
            "domain": [[0.0, 1.0]] * dim,
            "quad_orders": [12] * dim,
        }
        cfg = write_config(
            tmp_path, "cox.json",
            {"data": str(data), "out": str(tmp_path / "fit"), "model": model,
             "optimizer": {"max_iters": 3}},
        )
        names = ("assemble_Kuu", "cholesky_jittered", "assemble_Kuf")
        counts = self.builds_after_the_fit(monkeypatch, ["fit-cox", "--config", cfg], names)
        assert counts == (1, 1, 1, 2)


def fit_case(tmp_path, case):
    """``(task, config path)`` of a fit writing to ``tmp_path / "fit"``: test_11's
    regression ("regression-1-iter" capped at one iteration), a probit
    classification, or test_09's events under a Cox model."""
    if case.startswith("regression"):
        task, data, model = "fit-regression", regression_data_of_test_11(tmp_path), TEST_11_MODEL
    elif case == "classification":
        task, data = "fit-classification", classification_dataset(tmp_path)
        model = {"kernel": {"variance": 1.0, "lengthscales": [0.3]}, "num_inducing": 4}
    else:
        task, data = "fit-cox", events_of_test_09(tmp_path)
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.2], "mean": math.log(109)},
            "num_inducing": 8,
            "domain": [[0.0, 1.0]],
        }
    doc = {"data": data, "out": str(tmp_path / "fit"), "seed": 0, "model": model}
    if case == "regression-1-iter":
        doc["optimizer"] = {"max_iters": 1}
    return task, write_config(tmp_path, "fit.json", doc)


class TestFitEndsAtItsState:
    """Every fit writes the state its optimizer reached, unwhitened once."""

    @pytest.mark.parametrize(
        "case", ["regression-1-iter", "regression", "classification", "cox"]
    )
    def test_final_elbo_is_the_last_traced_objective(self, tmp_path, case):
        # a regression q rebuilt at other hyperparameters than the fitted
        # ones (the initial noise_var, say) ends nats below its own trace
        task, cfg = fit_case(tmp_path, case)
        assert main([task, "--config", cfg]) == 0
        final = json.loads((tmp_path / "fit" / "summary.json").read_text())["final_elbo"]
        trace = read_csv(
            str(tmp_path / "fit" / "trace.csv"), ["iter", "objective", "step_scale", "grad_norm"]
        )
        assert abs(final - trace[-1, 1]) <= 1e-9 * (1.0 + abs(final))

    @pytest.mark.parametrize("case", ["regression", "classification", "cox"])
    def test_fit_forms_no_covariance(self, tmp_path, monkeypatch, case):
        builds = []
        real = GaussianDist.__post_init__
        monkeypatch.setattr(
            GaussianDist, "__post_init__", lambda self: builds.append(1) or real(self)
        )
        task, cfg = fit_case(tmp_path, case)
        assert main([task, "--config", cfg]) == 0
        assert builds == []


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


    @pytest.mark.parametrize("dim", [1, 2])
    def test_predictions_are_the_fitted_intensity_of_the_checkpoint(self, tmp_path, dim):
        # the prediction grid is the one pass the report does not share with the
        # fitted state's factorization: 200 points in 1-D, 32 x 32 in 2-D
        lower, upper = [0.0] * dim, [1.0] * dim
        lam = lambda p: 40.0 * (1.0 + np.sin(2 * np.pi * p[:, 0]))
        events = sample_inhomogeneous_pp(lam, 81.0, lower, upper, seed=4)
        header = [f"x{i + 1}" for i in range(dim)]
        data = tmp_path / "events.csv"
        write_csv(data, header, events)
        out = str(tmp_path / "fit")
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.3] * dim,
                       "mean": math.log(events.shape[0])},
            "num_inducing": 4,
            "domain": [[0.0, 1.0]] * dim,
        }
        if dim == 2:
            model.update(feature_type="gwindow", quad_orders=[8, 8])
        cfg = write_config(
            tmp_path, "cox.json",
            {"data": str(data), "out": out, "model": model, "optimizer": {"max_iters": 5}},
        )
        assert main(["fit-cox", "--config", cfg]) == 0
        preds = read_csv(os.path.join(out, "predictions.csv"), header + ["intensity"])
        axis = np.linspace(0.0, 1.0, 200 if dim == 1 else 32)
        grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1).reshape(-1, dim)
        assert preds.shape == (axis.size**dim, dim + 1)
        np.testing.assert_array_equal(preds[:, :dim], grid)
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        cox_model = CoxModel(lower=lower, upper=upper, events=events, quad_orders=model.get("quad_orders"))
        np.testing.assert_array_equal(preds[:, dim], fitted_intensity(state, cox_model, grid))

    def test_window_fit_reruns_identically_and_reloads(self, tmp_path):
        lam = lambda p: 20.0 * (1.0 + np.sin(2 * np.pi * p[:, 0]))
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], sample_inhomogeneous_pp(lam, 41.0, [0.0], [1.0], seed=2))
        model = {
            "kernel": {"variance": 1.0, "lengthscales": [0.2], "mean": 3.0},
            "num_inducing": 5,
            "feature_type": "gwindow",
            "domain": [[0.0, 1.0]],
        }
        doc = {"data": str(data), "seed": 0, "model": model, "optimizer": {"max_iters": 8}}
        summary, out = assert_reruns_identical(tmp_path, "fit-cox", doc)
        cox_model = CoxModel(lower=[0.0], upper=[1.0], events=read_csv(str(data), ["x1"]))
        state = load_checkpoint(os.path.join(out, "checkpoint.json"))
        assert cox_elbo(state, cox_model) == summary["final_elbo"]

    def test_evaluations_rebuild_no_per_model_invariant(self, tmp_path, monkeypatch):
        # each evaluation stacks the features once (not for Kuu, Kuf and the
        # gradient apiece), predicts at the model's one events-and-grid array
        # and reuses q_chol's triangle indices
        seen, during, points = {"stacks": 0, "tril_indices": 0}, {}, []
        real_stack, real_tril = interdomain._stack, np.tril_indices
        real_factors, real_maximize = svgp._FeatureFactors, cli.maximize

        def stack(features, kernel):
            stacked = real_stack(features, kernel)
            seen["stacks"] += stacked is not features
            return stacked

        def tril_indices(*args, **kwargs):
            seen["tril_indices"] += 1
            return real_tril(*args, **kwargs)

        class Recorded(real_factors):
            def __init__(self, features, kernel, X, *args, **kwargs):
                points.append(X)
                super().__init__(features, kernel, X, *args, **kwargs)

        def fit(*args, **kwargs):
            seen.update(stacks=0, tril_indices=0)
            points.clear()
            result = real_maximize(*args, **kwargs)
            during.update(seen, evaluations=result.gradient_evaluations, points=list(points))
            return result

        monkeypatch.setattr(interdomain, "_stack", stack)
        monkeypatch.setattr(svgp, "_stack", stack, raising=False)
        monkeypatch.setattr(np, "tril_indices", tril_indices)
        monkeypatch.setattr(svgp, "_FeatureFactors", Recorded)
        monkeypatch.setattr(cli, "maximize", fit)
        data = tmp_path / "events.csv"
        write_csv(data, ["x1"], [[0.1], [0.25], [0.3], [0.6], [0.62], [0.9]])
        model = {
            "kernel": {"variance": 0.5, "lengthscales": [0.25], "mean": 1.5},
            "num_inducing": 4,
            "feature_type": "gwindow",
            "domain": [[0.0, 1.0]],
        }
        cfg = write_config(
            tmp_path, "cox.json",
            {"data": str(data), "out": str(tmp_path / "fit"), "model": model,
             "optimizer": {"max_iters": 5}},
        )
        assert main(["fit-cox", "--config", cfg]) == 0
        evaluations = during["evaluations"]
        assert evaluations > 1 and len(during["points"]) == evaluations
        assert during["stacks"] == evaluations
        assert during["tril_indices"] <= 1
        first = during["points"][0]
        assert all(X is first for X in during["points"]) and not first.flags.writeable

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

    @pytest.mark.parametrize("feature_type", ["point", "gwindow"])
    def test_more_features_reach_the_same_optimum(self, tmp_path, feature_type):
        # test_09's events.  From M = 16 on Kuu is ill-conditioned (cond about
        # 1e12 and up); the fit must still reach a stationary point whose
        # intensity integrates to the event count, and more features never
        # lower the bound
        data, n_events = events_of_test_09(tmp_path), 109
        summaries = {}
        for M in (8, 16, 24):
            out = tmp_path / f"M{M}"
            model = {
                "kernel": {"variance": 1.0, "lengthscales": [0.2], "mean": math.log(n_events)},
                "num_inducing": M,
                "feature_type": feature_type,
                "domain": [[0.0, 1.0]],
            }
            cfg = write_config(
                tmp_path, f"M{M}.json", {"data": data, "out": str(out), "model": model}
            )
            assert main(["fit-cox", "--config", cfg]) == 0
            summary = summaries[M] = json.loads((out / "summary.json").read_text())
            trace = read_csv(str(out / "trace.csv"), ["iter", "objective", "step_scale", "grad_norm"])
            assert summary["converged"], (M, summary["stop_reason"])
            assert trace[-1, 3] <= 0.1, M
            assert abs(summary["integrated_intensity"] - n_events) <= 0.01 * n_events, M
        for M in (16, 24):
            assert summaries[M]["final_elbo"] >= summaries[8]["final_elbo"] - 1e-3, M

    def test_square_link_fit_integrates_to_the_event_count(self, tmp_path):
        # f -> a f scales the rate by a^2 and keeps the KL, so at a stationary point of
        # the exact objective the fitted intensity integrates to the event count; the
        # fit starts at mean 0, where E[log f^2] is most curved
        data, n_events = events_of_test_09(tmp_path), 109
        model = {"kernel": {"variance": 1.0, "lengthscales": [0.2]}, "num_inducing": 8,
                 "link": "square", "domain": [[0.0, 1.0]]}
        out = tmp_path / "sq"
        cfg = write_config(tmp_path, "sq.json", {"data": data, "out": str(out), "model": model})
        assert main(["fit-cox", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["converged"], summary["stop_reason"]
        assert abs(summary["integrated_intensity"] - n_events) <= 0.01 * n_events


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

        def failing_record(seed):
            if seed == 2:
                raise NotPositiveDefiniteError("Kuu is not positive definite", 1e-2)
            return original(seed)

        monkeypatch.setattr(verify, "instance_record", failing_record)
        cfg = write_config(
            tmp_path,
            "v.json",
            {"out": str(tmp_path / "v"), "seed": 0, "verify": {"instances": 4}},
        )
        assert main(["verify", "--config", cfg]) == cli.EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err


# Minor page faults of each of six reg-large-shaped collapsed_bound_and_grad calls
# (n = 4,000, M = 20), after a CLI main() call or after the imports alone.
FAULTS_PER_EVALUATION = """
import resource, sys
import numpy as np
from sparsekl import cli
from sparsekl.interdomain import PointFeature
from sparsekl.kernels import Kernel
from sparsekl.svgp import GaussianNoise, collapsed_bound_and_grad
if sys.argv[1] == "main":
    assert cli.main(["verify", "--config", sys.argv[2]]) == cli.EXIT_CONFIG
rng = np.random.default_rng(0)
X = rng.uniform(0.0, 1.0, size=(4000, 1))
Y = np.sin(6.0 * X[:, 0]) + 0.1 * rng.standard_normal(4000)
features = [PointFeature([z]) for z in np.linspace(0.0, 1.0, 20)]
state = cli._initial_state(features, Kernel(1.0, [0.1]), GaussianNoise(0.1))
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    collapsed_bound_and_grad(state, X, Y)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
class TestAllocatorPolicy:
    """The CLI keeps the heap memory it frees mapped; a library import and a user's
    own glibc malloc settings are left alone.  Each case runs in a fresh process,
    so this process's allocator is not touched."""

    @staticmethod
    def run(args, **env):
        base = {k: v for k, v in os.environ.items()
                if k not in cli._MALLOC_ENV and k != "GLIBC_TUNABLES"}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        base["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", *args], env={**base, **env},
                              capture_output=True, text=True, check=True)
        return done.stdout.strip()

    def faults(self, tmp_path, mode, **env):
        out = self.run([FAULTS_PER_EVALUATION, mode, str(tmp_path / "absent.json")], **env)
        return json.loads(out)

    def test_cli_evaluations_after_the_first_reuse_their_pages(self, tmp_path):
        # the parent made about 1,030 faults per evaluation
        faults = self.faults(tmp_path, "main")
        assert max(faults[2:]) < 100, faults

    @pytest.mark.parametrize(
        "mode, env",
        [("import", {}), ("main", {"MALLOC_TRIM_THRESHOLD_": "131072"})],
        ids=["import-alone", "main-with-user-setting"],
    )
    def test_allocator_is_left_alone(self, tmp_path, mode, env):
        # the control: without the policy the same evaluations fault their pages in
        faults = self.faults(tmp_path, mode, **env)
        assert min(faults[2:]) >= 100, faults

    def test_policy_says_whether_it_was_set(self):
        # each user setting alone stops the policy; with none it is set
        script = """
import json, os
from sparsekl import cli
user = [("MALLOC_TRIM_THRESHOLD_", "131072"), ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("MALLOC_TOP_PAD_", "131072"), ("MALLOC_MMAP_MAX_", "65536"),
        ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072")]
result = {}
for name, value in user:
    os.environ[name] = value
    result[name] = cli._keep_freed_heap()
    del os.environ[name]
os.environ["GLIBC_TUNABLES"] = "glibc.rtld.optional_static_tls=1024"
result["other tunables"] = cli._keep_freed_heap()
print(json.dumps(result))
"""
        assert json.loads(self.run([script])) == {
            "MALLOC_TRIM_THRESHOLD_": False,
            "MALLOC_MMAP_THRESHOLD_": False,
            "MALLOC_TOP_PAD_": False,
            "MALLOC_MMAP_MAX_": False,
            "GLIBC_TUNABLES": False,
            "other tunables": True,
        }
