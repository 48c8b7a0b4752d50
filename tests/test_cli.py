"""Command-line contract: exit codes, schema errors, reproducibility, export."""
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import tempfile
import time

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uclt import simulate
from uclt.cli import _Schema, _validate_model, main
from uclt.simulate import KINDS, MD_FAMILY_LEVEL


def write_cfg(path, doc):
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def theorem_cfg(**overrides):
    doc = {
        "seed": 20260808,
        "replications": 1200,
        "model": {
            "kind": "iid_gaussian_field",
            "name": "holder-gaussian",
            "x_points": {"grid_1d": {"n": 5, "low": 0.1, "high": 1.0}},
            "kernel": {"name": "fractional_brownian", "hurst": 0.5},
            "horizon": 16,
        },
        "psi": {"form": "natural"},
        "p_grid": [2, 2.5, 3, 4],
        "n_grid": [1, 2, 4, 8, 16],
        "entropy": {"nodes": 10},
        "integral": {"nodes": 120},
    }
    doc.update(overrides)
    return doc


def run_quiet(command, doc):
    """`main` on `doc` in a temporary directory: the exit code, stderr and
    whether the output directory exists afterwards."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        cfg = os.path.join(tmp, "c.json")
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        out = os.path.join(tmp, "run")
        code = main([command, "--config", cfg, "--out", out])
        return code, err.getvalue(), os.path.exists(out)


def read_tree(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            p = os.path.join(dirpath, f)
            with open(p, "rb") as fh:
                out[os.path.relpath(p, root)] = fh.read()
    return out


class TestCheckTheorem:
    def test_satisfied_exit_zero(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg())
        code = main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 0
        verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
        assert verdict["verdicts"]["moment_level"]["conclusion"] == \
            "hypotheses-satisfied-at-resolution"
        assert verdict["config_sha256"]
        assert (tmp_path / "run" / "entropy_trace.csv").exists()
        assert (tmp_path / "run" / "field_csv" / "manifest.json").exists()

    def test_exploding_variance_exit_two(self, tmp_path):
        doc = theorem_cfg()
        doc["model"]["growth"] = 0.6
        doc["n_grid"] = [1, 2, 4, 8, 16]
        cfg = write_cfg(tmp_path / "c.json", doc)
        code = main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")])
        assert code == 2
        verdict = json.loads((tmp_path / "run" / "verdict.json").read_text())
        assert verdict["verdicts"]["moment_level"]["conclusion"] == "hypothesis-failed(variance)"

    def test_one_engine_chunk_rejected_before_simulating(self, monkeypatch):
        # replications <= 16 is one engine chunk: no jackknife standard error
        def generate(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr("uclt.simulate._generate", generate)
        doc = theorem_cfg()
        doc["replications"] = 16
        code, err, made = run_quiet("check-theorem", doc)
        assert code == 1
        assert "config.replications: " in err and "two engine chunks" in err
        assert "Traceback" not in err
        assert not made

    def test_negative_q_schema_error(self, tmp_path):
        doc = theorem_cfg()
        doc["model"] = {"kind": "weibull_field", "name": "w",
                       "x_points": {"grid_1d": {"n": 2}}, "horizon": 8,
                       "K": 1.0, "q": -2.0}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1

    def test_unknown_key_rejected(self, tmp_path):
        doc = theorem_cfg()
        doc["surprise"] = 1
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1

    @pytest.mark.parametrize("kernel,path", [
        ({"name": "matern"}, "config.model.kernel.name"),
        ({"name": "rbf", "lenght_scale": 0.1}, "config.model.kernel.lenght_scale"),
        ({"name": "fractional_brownian", "hurst": 2.0}, "config.model: hurst"),
        # each kernel's keys and defaults are its KERNELS entry, checked like a model's
        ({"name": "rbf", "length_scale": 0}, "config.model: length_scale"),
        ({"name": "rbf", "length_scale": "0.5"}, "config.model: length_scale"),
        ({"name": "rbf", "length_scale": None}, "config.model: length_scale"),
        ({"name": "rbf", "hurst": 0.5}, "config.model.kernel.hurst"),
        ({"name": "brownian", "hurst": 0.9}, "config.model.kernel.hurst"),
        ({"name": "white", "variance": True}, "config.model: variance"),
    ])
    def test_bad_kernel_key_path(self, tmp_path, capsys, kernel, path):
        doc = theorem_cfg()
        doc["model"]["kernel"] = kernel
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("x_points", [
        [[0.1], [0.2, 0.3]],
        [[0.1], ["a"]],
        [[0.1], [float("inf")]],
        [[0.1], [True]],
        [0.1, 0.2],
        [],
        {"grid": 3},
    ], ids=["ragged", "string", "infinite", "bool", "flat", "empty", "no-grid_1d"])
    def test_bad_x_points_key_path(self, tmp_path, capsys, x_points):
        doc = theorem_cfg()
        doc["model"]["x_points"] = x_points
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.model.x_points: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # |z|**2000 overflows a double for |z| > 1.43: found in the simulated
    # moments, after the config is read, and still blamed on config.p_grid.
    # A Gaussian model's moments are exact and finite at p = 2000, so the
    # overflowing grid runs on a garch_like model, whose moments are simulated
    @pytest.mark.parametrize("p_grid", [[3, 2], [0.5, 2], [2, 2], [2, float("inf")], [2, 2000]],
                             ids=["descending", "below-one", "repeated", "infinite", "overflowing"])
    def test_bad_p_grid_key_path(self, tmp_path, capsys, p_grid):
        doc = theorem_cfg(p_grid=p_grid)
        if p_grid == [2, 2000]:
            doc["model"]["kind"] = "garch_like"
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.p_grid: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_huge_order_rejected_within_seconds(self, tmp_path, capsys):
        # p = 1e7 raised by about p/2 multiplications per chunk ran for hours;
        # above DEFAULT_P_CAP it is one power, which overflows at once
        doc = theorem_cfg(p_grid=[2, 1e7])
        doc["model"]["kind"] = "garch_like"
        cfg = write_cfg(tmp_path / "c.json", doc)
        t0 = time.time()
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert time.time() - t0 < 10.0
        assert "config.p_grid: order p = 1e+07" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change,path", [
        ({"n_grid": [0.5, 2]}, "config.n_grid: "),
        ({"n_grid": [1, 32]}, "config.n_grid: "),
        ({"clt": {"n_pair": [1.5, 8]}}, "config.clt.n_pair: "),
        ({"clt": {"n_pair": [4, 32]}}, "config.clt.n_pair: "),
        ({"integral": {"eps_lo_frac": float("inf")}}, "config.integral.eps_lo_frac: "),
        ({"variance_growth_factor": float("inf")}, "config.variance_growth_factor: "),
        ({"seed": -1}, "config.seed: "),
        # a one-point model has no pair, so its averaged increment distance is zero
        ({"model": {"kind": "iid_gaussian_field", "x_points": {"grid_1d": {"n": 1}},
                    "horizon": 16}}, "config.model: "),
        ({"model": {"kind": "iid_gaussian_field", "x_points": {"grid_1d": {"n": 21}},
                    "horizon": 16}, "entropy": {"mode": "exact"}}, "config.entropy.mode: "),
    ], ids=["fractional-n", "n-beyond-horizon", "fractional-n_pair", "n_pair-beyond-horizon",
            "infinite-eps_lo_frac", "infinite-growth-factor", "negative-seed", "one-point-model",
            "exact-entropy-above-cap"])
    def test_bad_key_path(self, tmp_path, capsys, change, path):
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg(**change))
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change,path", [
        ({"p_grid": [1.0, 2.0, 3.0]}, "config.p_grid: "),
        ({"p_grid": [2.0]}, "config.p_grid: "),
        ({"psi": {"form": "degenerate", "r": 5.0}}, "config.psi: "),
        ({"psi": {"form": "tabulated", "grid": [10, 12], "values": [1, 2]}}, "config.psi: "),
        ({"psi": {"form": "tabulated", "grid": [3], "values": [1]}}, "config.psi: "),
    ], ids=["natural-at-order-one", "natural-one-order", "degenerate-off-grid",
            "tabulated-above-grid", "tabulated-one-order"])
    def test_psi_without_orders_rejected_before_simulating(self, tmp_path, capsys, monkeypatch,
                                                           change, path):
        def simulate(*args, **kwargs):
            raise AssertionError("estimate_moment_curves reached for a psi without orders")

        monkeypatch.setattr("uclt.cli.estimate_moment_curves", simulate)
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg(**change))
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("psi,path", [
        ({"form": "closed_power", "q": 2, "r": 3}, "config.psi: r "),
        ({"form": "scaled", "factor": 2, "base": {"form": "closed_power", "q": 2, "bogus": 1}},
         "config.psi: base: bogus "),
        ({"form": "closed_power", "q": "2"}, "config.psi: q "),
        ({"form": "closed_power"}, "config.psi: q "),
        ({"form": "closed_power", "q": 2, "support": [2]}, "config.psi: support "),
        ({"form": "scaled", "factor": 2, "base": 5}, "config.psi: base: expected an object"),
        ({"form": "scaled", "factor": 2, "support": [3, 9],
          "base": {"form": "closed_power", "q": 2}}, "config.psi: support "),
    ], ids=["key-of-another-form", "nested-unknown-key", "string-number", "missing-key",
            "short-support", "base-not-an-object", "wrapper-support-not-the-base's"])
    def test_bad_psi_key_path(self, psi, path):
        code, err, made = run_quiet("check-theorem", theorem_cfg(psi=psi))
        assert code == 1
        assert path in err
        assert "Traceback" not in err
        assert not made

    def test_one_point_model_rejected_before_simulating(self, tmp_path, capsys, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("estimate_moment_curves reached for a one-point model")

        monkeypatch.setattr("uclt.cli.estimate_moment_curves", simulate)
        doc = theorem_cfg()
        doc["model"]["x_points"] = [[0.5]]
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.model.x_points" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg())
        assert main(["check-theorem", "--config", cfg, "--seed", "-1",
                     "--out", str(tmp_path / "run")]) == 1
        assert "config.seed: " in capsys.readouterr().err

    def test_malformed_json_line_precise(self, tmp_path, capsys):
        p = tmp_path / "c.json"
        p.write_text('{\n  "seed": 1,\n  "oops"\n}\n')
        assert main(["check-theorem", "--config", str(p), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert "line 4 column 1" in err

    def test_missing_config(self, tmp_path):
        assert main(["check-theorem", "--config", str(tmp_path / "nope.json")]) == 1


def readme_theorem_cfg():
    """The check-theorem config of the README, its first JSON block."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return json.loads(fh.read().split("```json", 1)[1].split("```", 1)[0])


def estimator_must_not_run(*args, **kwargs):
    raise AssertionError("estimate_moment_curves reached for a Gaussian model's exact field")


class TestExactMomentField:
    def test_gaussian_field_not_simulated(self, monkeypatch):
        monkeypatch.setattr("uclt.cli.estimate_moment_curves", estimator_must_not_run)
        code, err, made = run_quiet("check-theorem", theorem_cfg())
        assert (code, made) == (0, True), err
        # the exact norms stay finite at every finite order
        code, err, made = run_quiet("check-theorem", theorem_cfg(p_grid=[2, 1e307]))
        assert (code, made) == (0, True), err

    @pytest.mark.parametrize("change", [
        {"growth": 0.3}, {"bias": 0.1}, {"kind": "garch_like"},
        {"kind": "weibull_field", "kernel": None, "K": 1.0, "q": 2.0, "amplitude_slope": 0.5},
        {"kind": "bounded_sign", "kernel": None, "amplitude_slope": 0.5},
    ], ids=["gaussian-growth", "gaussian-bias", "garch", "weibull", "sign"])
    def test_other_models_simulated(self, monkeypatch, change):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].kind)
            return simulate.estimate_moment_curves(*args, **kwargs)

        monkeypatch.setattr("uclt.cli.estimate_moment_curves", counted)
        doc = theorem_cfg()
        doc["model"] = {k: v for k, v in {**doc["model"], **change}.items() if v is not None}
        code, err, made = run_quiet("check-theorem", doc)
        assert code in (0, 2) and made, err
        assert calls == [doc["model"]["kind"]]

    def test_readme_config_draws_only_the_clt(self, tmp_path, monkeypatch):
        # the CLT's two samples come from the closed law of the sums: no path
        # is generated, and each sample is one normal per replication and point
        draws, normals = [], []
        generate, kind = simulate._generate, KINDS["iid_gaussian_field"]

        def counted(*args, **kwargs):
            paths = generate(*args, **kwargs)
            draws.append(paths.size)
            return paths

        def law(model, p):
            real = kind.law(model, p)

            def sums(ns, cols):
                draw = real.sums(ns, cols)

                def counted_draw(rng, count):
                    out = draw(rng, count)     # one normal per entry
                    normals.append(out.size)
                    return out
                return counted_draw
            return real._replace(sums=sums)

        monkeypatch.setattr("uclt.simulate._generate", counted)
        monkeypatch.setitem(KINDS, "iid_gaussian_field", kind._replace(law=law))
        monkeypatch.setattr("uclt.cli.estimate_moment_curves", estimator_must_not_run)
        cfg = write_cfg(tmp_path / "c.json", readme_theorem_cfg())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert draws == []
        assert sum(normals) == 2 * 2000 * 9      # the CLT's two samples of R * points

    def test_garch_tree_frozen(self, tmp_path):
        # sha256 of c10's check-theorem tree: the Monte Carlo moment path keeps
        # the bytes it had before the exact Gaussian field; the exact lower
        # transform moved the integrand column of entropy_trace.csv and the
        # moment-level value of verdict.json, and the CLT's larger sample on its
        # own substream family moved ks.csv and verdict.json's clt_diagnostic
        doc = {"seed": 20260808, "replications": 1000,
               "model": {"kind": "garch_like", "name": "garch",
                         "x_points": {"grid_1d": {"n": 4, "low": 0.1, "high": 1.0}},
                         "kernel": {"name": "rbf", "length_scale": 0.5}, "horizon": 16},
               "p_grid": [2, 3, 4], "n_grid": [1, 2, 4, 8, 16],
               "entropy": {"nodes": 8}, "integral": {"nodes": 80},
               "subq_level": {"q": 1.0}, "clt": {"n_pair": [4, 16], "replications": 300}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        h = hashlib.sha256()
        for name, data in sorted(read_tree(tmp_path / "run").items()):
            h.update(name.encode())
            h.update(data)
        assert h.hexdigest() == "4b9cf263e85e6e91667efe95c55a9aa1de891d851dda94e2791d3aafe1b64d4a"


class TestModelBlock:
    def test_model_from_block(self):
        m = _validate_model(_Schema({"kind": "weibull_field", "name": "w",
                                     "x_points": {"grid_1d": {"n": 3}}, "horizon": 8,
                                     "K": 1.0, "q": 2.0}, "config.model"), 5)
        assert m.seed == 5 and m.npoints == 3
        m2 = _validate_model(_Schema({"kind": "bounded_sign", "x_points": [[0.0], [1.0]],
                                      "horizon": 4, "seed": 9}, "config.model"), 0)
        assert m2.coords == ((0.0,), (1.0,))


_RBF = {"name": "rbf", "length_scale": 0.5}
_GRID5 = {"grid_1d": {"n": 5}}
# the benchmark's `inequalities` config at seed 801
SHARED_PASS_CONFIG = {
    "seed": 801, "replications": 20000,
    "models": [
        {"kind": "iid_gaussian_field", "name": "iid-gaussian-rbf", "x_points": _GRID5,
         "kernel": _RBF, "horizon": 1024},
        {"kind": "bounded_sign", "name": "bounded-sign", "x_points": _GRID5,
         "modulation": 0.25, "amplitude_slope": 0.5, "horizon": 1024},
        {"kind": "garch_like", "name": "garch-like", "x_points": _GRID5,
         "kernel": _RBF, "horizon": 1024},
        {"kind": "weibull_field", "name": "capped-weibull", "x_points": _GRID5,
         "K": 1.0, "q": 2.0, "cap": 10.0, "horizon": 1024},
    ],
    "osekowski": {}, "tail_domination": {}, "weibull_slope": {},
}


class TestInequalities:
    def test_smoke_run_under_ten_seconds(self, tmp_path):
        doc = {"seed": 3, "replications": 2000,
               "models": [{"kind": "iid_gaussian_field", "name": "g",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16,
                           "kernel": {"name": "white"}}],
               "osekowski": {"p_grid": [3.0], "n_grid": [16], "mode": "points"}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        t0 = time.time()
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert time.time() - t0 < 10.0

    def test_heavy_weibull_tail(self, tmp_path):
        # q = 0.05: the tail's second moment is Gamma(41), finite but huge
        doc = {"seed": 3, "replications": 2000,
               "models": [{"kind": "iid_gaussian_field", "name": "g",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16,
                           "kernel": {"name": "white"}}],
               "tail_domination": {"tail": {"form": "closed_weibull", "K": 1, "q": 0.05},
                                   "n_values": [16]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    @pytest.mark.parametrize("nmodels,code", [(1, 2), (2, 0)])
    def test_md_check_one_family_per_run(self, tmp_path, monkeypatch, nmodels, code):
        # one row per model at 3.1 standard errors (p = 0.0019), which a family
        # of its own rejects; one Holm family over both models' rows keeps
        # each at the level 0.0027 / 2 and rejects neither
        pval = math.erfc(3.1 / math.sqrt(2.0))
        assert MD_FAMILY_LEVEL / 2 < pval <= MD_FAMILY_LEVEL

        def one_row(model, indices, R):
            return simulate.Reader(R, 2, (0,), lambda paths: None, lambda parts: [
                {"index": 2, "regressor": "const", "mean": 3.1, "se": 1.0,
                 "p_value": pval, "ok": False}])

        monkeypatch.setattr("uclt.cli.martingale_difference_reader", one_row)
        doc = {"seed": 3, "replications": 500,
               "models": [{"kind": "bounded_sign", "name": f"b{i}",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16}
                          for i in range(nmodels)],
               "md_check": {"indices": [2]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == code
        rep = json.loads((tmp_path / "run" / "inequalities.json").read_text())
        assert [row["ok"] for r in rep["reports"] for row in r["rows"]] == [code == 0] * nmodels

    def test_biased_model_exit_two(self, tmp_path):
        doc = {"seed": 3, "replications": 8000,
               "models": [{"kind": "bounded_sign", "name": "biased",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16,
                           "bias": 0.1}],
               "md_check": {"indices": [2, 16]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        run = json.loads((tmp_path / "run" / "run.json").read_text())
        assert run["conclusion"] == "check-failed"

    @pytest.mark.parametrize("params,path", [
        ({"kind": "bounded_sign", "modulation": "x"}, "config.models[0]: modulation"),
        ({"kind": "bounded_sign", "base": float("inf")}, "config.models[0]: base"),
        ({"kind": "bounded_sign", "cross": "foo"}, "config.models[0]: cross"),
        ({"kind": "garch_like", "vol_lo": 3.0, "vol_hi": 1.0}, "config.models[0]: vol_lo"),
        ({"kind": "bounded_sign", "amplitude_slope": -2, "x_points": {"grid_1d": {"n": 3}}},
         "config.models[0]: amplitude_slope"),
        ({"kind": "weibull_field", "K": 1, "q": 2, "cap": -5}, "config.models[0]: cap"),
        ({"kind": "weibull_field", "K": 1, "q": 2, "cap": 0}, "config.models[0]: cap"),
        ({"kind": "weibull_field", "K": 1, "q": 2, "vol_lo": 0.5}, "config.models[0].vol_lo"),
        ({"kind": "weibull_field", "K": 1, "q": 2, "kernel": {"name": "white"}},
         "config.models[0].kernel"),
        ({"kind": "weibull_field", "q": 2}, "config.models[0]: K"),
        ({"kind": "bounded_sign", "x_points": {"grid_1d": {"n": 2.7}}},
         "config.models[0].x_points.grid_1d.n"),
        ({"kind": "bounded_sign", "x_points": {"grid_1d": {"n": 2, "step": 0.5}}},
         "config.models[0].x_points.grid_1d.step"),
        ({"kind": "bounded_sign", "seed": "7"}, "config.models[0].seed"),
        ({"kind": "bounded_sign", "bias": "0.1"}, "config.models[0].bias"),
        ({"kind": "bounded_sign", "name": 5}, "config.models[0].name"),
        ({"kind": "garch_like", "memory": 5.0}, "config.models[0]: memory must lie in [0, 1]"),
    ])
    def test_bad_model_parameter_key_path(self, tmp_path, capsys, params, path):
        doc = {"seed": 3, "replications": 500,
               "models": [{"name": "m", "x_points": {"grid_1d": {"n": 2}}, "horizon": 16,
                           **params}],
               "osekowski": {"p_grid": [2.0], "n_grid": [8]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    # |z|**2000 overflows a double for |z| > 1.43, as in check-theorem's p_grid
    @pytest.mark.parametrize("p_grid", [[1.5, 2], [2, float("inf")], [2, 2000]],
                             ids=["below-two", "infinite", "overflowing"])
    def test_bad_osekowski_p_grid_key_path(self, tmp_path, capsys, p_grid):
        doc = {"seed": 3, "replications": 500, "osekowski": {"p_grid": p_grid, "n_grid": [8]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.osekowski.p_grid: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("change,message", [
        ({"models": [{"kind": "weibull_field", "name": "w", "x_points": {"grid_1d": {"n": 2}},
                      "horizon": 16, "K": 1, "q": 1e-6}],
          "osekowski": {"p_grid": [2.0], "n_grid": [8]}},
         "config.models[0]: q must be >= 2e-06"),
        ({"tail_domination": {"tail": {"form": "closed_weibull", "K": 1, "q": 1e-6},
                              "n_values": [16]}},
         "config.tail_domination.tail: closed_weibull needs K > 0 and q >= 2e-06"),
        ({"weibull_slope": {"q_values": [1.0, 1e-6]}},
         "config.weibull_slope.q_values: must be >= 2e-06"),
    ], ids=["weibull_field", "tail", "weibull_slope"])
    def test_weibull_shape_below_supported_range(self, tmp_path, capsys, change, message):
        # below q = 2e-6 the incomplete gamma function of the tail's second
        # moment would not converge near x = 1 + 2/q, late in the run
        doc = {"seed": 3, "replications": 500, **change}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("tail,path", [
        ({"form": "closed_weibull", "K": 1, "q": 2, "cap": 3}, "config.tail_domination.tail: cap "),
        ({"form": "closed_weibull", "K": "1", "q": 2}, "config.tail_domination.tail: K "),
        ({"form": "closed_weibull", "K": True, "q": 2}, "config.tail_domination.tail: K "),
        ({"form": "tabulated", "x_grid": [0, 1], "values": [1, "0"]},
         "config.tail_domination.tail: values "),
        ({"form": "closed_weibull", "q": 2}, "config.tail_domination.tail: K "),
        (5, "config.tail_domination.tail: expected an object"),
    ], ids=["key-of-no-form", "string-number", "bool", "string-in-list", "missing-key",
            "not-an-object"])
    def test_bad_tail_key_path(self, tail, path):
        doc = {"seed": 3, "replications": 500,
               "tail_domination": {"tail": tail, "x_values": [1.5], "n_values": [16]}}
        code, err, made = run_quiet("inequalities", doc)
        assert code == 1
        assert path in err
        assert "Traceback" not in err
        assert not made

    @pytest.mark.parametrize("blocks,path", [
        ({"osekowski": {"n_grid": [0.5]}}, "config.osekowski.n_grid: "),
        ({"md_check": {"indices": [0.5]}}, "config.md_check.indices: "),
        ({"weibull_slope": {"x_hi": float("inf")}}, "config.weibull_slope.x_hi: "),
        ({"osekowski": {"n_grid": [8, 32]}}, "config.osekowski.n_grid: "),
        ({"osekowski": {}}, "config.osekowski.n_grid: "),
        ({"tail_domination": {"n_values": [8, 32]}}, "config.tail_domination.n_values: "),
        ({"md_check": {"indices": [32]}}, "config.md_check.indices: "),
        ({"seed": -1, "md_check": {}}, "config.seed: "),
    ], ids=["fractional-n_grid", "fractional-indices", "infinite-x_hi", "n_grid-beyond-horizon",
            "default-n_grid-beyond-horizon", "n_values-beyond-horizon",
            "indices-beyond-horizon", "negative-seed"])
    def test_bad_block_key_path(self, tmp_path, capsys, blocks, path):
        # the second model's horizon bounds every n list, so nothing may run
        # on the first before the error
        doc = {"seed": 3, "replications": 500,
               "models": [{"kind": "bounded_sign", "name": "long",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 64},
                          {"kind": "bounded_sign", "name": "short",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16}],
               **blocks}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_pairs_mode_on_a_one_point_model_rejected_before_simulating(self, monkeypatch):
        def simulate(*args, **kwargs):
            raise AssertionError("run_readers reached for a one-point model in pairs mode")

        monkeypatch.setattr("uclt.cli.run_readers", simulate)
        doc = {"seed": 3, "replications": 500,
               "models": [{"kind": "bounded_sign", "x_points": {"grid_1d": {"n": 2}}, "horizon": 16},
                          {"kind": "bounded_sign", "x_points": [[0.5]], "horizon": 16}],
               "osekowski": {"mode": "pairs", "p_grid": [2.0], "n_grid": [8]}}
        code, err, made = run_quiet("inequalities", doc)
        assert code == 1
        assert "config.osekowski.mode: " in err and "config.models[1].x_points" in err
        assert "Traceback" not in err
        assert not made

    def test_one_engine_chunk_rejected_before_simulating(self, monkeypatch):
        # R <= 16 is one engine chunk: no jackknife standard error
        def simulate(*args, **kwargs):
            raise AssertionError("run_readers reached with one engine chunk")

        monkeypatch.setattr("uclt.cli.run_readers", simulate)
        doc = {"seed": 3, "replications": 16,
               "models": [{"kind": "bounded_sign", "x_points": {"grid_1d": {"n": 2}}, "horizon": 16}],
               "osekowski": {"p_grid": [2.0], "n_grid": [8]}}
        code, err, made = run_quiet("inequalities", doc)
        assert code == 1
        assert "config.replications: " in err and "two engine chunks" in err
        assert "Traceback" not in err
        assert not made

    def count_passes(self, monkeypatch):
        from uclt import simulate
        passes, real = [], simulate._run_chunks

        def counted(model, n, R, worker, threads=None, cols=None, draw=None, family=0):
            passes.append((model.name, n, R, cols, draw is not None))
            return real(model, n, R, worker, threads, cols, draw, family)

        monkeypatch.setattr("uclt.simulate._run_chunks", counted)
        return passes

    def test_benchmark_config_one_pass_per_path_model(self, tmp_path, monkeypatch):
        # the Gaussian tail has a closed law; every other model's two checks
        # read one pass to n = 256
        passes = self.count_passes(monkeypatch)
        cfg = write_cfg(tmp_path / "c.json", SHARED_PASS_CONFIG)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert passes == [("iid-gaussian-rbf", 64, 20000, (0,), False),
                          ("iid-gaussian-rbf", 256, 20000, (0,), True),
                          ("bounded-sign", 256, 20000, (0,), False),
                          ("garch-like", 256, 20000, (0,), False),
                          ("capped-weibull", 256, 20000, (0,), False)]

    def test_default_run_four_passes(self, tmp_path, monkeypatch):
        # md_check joins each model's path pass: the Gaussian's checks without
        # a closed law, its tail's closed law, and one pass for each other model
        passes = self.count_passes(monkeypatch)
        cfg = write_cfg(tmp_path / "c.json", {"seed": 7})
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert passes == [("iid-gaussian-rbf", 64, 20000, (0,), False),
                          ("iid-gaussian-rbf", 256, 20000, (0,), True),
                          ("bounded-sign", 256, 20000, (0,), False),
                          ("garch-like", 256, 20000, (0,), False)]
        rep = json.loads((tmp_path / "run" / "inequalities.json").read_text())
        assert [r["check"] for r in rep["reports"]][:3] == ["osekowski", "tail_domination",
                                                            "md_property"]

    @pytest.mark.parametrize("change,want", [
        ({}, [(256, 2000, (0,))]),
        ({"osekowski": {"mode": "pairs"}}, [(64, 2000, (0, 4)), (256, 2000, (0,))]),
        ({"tail_domination": {"replications": 3000}}, [(64, 2000, (0,)), (256, 3000, (0,))]),
    ], ids=["shared", "pairs-mode", "another-tail-r"])
    def test_separate_passes_where_r_or_columns_differ(self, tmp_path, monkeypatch, change, want):
        passes = self.count_passes(monkeypatch)
        doc = {"seed": 3, "replications": 2000,
               "models": [m for m in SHARED_PASS_CONFIG["models"] if m["kind"] == "garch_like"],
               "osekowski": {}, "tail_domination": {}}
        for key, block in change.items():
            doc[key] = block
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert [p[1:4] for p in passes] == want

    def test_shared_passes_thread_invariant(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", {**SHARED_PASS_CONFIG, "replications": 2000})
        trees = []
        for threads in (1, 2):
            out = tmp_path / f"t{threads}"
            assert main(["inequalities", "--config", cfg, "--threads", str(threads),
                         "--out", str(out)]) == 0
            trees.append(read_tree(out))
        assert trees[0] == trees[1]

    def test_threads_key_with_flag(self, tmp_path):
        doc = {"seed": 3, "replications": 500, "threads": 2,
               "models": [{"kind": "bounded_sign", "name": "b",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 16}],
               "osekowski": {"p_grid": [2.0], "n_grid": [8]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--threads", "1",
                     "--out", str(tmp_path / "run")]) == 0

    def test_zero_series_ratio_is_zero(self, tmp_path):
        # shared signs and no slope: every column is the same, so the pair
        # increments vanish and the ratio is 0 / 0
        doc = {"seed": 3, "replications": 500,
               "models": [{"kind": "bounded_sign", "name": "flat",
                           "x_points": {"grid_1d": {"n": 3}}, "horizon": 64}],
               "osekowski": {"p_grid": [2], "n_grid": [8], "mode": "pairs"}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert (tmp_path / "run" / "osekowski.csv").read_text().splitlines()[-1] == \
            "flat,2.0,8,0.0,0.0,15.5879"

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        rep = json.loads((tmp_path / "run" / "inequalities.json").read_text(),
                         parse_constant=reject)
        (row,) = rep["reports"][0]["rows"]
        assert (row["ratio"], row["se"], row["within_bound"]) == (0.0, 0.0, True)

    def test_ragged_x_points_key_path(self, tmp_path, capsys):
        doc = {"seed": 3, "replications": 500,
               "models": [{"kind": "bounded_sign", "name": "m", "horizon": 16,
                           "x_points": {"grid_1d": {"n": 2}}},
                          {"kind": "bounded_sign", "name": "r", "horizon": 16,
                           "x_points": [[0.1, 0.2], [0.3]]}],
               "osekowski": {"p_grid": [2.0], "n_grid": [8]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.models[1].x_points: " in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_default_suite_all_blocks(self, tmp_path):
        # no report blocks configured: every check runs on the shipped suite
        doc = {"seed": 7, "replications": 1500}
        cfg = write_cfg(tmp_path / "c.json", doc)
        t0 = time.time()
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert time.time() - t0 < 60.0
        rep = json.loads((tmp_path / "run" / "inequalities.json").read_text())
        kinds = {r["check"] for r in rep["reports"]}
        assert kinds == {"osekowski", "tail_domination", "md_property", "decay_slope"}
        for name in ("osekowski.csv", "tail_bounds.csv", "slopes.csv"):
            assert (tmp_path / "run" / name).exists()

    def test_default_suite_blocks(self, tmp_path):
        doc = {"seed": 5, "replications": 1500,
               "osekowski": {"p_grid": [2.0], "n_grid": [8]},
               "weibull_slope": {"q_values": [1.0], "points": 5}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["inequalities", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        body = (tmp_path / "run" / "osekowski.csv").read_text()
        assert body.startswith("# provenance: config_sha256=")
        assert "model,p,n,ratio,se,bound" in body


# every parameter of each kind set to a valid value
FULL_MODELS = {
    "iid_gaussian_field": {"kernel": {"name": "rbf", "length_scale": 0.5}},
    "weibull_field": {"K": 1.0, "q": 2.0, "cap": 4.0, "amplitude_slope": 0.5},
    "garch_like": {"kernel": {"name": "white"}, "vol_amp": 0.45, "memory": 0.7,
                   "vol_lo": 0.5, "vol_hi": 2.0},
    "bounded_sign": {"base": 1.0, "modulation": 0.25, "amplitude_slope": 0.5,
                     "cross": "independent"},
}
BAD_VALUES = ["x", True, None, float("inf"), float("-inf"), -1.0, -3]


@st.composite
def mutated_model(draw, kind):
    """The kind's full block with one key dropped, one set to a bad value, or
    one of another kind's keys added."""
    block = dict(FULL_MODELS[kind])
    own = sorted(block)
    foreign = sorted({k for kind in KINDS.values() for k in kind.params} - set(own))
    how = draw(st.sampled_from(["drop", "bad", "foreign"]))
    if how == "drop":
        del block[draw(st.sampled_from(own))]
    elif how == "bad":
        block[draw(st.sampled_from(own))] = draw(st.sampled_from(BAD_VALUES))
    else:
        block[draw(st.sampled_from(foreign))] = draw(st.sampled_from([0.5, "shared", {}]))
    return block


class TestMutatedModels:
    def test_full_models_cover_the_table(self):
        assert {k: set(v) for k, v in FULL_MODELS.items()} == \
            {k: set(v.params) for k, v in KINDS.items()}

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_mutated_block_exits_cleanly(self, kind):
        @settings(max_examples=25, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(mutated_model(kind))
        def run(params):
            doc = {"seed": 3, "replications": 64,
                   "models": [{"kind": kind, "name": "m", "x_points": {"grid_1d": {"n": 3}},
                               "horizon": 8, **params}],
                   "osekowski": {"p_grid": [2.0], "n_grid": [8], "mode": "pairs"},
                   "tail_domination": {"x_values": [1.5], "n_values": [8]}}
            code, err, made = run_quiet("inequalities", doc)
            assert code in (0, 1, 2)
            if code == 1:
                assert "config.models[0]" in err
                assert not made

        t0 = time.time()
        run()
        assert time.time() - t0 < 10.0


# one small valid config per command, with every block set
FULL_CONFIGS = {
    "check-theorem": {
        "seed": 3, "replications": 64,
        "model": {"kind": "iid_gaussian_field", "name": "g", "seed": 5, "bias": 0.0,
                  "growth": 0.0, "x_points": {"grid_1d": {"n": 3, "low": 0.1, "high": 1.0}},
                  "kernel": {"name": "rbf", "length_scale": 0.5}, "horizon": 8},
        "psi": {"form": "natural"},
        "p_grid": [2, 3], "n_grid": [1, 2, 4, 8],
        "entropy": {"nodes": 6, "eps_min_frac": 0.01, "mode": "greedy"},
        "integral": {"nodes": 40, "eps_lo_frac": 1e-3},
        "subq_level": {"q": 1.0},
        "clt": {"n_pair": [2, 8], "replications": 64},
        "variance_growth_factor": 1.5,
    },
    "inequalities": {
        "seed": 3, "replications": 64,
        "models": [{"kind": "bounded_sign", "name": "b", "x_points": [[0.0], [0.5], [1.0]],
                    "modulation": 0.25, "horizon": 8}],
        "osekowski": {"p_grid": [2, 3], "n_grid": [8], "mode": "pairs"},
        "tail_domination": {"x_values": [1.5], "n_values": [8], "replications": 64},
        "weibull_slope": {"q_values": [1.0], "K": 1.0, "x_lo": 10.0, "x_hi": 100.0,
                          "points": 4, "tol": 0.05},
        "md_check": {"indices": [2, 8], "replications": 64},
    },
    "covering": {
        "seed": 3, "space": {"grid_1d": {"n": 6, "low": 0.0, "high": 1.0}, "metric": "holder(0.5)"},
        "mode": "both", "eps": {"num": 5, "min_frac": 0.1}, "holder_fit": {"dim": 1, "alpha": 0.5},
    },
}
BAD_LEAVES = ["x", True, None, float("inf"), float("-inf"), -3, 0.5, []]


def key_paths(node, prefix=()):
    """The path of every value below `node`: object keys and list indices."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


DROP = object()


def mutate(command, path, value=DROP):
    """The command's full config with the key at `path` dropped or its value
    set to `value`."""
    doc = copy.deepcopy(FULL_CONFIGS[command])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def mutated_config(draw, command):
    """One key dropped at any depth, or one value (a leaf, a list or a block)
    set to a bad leaf."""
    paths = list(key_paths(FULL_CONFIGS[command]))
    if draw(st.booleans()):
        return mutate(command, draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)])))
    return mutate(command, draw(st.sampled_from(paths)), draw(st.sampled_from(BAD_LEAVES)))


# one escape per command that once ended in a traceback, always tried
PINNED = {"check-theorem": (("seed",), -3),
          "inequalities": (("md_check", "indices", 0), 0.5),
          "covering": (("space", "metric"), "x")}


class TestMutatedConfigs:
    @pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
    def test_full_config_runs(self, command):
        assert run_quiet(command, FULL_CONFIGS[command])[0] in (0, 2)

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
    def test_out_not_a_directory(self, tmp_path, capsys, command, below):
        # `--out` naming a file, or a path below one, fails when the run is
        # written: exit 1 naming config.out, and the file is left as it was
        cfg = write_cfg(tmp_path / "c.json", FULL_CONFIGS[command])
        (tmp_path / "f").write_text("keep\n")
        out = tmp_path / "f" / "run" if below else tmp_path / "f"
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config error: config.out: ")
        assert (tmp_path / "f").read_text() == "keep\n"

    @pytest.mark.parametrize("command", sorted(FULL_CONFIGS))
    def test_mutated_config_exits_cleanly(self, command):
        @settings(max_examples=25, deadline=None, derandomize=True,
                  suppress_health_check=[HealthCheck.too_slow])
        @given(mutated_config(command))
        @example(mutate(command, *PINNED[command]))
        def run(doc):
            code, err, made = run_quiet(command, doc)
            assert code in (0, 1, 2)
            if code == 1:
                assert err.startswith("config error: config."), err
                assert not made

        t0 = time.time()
        run()
        assert time.time() - t0 < 6.5


class TestThreadCount:
    """A worker count below 1 or not a number exits 1 before anything is
    drawn or written, naming where it came from."""

    @pytest.mark.parametrize("flag,key,env,named", [
        ("0", None, None, "--threads: "),
        ("-3", None, None, "--threads: "),
        (None, 0, None, "config.threads: "),
        (None, -2, None, "config.threads: "),
        (None, None, "abc", "UCLT_THREADS: "),
        (None, None, "0", "UCLT_THREADS: "),
        (None, None, "-1", "UCLT_THREADS: "),
    ], ids=["flag-0", "flag-negative", "key-0", "key-negative", "env-text", "env-0", "env-negative"])
    @pytest.mark.parametrize("command", ["check-theorem", "inequalities"])
    def test_bad_thread_count_rejected(self, tmp_path, capsys, monkeypatch, command, flag, key,
                                       env, named):
        def generate(*args):
            raise AssertionError("a chunk was drawn")

        monkeypatch.setattr("uclt.simulate._generate", generate)
        if env is None:
            monkeypatch.delenv("UCLT_THREADS", raising=False)
        else:
            monkeypatch.setenv("UCLT_THREADS", env)
        doc = copy.deepcopy(FULL_CONFIGS[command])
        if key is not None:
            doc["threads"] = key
        argv = [command, "--config", write_cfg(tmp_path / "c.json", doc), "--out", str(tmp_path / "run")]
        assert main(argv + (["--threads", flag] if flag is not None else [])) == 1
        assert capsys.readouterr().err.startswith("config error: " + named)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["check-theorem", "inequalities"])
    def test_flag_wins_over_bad_key_and_env(self, tmp_path, monkeypatch, command):
        monkeypatch.setenv("UCLT_THREADS", "abc")
        doc = {**FULL_CONFIGS[command], "threads": 0}
        argv = [command, "--config", write_cfg(tmp_path / "c.json", doc), "--threads", "2",
                "--out", str(tmp_path / "run")]
        assert main(argv) in (0, 2)


class TestCovering:
    def test_grid_space(self, tmp_path):
        doc = {"space": {"grid_1d": {"n": 11}, "metric": "euclidean"},
               "eps": {"values": [0.25, 0.3, 1.0]}, "mode": "both"}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["covering", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        rows = (tmp_path / "run" / "covering.csv").read_text().splitlines()
        assert rows[1] == "epsilon,n_greedy,n_exact,entropy"
        table = {float(r.split(",")[0]): r.split(",") for r in rows[2:]}
        assert table[0.25][2] == "3" and table[0.3][2] == "2" and table[1.0][2] == "1"

    def test_distance_csv_input(self, tmp_path):
        d = tmp_path / "d.csv"
        d.write_text("0,1\n1,0\n")
        doc = {"space": {"distance_csv": str(d)}, "eps": {"values": [1.0]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["covering", "--config", cfg, "--out", str(tmp_path / "run")]) == 0

    def test_bad_mode(self, tmp_path):
        doc = {"space": {"grid_1d": {"n": 3}}, "mode": "approximate"}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["covering", "--config", cfg, "--out", str(tmp_path / "run")]) == 1

    @pytest.mark.parametrize("change,path", [
        ({"space": {"grid_1d": {"n": 3}, "metric": "x"}}, "config.space.metric: "),
        ({"space": {"grid_1d": {"n": 3, "high": 0}}}, "config.space: "),
        ({"holder_fit": {"dim": 1, "alpha": 2}}, "config.holder_fit.alpha: "),
        ({"space": {"coords_csv": "no-such-file.csv"}}, "config.space.coords_csv: "),
        ({"space": {"distance_csv": "no-such-file.csv"}}, "config.space.distance_csv: "),
        ({"space": {"grid_1d": {"n": 30}}, "mode": "exact"}, "config.mode: "),
        ({"space": {"grid_1d": {"n": 21}}, "mode": "both"}, "config.mode: "),
    ], ids=["unknown-metric", "zero-diameter", "alpha-above-one", "missing-coords-file",
            "missing-distance-file", "exact-above-cap", "both-above-cap"])
    def test_bad_key_path(self, tmp_path, capsys, change, path):
        cfg = write_cfg(tmp_path / "c.json", {"space": {"grid_1d": {"n": 3}}, **change})
        assert main(["covering", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert path in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_nan_radius_rejected(self, tmp_path, capsys):
        doc = {"space": {"grid_1d": {"n": 3}}, "eps": {"values": [0.5, float("nan")]}}
        cfg = write_cfg(tmp_path / "c.json", doc)
        assert main(["covering", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
        assert "config.eps.values" in capsys.readouterr().err

    # the sweep draws nothing and runs on one thread, so covering has neither
    # flag; argparse rejects them, bad values and good ones alike, with exit 2
    @pytest.mark.parametrize("flag", [["--threads", "0"], ["--threads", "2"],
                                      ["--reps", "-5"], ["--reps", "100"]],
                             ids=["threads-0", "threads-2", "reps-negative", "reps-100"])
    def test_unread_flags_rejected(self, tmp_path, capsys, flag):
        cfg = write_cfg(tmp_path / "c.json", {"space": {"grid_1d": {"n": 5}}})
        with pytest.raises(SystemExit) as exc:
            main(["covering", "--config", cfg, "--out", str(tmp_path / "run"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(flag) in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestExport:
    def test_empty_run_dir(self, tmp_path):
        (tmp_path / "empty").mkdir()
        assert main(["export", "--run", str(tmp_path / "empty")]) == 1

    @pytest.mark.parametrize("manifest,table,path", [
        (None, "model,p,n\nm,2.0,8\n", "osekowski.csv: header"),
        (None, None, "osekowski.csv: unreadable"),
        ("{\n", None, "run.json: unreadable"),
    ], ids=["header-mismatch", "missing-table", "malformed-manifest"])
    def test_bad_run_writes_nothing(self, tmp_path, capsys, manifest, table, path):
        run = tmp_path / "runs" / "r"
        run.mkdir(parents=True)
        (run / "run.json").write_text(manifest or json.dumps(
            {"command": "inequalities", "config_sha256": "0" * 64, "seed": 1,
             "files": {"osekowski": "osekowski.csv"}}))
        if table is not None:
            (run / "osekowski.csv").write_text("# provenance: x\n" + table)
        out = tmp_path / "exp"
        assert main(["export", "--run", str(tmp_path / "runs"), "--out", str(out)]) == 1
        assert path in capsys.readouterr().err
        assert not out.exists()

    def test_consolidates_and_idempotent(self, tmp_path):
        cfg = write_cfg(tmp_path / "ct.json", theorem_cfg(clt={"n_pair": [4, 16],
                                                               "replications": 400}))
        assert main(["check-theorem", "--config", cfg, "--out", str(tmp_path / "runs" / "ct")]) == 0
        doc = {"seed": 3, "replications": 1000,
               "models": [{"kind": "bounded_sign", "name": "b",
                           "x_points": {"grid_1d": {"n": 2}}, "horizon": 32}],
               "osekowski": {"p_grid": [2.0], "n_grid": [8]},
               "tail_domination": {"x_values": [2.0], "n_values": [16], "replications": 2000}}
        cfg2 = write_cfg(tmp_path / "in.json", doc)
        assert main(["inequalities", "--config", cfg2, "--out", str(tmp_path / "runs" / "ineq")]) == 0
        out1 = tmp_path / "exp1"
        out2 = tmp_path / "exp2"
        assert main(["export", "--run", str(tmp_path / "runs"), "--out", str(out1)]) == 0
        assert main(["export", "--run", str(tmp_path / "runs"), "--out", str(out2)]) == 0
        t1, t2 = read_tree(out1), read_tree(out2)
        assert t1 == t2
        names = set(t1)
        assert {"entropy_trace.csv", "osekowski_ratios.csv", "tail_bounds.csv",
                "ks_stats.csv"} <= names
        header = t1["tail_bounds.csv"].decode().splitlines()[1]
        assert header == "model,n,x,empirical_tail,bound,stderr"


class TestReproducibility:
    def test_rerun_and_threads_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg())
        outs = []
        for i, threads in enumerate((1, 4)):
            out = tmp_path / f"run{i}"
            assert main(["check-theorem", "--config", cfg, "--out", str(out),
                         "--threads", str(threads)]) == 0
            outs.append(read_tree(out))
        assert outs[0] == outs[1]

    def test_rerun_into_a_used_out_equals_a_fresh_run(self, tmp_path):
        def tree(root):
            return read_tree(root), sorted(os.path.relpath(d, root) for d, _, _ in os.walk(root))

        first = theorem_cfg(clt={"n_pair": [4, 16], "replications": 300})
        second = theorem_cfg(n_grid=[1, 2])
        ineq = {"seed": 3, "replications": 500,
                "models": [{"kind": "bounded_sign", "x_points": {"grid_1d": {"n": 2}},
                            "horizon": 16}],
                "tail_domination": {"n_values": [4, 16]}}
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        for i, (command, doc) in enumerate([("check-theorem", first), ("check-theorem", second),
                                            ("inequalities", ineq)]):
            cfg = write_cfg(tmp_path / f"c{i}.json", doc)
            assert main([command, "--config", cfg, "--out", str(used)]) == 0
            if i == 0:
                assert (used / "ks.csv").exists() and (used / "field_csv" / "index_0016.csv").exists()
                continue
            assert main([command, "--config", cfg, "--out", str(fresh / str(i))]) == 0
            assert tree(used) == tree(fresh / str(i))

    def test_rerun_keeps_files_it_did_not_write(self, tmp_path):
        cfg = write_cfg(tmp_path / "c.json", theorem_cfg())
        out = tmp_path / "run"
        assert main(["check-theorem", "--config", cfg, "--out", str(out)]) == 0
        (out / "notes.txt").write_text("mine")
        (out / "field_csv" / "notes.txt").write_text("mine too")
        run = json.loads((out / "run.json").read_text())
        run["files"]["stray"] = "../outside.txt"
        (out / "run.json").write_text(json.dumps(run))
        (tmp_path / "outside.txt").write_text("not uclt's")
        assert main(["check-theorem", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "notes.txt").read_text() == "mine"
        assert (out / "field_csv" / "notes.txt").read_text() == "mine too"
        assert (tmp_path / "outside.txt").exists()
        assert (out / "field_csv" / "index_0016.csv").exists()

    def test_seed_override_changes_hashed_outputs(self, tmp_path):
        # a Gaussian model's sigma2 is exact, the same at every seed; a
        # garch_like model's is simulated, so it shows that --seed reaches the draws
        doc = theorem_cfg()
        doc["model"]["kind"] = "garch_like"
        cfg = write_cfg(tmp_path / "c.json", doc)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["check-theorem", "--config", cfg, "--out", str(out1)])
        main(["check-theorem", "--config", cfg, "--out", str(out2), "--seed", "99"])
        v1 = json.loads((out1 / "verdict.json").read_text())
        v2 = json.loads((out2 / "verdict.json").read_text())
        assert v1["seed"] != v2["seed"]
        assert v1["sigma2"] != v2["sigma2"]
