"""Batch command-line front end.

Four subcommands, driven by a single JSON config plus a few overrides:

* ``uclt check-theorem --config cfg.json``  simulate a model, estimate its
  moment field, natural generating function and distances, measure the
  entropy profile and classify the sufficient conditions for uniform
  tightness; exit 0 when every requested hypothesis is satisfied at the run
  resolution, 2 when one fails, 1 on config errors.
* ``uclt inequalities --config cfg.json``   run the moment-inequality,
  tail-domination, decay-slope and difference-property checks over a model
  suite; exit 2 if any check fails.
* ``uclt covering --config cfg.json``       covering numbers and entropy of
  a configured finite space, optionally with a power-law fit.
* ``uclt export --run DIR``                 consolidate a finished run
  directory into the four documented CSVs.

Outputs are UTF-8 with LF line endings and contain no timestamps; rerunning
any command with the same config and seed is byte-identical regardless of
``--threads`` (or the UCLT_THREADS fallback).
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import covering as cov
from . import integrals as integ
from .distances import PairwiseMomentField, distance_matrix, natural_function, sigma_squared
from .errors import ConfigError, MissingRun, UcltError
from .psi import PsiFunction, rosenthal_transform
from .simulate import (
    KERNELS,
    KINDS,
    MD_FAMILY_LEVEL,
    MartingaleFieldModel,
    SimulationReport,
    clt_diagnostic,
    default_model_suite,
    estimate_moment_curves,
    grid_coords,
    holm_rejections,
    martingale_difference_check,
    osekowski_check,
    resolve_threads,
    tail_domination_check,
)
from .tails import TailFunction, w_operator

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK_FAILED = 2


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


class _Schema:
    """Tiny strict validator: known keys only, typed leaves, path-precise errors."""

    def __init__(self, cfg: dict, path: str = "config"):
        if not isinstance(cfg, dict):
            raise ConfigError(f"{path}: expected an object")
        self.cfg = cfg
        self.path = path
        self.seen: set[str] = set()

    def sub(self, key: str, required: bool = False, default: dict | None = None) -> "_Schema | None":
        """The object at `key`; a missing one reads as `default` (None: absent)."""
        self.seen.add(key)
        if key not in self.cfg:
            if required:
                raise ConfigError(f"{self.path}.{key}: required block missing")
            if default is None:
                return None
        return _Schema(self.cfg.get(key, default), f"{self.path}.{key}")

    def get(self, key: str, kind=None, *, required: bool = False, default=None,
            positive: bool = False, minimum=None, maximum=None, many: bool = False):
        """The value at `key`, else `default` (None: absent).  `kind` int takes a
        JSON integer, float a finite number (returned as a float), str a string
        and None any value; `many` takes a nonempty list of them.  The bounds
        hold for every value returned, defaults included."""
        self.seen.add(key)
        where = f"{self.path}.{key}"
        if key in self.cfg:
            val = self.cfg[key]
            if many and (not isinstance(val, list) or not val):
                raise ConfigError(f"{where}: expected a nonempty list")
            if kind is not None:
                val = [_typed(v, kind, where) for v in val] if many else _typed(val, kind, where)
        elif required:
            raise ConfigError(f"{where}: required key missing")
        else:
            val = default
        for v in (val if many else [val]) if val is not None else ():
            if positive and not v > 0:
                raise ConfigError(f"{where}: must be > 0, got {v}")
            if minimum is not None and v < minimum:
                raise ConfigError(f"{where}: must be >= {minimum}, got {v}")
            if maximum is not None and v > maximum:
                raise ConfigError(f"{where}: must be <= {maximum}, got {v}")
        return val

    def finish(self):
        unknown = set(self.cfg) - self.seen
        if unknown:
            raise ConfigError(f"{self.path}.{sorted(unknown)[0]}: unknown key")


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


def _typed(val, kind, where: str):
    if kind is float and isinstance(val, int) and not isinstance(val, bool):
        val = float(val)
    if not isinstance(val, kind) or isinstance(val, bool) \
            or kind is float and not math.isfinite(val):
        raise ConfigError(f"{where}: expected {_KIND_NAMES[kind]}, got {val!r}")
    return val


def _flag_or_key(s: _Schema, flag, key: str, kind, **rules):
    """The command-line flag for `key` when given, else the config value; the
    same rules check either."""
    if flag is not None:
        s.seen.add(key)
        s = _Schema({key: flag}, s.path)
    return s.get(key, kind, **rules)


def _is_coordinate_table(rows) -> bool:
    """A nonempty list of nonempty equal-length rows of finite numbers."""
    return (isinstance(rows, list) and bool(rows)
            and all(isinstance(row, list) and len(row) == len(rows[0]) > 0 for row in rows)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                    for row in rows for v in row))


def _grid_1d(parent: _Schema) -> tuple[int, float, float]:
    """The `grid_1d` block under `parent`: n, low and high of an even grid."""
    g = parent.sub("grid_1d", required=True)
    grid = (g.get("n", int, required=True, minimum=1), g.get("low", float, default=0.0),
            g.get("high", float, default=1.0))
    g.finish()
    return grid


def _validate_model(block: _Schema, default_seed: int) -> MartingaleFieldModel:
    """Reads a model block and builds the model, which checks the values of
    the kind's keys (`KINDS`)."""
    kind = block.get("kind", str, required=True)
    if kind not in KINDS:
        raise ConfigError(f"{block.path}.kind: unknown model kind {kind!r}")
    rows = block.get("x_points", required=True)
    if isinstance(rows, dict) and "grid_1d" in rows:
        xs = _Schema(rows, f"{block.path}.x_points")
        coords = grid_coords(*_grid_1d(xs))
        xs.finish()
    elif _is_coordinate_table(rows):
        coords = tuple(tuple(float(v) for v in row) for row in rows)
    else:
        raise ConfigError(f"{block.path}.x_points: expected grid_1d or a nonempty list of "
                          f"rows of equal length holding finite numbers")
    fields = {"name": block.get("name", str, default=kind),
              "horizon": block.get("horizon", int, required=True, positive=True),
              "seed": block.get("seed", int, default=default_seed, minimum=0),
              "bias": block.get("bias", float, default=0.0),
              "growth": block.get("growth", float, default=0.0)}
    params = {key: block.get(key) for key in KINDS[kind] if key in block.cfg}
    block.finish()
    kernel = block.sub("kernel")
    if kernel is not None:
        name = kernel.get("name", str, required=True)
        if name not in KERNELS:
            raise ConfigError(f"{kernel.path}.name: unknown kernel {name!r}; "
                              f"expected one of {', '.join(KERNELS)}")
        kernel.seen.update(("variance", "length_scale", "hurst"))
        kernel.finish()
    try:
        return MartingaleFieldModel(kind=kind, coords=coords, params=params, **fields)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{block.path}: {exc}") from None


def _validate_psi(block: _Schema | None) -> PsiFunction | str:
    if block is None:
        return "natural"
    form = block.get("form", str, required=True)
    if form == "natural":
        block.finish()
        return "natural"
    for key in ("q", "r", "support", "grid", "values", "factor", "base"):
        block.seen.add(key)
    block.finish()
    try:
        return PsiFunction.from_dict(block.cfg)
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(f"{block.path}: {exc}") from None


# ---------------------------------------------------------------------------
# deterministic writers
# ---------------------------------------------------------------------------

def _write_json(path: str, obj: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(obj, sort_keys=True, indent=2))
        fh.write("\n")


def _write_csv(path: str, header: list[str], rows, provenance: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# {provenance}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


#: The tables `export` consolidates: manifest key -> (run file, export file, header).
_TABLES = {
    "entropy_trace": ("entropy_trace.csv", "entropy_trace.csv",
                      ["epsilon", "entropy", "integrand"]),
    "tail_bounds": ("tail_bounds.csv", "tail_bounds.csv",
                    ["model", "n", "x", "empirical_tail", "bound", "stderr"]),
    "ks": ("ks.csv", "ks_stats.csv", ["n", "ks", "scope"]),
    "osekowski": ("osekowski.csv", "osekowski_ratios.csv",
                  ["model", "p", "n", "ratio", "se", "bound"]),
}


def _table(key: str, rows) -> tuple[str, tuple[list[str], list]]:
    """The `_write_run` output of export table `key`: its run file, header and rows."""
    fname, _, header = _TABLES[key]
    return fname, (header, rows)


def _write_run(out: str, command: str, cfg: dict, seed: int, outputs: dict,
               conclusion: str, exit_code: int) -> None:
    """Writes a finished run into `out`, with `run.json` listing `outputs`:
    manifest key -> (file name, content).  Content is a JSON document (stamped
    with the config hash and seed), a (header, rows) table or the moment
    field.  Callers compute every output first, so a failed run writes nothing.
    The files of an earlier run in `out` are removed first (`_remove_run`)."""
    cfg_hash = config_hash(cfg)
    prov = f"provenance: config_sha256={cfg_hash} seed={seed}"
    try:
        _remove_run(out)
        os.makedirs(out, exist_ok=True)
        for fname, content in outputs.values():
            path = os.path.join(out, fname)
            if isinstance(content, PairwiseMomentField):
                content.meta["config_sha256"] = cfg_hash
                content.to_csv_dir(path)
            elif isinstance(content, dict):
                _write_json(path, {**content, "config_sha256": cfg_hash, "seed": seed})
            else:
                _write_csv(path, *content, prov)
        _write_json(os.path.join(out, "run.json"),
                    {"command": command, "config_sha256": cfg_hash, "seed": seed,
                     "files": {key: fname for key, (fname, _) in outputs.items()},
                     "conclusion": conclusion, "exit_code": exit_code})
    except OSError as exc:
        raise ConfigError(f"config.out: {exc}") from None


def _remove_run(out: str) -> None:
    """Removes the files that the `run.json` in `out` lists; a listed directory
    (the moment field) loses the files its `manifest.json` lists, that
    manifest, and itself once empty.  Only plain names in those manifests are
    touched, so nothing uclt did not write is; an unreadable one removes
    nothing."""
    def listed(path, key):
        try:
            with open(path) as fh:
                names = json.load(fh)[key].values()
            return [n for n in names if n not in ("", ".", "..") and os.path.basename(n) == n]
        except (OSError, ValueError, LookupError, TypeError, AttributeError):
            return []

    for name in listed(os.path.join(out, "run.json"), "files"):
        path = os.path.join(out, name)
        inner = listed(os.path.join(path, "manifest.json"), "index_files") + ["manifest.json"]
        for target in [os.path.join(path, fname) for fname in inner] + [path]:
            with contextlib.suppress(OSError):  # absent, or a directory holding other files
                (os.rmdir if os.path.isdir(target) else os.remove)(target)


# ---------------------------------------------------------------------------
# check-theorem
# ---------------------------------------------------------------------------

def run_check_theorem(cfg: dict, args) -> int:
    s = _Schema(cfg)
    seed = _flag_or_key(s, args.seed, "seed", int, required=True, minimum=0)
    reps = _flag_or_key(s, args.reps, "replications", int, default=4000, positive=True)
    threads = resolve_threads(_flag_or_key(s, args.threads, "threads", int))
    out = _flag_or_key(s, args.out or None, "out", str, default="uclt-check-theorem")
    model = _validate_model(s.sub("model", required=True), seed)
    if model.npoints < 2:
        raise ConfigError("config.model: check-theorem needs at least two points in "
                          "config.model.x_points, for a pair; got one")
    psi_spec = _validate_psi(s.sub("psi"))
    p_grid = s.get("p_grid", float, many=True, minimum=1,
                   default=[2.0, 2.5, 3.0, 4.0, 6.0, 8.0])
    if any(a >= b for a, b in zip(p_grid, p_grid[1:])):
        raise ConfigError("config.p_grid: need strictly ascending orders p >= 1")
    n_grid = s.get("n_grid", int, many=True, positive=True, maximum=model.horizon,
                   default=[n for n in (1, 2, 4, 8, 16, 32, 64) if n <= model.horizon])

    ent = s.sub("entropy", default={})
    ent_nodes = ent.get("nodes", int, default=24, positive=True)
    ent_frac = ent.get("eps_min_frac", float, default=1e-3, positive=True)
    ent_mode = ent.get("mode", str, default="greedy")
    if ent_mode not in ("greedy", "exact"):
        raise ConfigError("config.entropy.mode: must be greedy or exact")
    if ent_mode == "exact" and model.npoints > cov.EXACT_SEARCH_CAP:
        raise ConfigError(f"config.entropy.mode: exact search is capped at "
                          f"{cov.EXACT_SEARCH_CAP} points; the model has {model.npoints}")
    ent.finish()
    quad = s.sub("integral", default={})
    quad_nodes = quad.get("nodes", int, default=integ.DEFAULT_QUAD_NODES, positive=True)
    quad_frac = quad.get("eps_lo_frac", float, default=integ.DEFAULT_EPS_LO_FRAC, positive=True)
    quad.finish()
    t22 = s.sub("subq_level")
    q22 = None
    if t22 is not None:
        q22 = t22.get("q", float, required=True, positive=True)
        t22.finish()
    cltb = s.sub("clt")
    clt_spec = None
    if cltb is not None:
        pairn = cltb.get("n_pair", int, required=True, many=True, positive=True,
                         maximum=model.horizon)
        if len(pairn) != 2 or not pairn[0] < pairn[1]:
            raise ConfigError("config.clt.n_pair: need [n_small, n_large] within the horizon")
        clt_spec = (tuple(pairn), cltb.get("replications", int, default=2000, positive=True))
        cltb.finish()
    growth_factor = s.get("variance_growth_factor", float, default=1.5, positive=True)
    s.finish()

    labels = model.labels
    pairs = [(labels[a], labels[b]) for a in range(len(labels)) for b in range(a + 1, len(labels))]
    field = estimate_moment_curves(model, pairs, p_grid, reps,
                                   i_max=max(n_grid), threads=threads)
    psi = natural_function(field) if psi_spec == "natural" else psi_spec
    sigma2 = sigma_squared(field, n_grid, growth_factor=growth_factor)

    space = distance_matrix(field, "dbar", psi=psi, n_grid=n_grid)
    if cov.diameter(space) <= 0:
        raise ConfigError("config.model: averaged increment distance is identically zero; "
                          "no profile can be measured")
    profile = integ.measure_profile(space, mode=ent_mode, num=ent_nodes, eps_min_frac=ent_frac)
    verdict21 = integ.moment_level_check(sigma2, profile, psi,
                                      nodes=quad_nodes, eps_lo_frac=quad_frac)
    verdicts = {"moment_level": verdict21.to_dict()}
    trace = integ.integrand_trace(profile, psi=rosenthal_transform(psi),
                                  nodes=quad_nodes, eps_lo_frac=quad_frac)
    outputs = {"field_csv": ("field_csv", field),
               "entropy_trace": _table("entropy_trace", trace),
               "dbar_matrix": ("dbar_matrix.csv", (["label"] + list(labels), [
                   [lb] + [float(v) for v in row] for lb, row in zip(labels, space.dist)]))}

    satisfied = verdict21.satisfied
    if q22 is not None:
        space_q = distance_matrix(field, "rho_q", q=q22)
        prof_q = integ.measure_profile(space_q, mode=ent_mode, num=ent_nodes,
                                       eps_min_frac=ent_frac)
        verdict22 = integ.subq_level_check(prof_q, q22, sigma2,
                                          nodes=quad_nodes, eps_lo_frac=quad_frac)
        verdicts["subq_level"] = verdict22.to_dict()
        verdicts["exponent_comparison"] = integ.exponent_comparison(prof_q, q22,
                                                                    nodes=quad_nodes,
                                                                    eps_lo_frac=quad_frac)
        satisfied = satisfied and verdict22.satisfied

    if clt_spec is not None:
        (n_small, n_large), clt_reps = clt_spec
        diag = clt_diagnostic(model, (n_small, n_large), clt_reps, threads=threads)
        verdicts["clt_diagnostic"] = diag
        ks_rows = [[n_large, float(diag["ks_supnorm"]), "supnorm"]]
        for lb, two in sorted((diag["per_point_ks"] or {}).items()):
            ks_rows.append([n_large, float(two["n_large"]), lb])
        outputs["ks"] = _table("ks", ks_rows)
    outputs["verdict"] = ("verdict.json", {
        "model": model.to_dict(), "replications": reps, "psi": psi.to_dict(),
        "sigma2": None if math.isinf(sigma2) else sigma2, "verdicts": verdicts})

    if satisfied:
        conclusion = integ.CONCLUSION_SATISFIED
    elif not verdict21.satisfied:
        conclusion = verdicts["moment_level"]["conclusion"]
    else:
        conclusion = verdicts["subq_level"]["conclusion"]
    code = EXIT_OK if satisfied else EXIT_CHECK_FAILED
    _write_run(out, "check-theorem", cfg, seed, outputs, conclusion, code)
    print(f"check-theorem: {conclusion} (outputs in {out})")
    return code


# ---------------------------------------------------------------------------
# inequalities
# ---------------------------------------------------------------------------

#: The report blocks of `inequalities`; a config with none of them runs all.
_INEQUALITY_BLOCKS = ("osekowski", "tail_domination", "weibull_slope", "md_check")


def run_inequalities(cfg: dict, args) -> int:
    s = _Schema(cfg)
    seed = _flag_or_key(s, args.seed, "seed", int, required=True, minimum=0)
    reps = _flag_or_key(s, args.reps, "replications", int, default=20000, positive=True)
    threads = resolve_threads(_flag_or_key(s, args.threads, "threads", int))
    out = _flag_or_key(s, args.out or None, "out", str, default="uclt-inequalities")

    models_raw = s.get("models", many=True)
    if models_raw is None:
        models = default_model_suite(seed)
    else:
        models = [_validate_model(_Schema(m, f"config.models[{i}]"), seed + i)
                  for i, m in enumerate(models_raw)]
    horizon = min(model.horizon for model in models)
    run_all = None if any(key in cfg for key in _INEQUALITY_BLOCKS) else {}

    ose = s.sub("osekowski", default=run_all)
    ose_spec = None
    if ose is not None:
        ps = ose.get("p_grid", float, many=True, minimum=2, default=[2.0, 3.0, 4.0])
        ns = ose.get("n_grid", int, many=True, positive=True, maximum=horizon, default=[8, 64])
        mode = ose.get("mode", str, default="points")
        if mode not in ("points", "pairs"):
            raise ConfigError("config.osekowski.mode: must be points or pairs")
        ose_spec = (ps, ns, mode)
        ose.finish()
    lem = s.sub("tail_domination", default=run_all)
    lem_spec = None
    if lem is not None:
        xs = lem.get("x_values", float, many=True, default=[1.5, 2.0, 3.0])
        if any(x <= 1 for x in xs):
            raise ConfigError("config.tail_domination.x_values: the bound needs x > 1")
        ns = lem.get("n_values", int, many=True, positive=True, maximum=horizon,
                     default=[16, 256])
        r2 = lem.get("replications", int, default=reps, positive=True)
        tail_raw = lem.get("tail")
        tail = None
        if tail_raw is not None:
            try:
                tail = TailFunction.from_dict(tail_raw)
            except (KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"config.tail_domination.tail: {exc}") from None
        lem_spec = (xs, ns, r2, tail)
        lem.finish()
    slope = s.sub("weibull_slope", default=run_all)
    slope_spec = None
    if slope is not None:
        qs = slope.get("q_values", float, many=True, positive=True, default=[1.0, 2.0])
        kk = slope.get("K", float, default=1.0, positive=True)
        xlo = slope.get("x_lo", float, default=10.0, positive=True)
        xhi = slope.get("x_hi", float, default=100.0, positive=True)
        pts = slope.get("points", int, default=10, minimum=3)
        tol = slope.get("tol", float, default=0.05, positive=True)
        if not xhi > xlo:
            raise ConfigError("config.weibull_slope: need x_hi > x_lo")
        slope_spec = (qs, kk, xlo, xhi, pts, tol)
        slope.finish()
    mdc = s.sub("md_check", default=run_all)
    mdc_spec = None
    if mdc is not None:
        ids = mdc.get("indices", int, many=True, positive=True, maximum=horizon, default=[2, 16])
        mdc_spec = (ids, mdc.get("replications", int, default=reps, positive=True))
        mdc.finish()
    s.finish()

    reports: list[SimulationReport] = []
    ose_rows, tail_rows, slope_rows, md_rows = [], [], [], []
    all_ok = True

    for model in models:
        if ose_spec is not None:
            ps, ns, mode = ose_spec
            pair = None
            if mode == "pairs":
                pair = (model.labels[0], model.labels[-1])
            rows = osekowski_check(model, ps, ns, reps, mode=mode, pair=pair, threads=threads)
            reports.append(SimulationReport(model.name, model.seed, reps, "osekowski", rows))
            ose_rows += [[model.name, r["p"], r["n"], r["ratio"], r["se"], r["bound"]] for r in rows]
            all_ok &= all(r["within_bound"] for r in rows)
        if lem_spec is not None:
            xs, ns, r2, tail = lem_spec
            rows = tail_domination_check(model, tail, xs, ns, r2, threads=threads)
            reports.append(SimulationReport(model.name, model.seed, r2, "tail_domination", rows))
            tail_rows += [[model.name, r["n"], r["x"], r["empirical"], r["bound"], r["se"]]
                          for r in rows]
            all_ok &= all(r["ok"] for r in rows)
        if mdc_spec is not None:
            ids, r3 = mdc_spec
            rows = martingale_difference_check(model, ids, R=r3, threads=threads)
            reports.append(SimulationReport(model.name, model.seed, r3, "md_property", rows))
            md_rows += rows
    # one Holm family over every model's rows: a correct run fails with
    # probability at most MD_FAMILY_LEVEL however many models it has
    rejected = holm_rejections([r["p_value"] for r in md_rows], MD_FAMILY_LEVEL)
    for row, rej in zip(md_rows, rejected):
        row["ok"] = not rej
    all_ok &= not any(rejected)

    if slope_spec is not None:
        qs, kk, xlo, xhi, pts, tol = slope_spec
        for q in qs:
            tail = TailFunction.closed_weibull(kk, q)
            xs = np.geomspace(xlo, xhi, pts)
            ws = [w_operator(tail, float(x)) for x in xs]
            logneg = np.log([-math.log(w) for w in ws])
            fit = float(np.polyfit(np.log(xs), logneg, 1)[0])
            need = 2.0 * q / (2.0 + q) - tol
            ok = fit >= need
            slope_rows.append([q, fit, need, ok])
            reports.append(SimulationReport("weibull-transform", 0, 0, "decay_slope",
                                            [{"q": q, "slope": fit, "required": need, "ok": ok}]))
            all_ok &= ok

    outputs = {}
    if ose_rows:
        outputs["osekowski"] = _table("osekowski", ose_rows)
    if tail_rows:
        outputs["tail_bounds"] = _table("tail_bounds", tail_rows)
    if slope_rows:
        outputs["slopes"] = ("slopes.csv", (["q", "slope", "required", "ok"], slope_rows))
    outputs["inequalities"] = ("inequalities.json", {"reports": [r.to_dict() for r in reports]})

    conclusion = "all-checks-passed" if all_ok else "check-failed"
    code = EXIT_OK if all_ok else EXIT_CHECK_FAILED
    _write_run(out, "inequalities", cfg, seed, outputs, conclusion, code)
    print(f"inequalities: {conclusion} (outputs in {out})")
    return code


# ---------------------------------------------------------------------------
# covering
# ---------------------------------------------------------------------------

def run_covering(cfg: dict, args) -> int:
    s = _Schema(cfg)
    seed = _flag_or_key(s, args.seed, "seed", int, default=0, minimum=0)
    out = _flag_or_key(s, args.out or None, "out", str, default="uclt-covering")
    sp = s.sub("space", required=True)
    metric = sp.get("metric", str, default="euclidean")
    try:
        cov._parse_metric(metric)
    except ValueError as exc:
        raise ConfigError(f"{sp.path}.metric: {exc}") from None
    if "grid_1d" in sp.cfg:
        space = cov.FiniteMetricSpace.grid_1d(*_grid_1d(sp), metric=metric)
    elif "coords_csv" in sp.cfg or "distance_csv" in sp.cfg:
        key = "coords_csv" if "coords_csv" in sp.cfg else "distance_csv"
        try:
            space = (cov.load_coords_csv(sp.get(key, str), metric=metric) if key == "coords_csv"
                     else cov.load_distance_csv(sp.get(key, str)))
        except (OSError, ValueError, IndexError) as exc:
            raise ConfigError(f"{sp.path}.{key}: {exc}") from None
    else:
        raise ConfigError(f"{sp.path}: need one of grid_1d, coords_csv, distance_csv")
    sp.finish()

    mode = s.get("mode", str, default="greedy")
    if mode not in ("greedy", "exact", "both"):
        raise ConfigError("config.mode: must be greedy, exact or both")
    if mode != "greedy" and len(space) > cov.EXACT_SEARCH_CAP:
        raise ConfigError(f"config.mode: exact search is capped at {cov.EXACT_SEARCH_CAP} "
                          f"points; the space has {len(space)}")
    diam = cov.diameter(space)
    eps_block = s.sub("eps", default={})
    eps_values = eps_block.get("values", float, many=True, positive=True)
    if eps_values is not None:
        eps_values = sorted(eps_values, reverse=True)
    else:
        num = eps_block.get("num", int, default=16, positive=True)
        frac = eps_block.get("min_frac", float, default=0.01, positive=True)
        if not diam > 0:
            raise ConfigError(f"{sp.path}: the space has diameter 0, so its radii "
                              f"must be given as config.eps.values")
        eps_values = list(np.geomspace(diam, frac * diam, num))
    eps_block.finish()
    hf = s.sub("holder_fit")
    holder_spec = None
    if hf is not None:
        holder_spec = (hf.get("dim", int, required=True, minimum=1),
                       hf.get("alpha", float, required=True, positive=True, maximum=1))
        hf.finish()
    s.finish()

    columns = {}
    if mode != "exact":
        columns["n_greedy"] = [int(c) for c in cov.covering_numbers_greedy(space, eps_values)]
    if mode != "greedy":
        columns["n_exact"] = [cov.covering_number_exact(space, eps) for eps in eps_values]
    header = ["epsilon", *columns, "entropy"]   # the entropy of the exact count when there is one
    rows = [[float(eps), *ns, math.log(ns[-1])] for eps, *ns in zip(eps_values, *columns.values())]
    doc = {"points": len(space), "diameter": diam, "mode": mode,
           "table": [dict(zip(header, r)) for r in rows]}
    if holder_spec is not None:
        dim, alpha = holder_spec
        counts = [r[1] for r in rows]
        c2 = max(cnt * eps ** (dim / alpha) for cnt, eps in zip(counts, [r[0] for r in rows]))
        doc["holder_fit"] = {"dim": dim, "alpha": alpha, "c2": c2,
                             "bound_at_eps": {repr(r[0]): cov.holder_covering_bound(dim, alpha, c2, r[0])
                                              for r in rows}}
    _write_run(out, "covering", cfg, seed,
               {"covering": ("covering.csv", (header, rows)), "summary": ("covering.json", doc)},
               "covering-computed", EXIT_OK)
    print(f"covering: wrote {len(rows)} radii (outputs in {out})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def _read_csv_body(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def run_export(args) -> int:
    """Reads and checks every manifest and table of the runs below `--run`,
    then writes the consolidated tables; a failed export writes nothing."""
    rundir = args.run
    outdir = args.out or os.path.join(rundir, "export")
    candidates = []
    if os.path.isdir(rundir):
        candidates = [rundir] + sorted(
            os.path.join(rundir, d) for d in os.listdir(rundir)
            if os.path.isdir(os.path.join(rundir, d)))
    bodies = {key: [] for key in _TABLES}
    prov_parts = []
    for d in candidates:
        path = os.path.join(d, "run.json")
        if not os.path.exists(path):
            continue
        try:
            with open(path) as fh:
                man = json.load(fh)
            prov_parts.append(f"{man['command']}:{man['config_sha256'][:12]}:seed={man['seed']}")
            files = man.get("files", {})
            for key, (_, _, want) in _TABLES.items():
                if key in files:
                    path = os.path.join(d, files[key])
                    header, body = _read_csv_body(path)
                    if header != want:
                        raise MissingRun(f"{path}: header {header} does not match contract {want}")
                    bodies[key].extend(body)
        except (OSError, ValueError, LookupError, TypeError, csv.Error) as exc:
            raise MissingRun(f"{path}: unreadable ({exc})") from None
    if not prov_parts:
        raise MissingRun(f"{rundir}: no completed run manifests found")
    written = [(fname, header, bodies[key])
               for key, (_, fname, header) in _TABLES.items() if bodies[key]]
    if not written:
        raise MissingRun(f"{rundir}: manifests found but no exportable tables")
    prov = "provenance: " + " ".join(sorted(prov_parts))
    try:
        os.makedirs(outdir, exist_ok=True)
        for fname, header, body in written:
            _write_csv(os.path.join(outdir, fname), header, body, prov)
    except OSError as exc:
        raise UcltError(f"--out: {exc}") from None
    print(f"export: wrote {', '.join(sorted(f for f, _, _ in written))} (outputs in {outdir})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="uclt",
                                 description="Batch checks for uniform limit diagnostics "
                                             "of martingale-difference random fields.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in ("check-theorem", "inequalities", "covering"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--reps", type=int, default=None, help="override the replication count")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="worker cap (UCLT_THREADS fallback); never changes results")
    pe = sub.add_parser("export")
    pe.add_argument("--run", required=True, help="directory of completed runs")
    pe.add_argument("--out", default=None, help="destination (default RUN/export)")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "export":
            return run_export(args)
        cfg = _load_config(args.config)
        if args.command == "check-theorem":
            return run_check_theorem(cfg, args)
        if args.command == "inequalities":
            return run_inequalities(cfg, args)
        return run_covering(cfg, args)
    except UcltError as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
