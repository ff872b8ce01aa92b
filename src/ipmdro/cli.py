"""Batch front end: JSON problem configs in, CSV + JSON reports out.

Subcommands cover each operation family (distances, penalties, worst-case
expectations, identity and tightness verification, critic alignment, GAN
bounds) plus the built-in sine decomposition study and an epsilon sweep.
Reports are byte-deterministic given (config, seed).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .balls import (
    DudleyBall,
    Explicit,
    FisherBall,
    LipschitzBall,
    RkhsBall,
    SobolevBall,
    SupNormBall,
)
from .core import DiscreteDistribution, FunctionVec, SampleSpace, make_space
from .critic import check_alignment, critic_loss
from .dro import tightness_report, verify_identity, worst_case_expectation
from .errors import ConfigError, IpmdroError, NumericalBreakdown
from .gan import f_divergence_catalog, gan_bound_check
from .ipm import ipm_distance
from .penalties import centered_theta, j_penalty, lambda_penalty, theta
from .solvers import DEFAULT_TOLERANCES, Tolerances

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


def _fail(field, message):
    raise ConfigError(f"{field}: {message}")


def _float_list(field, raw, length=None):
    if not isinstance(raw, (list, tuple)):
        _fail(field, "expected a list of numbers")
    try:
        values = [float(x) for x in raw]
    except (TypeError, ValueError):
        _fail(field, "entries must be numbers")
    if length is not None and len(values) != length:
        _fail(field, f"has length {len(values)}, expected {length}")
    return values


def _integer(field, raw):
    try:
        return int(raw)
    except (TypeError, ValueError, OverflowError):
        _fail(field, f"expected an integer, got {raw!r}")


@dataclasses.dataclass
class ProblemConfig:
    """Parsed, canonicalized run configuration."""

    raw: dict
    seed: int
    space: SampleSpace
    distributions: dict
    functions: dict
    class_spec: dict | None
    epsilons: list
    divergence: str | None
    pairs: list
    h_names: list
    p_name: str | None
    mu_name: str | None
    discriminator_names: list
    samples: int
    tolerances: Tolerances

    def to_dict(self) -> dict:
        return self.raw

    def function_class(self):
        if self.class_spec is None:
            _fail("function_class", "required by this subcommand")
        spec = dict(self.class_spec)
        variant = spec.get("variant")
        build = CLASS_BUILDERS.get(variant) if isinstance(variant, str) else None
        if build is None:
            _fail("function_class.variant", f"unknown variant {variant!r}; "
                  f"expected one of {CLASS_VARIANTS}")
        return build(self, spec)

    def distribution(self, name) -> DiscreteDistribution:
        if name not in self.distributions:
            _fail("distributions", f"no distribution named {name!r}")
        return self.distributions[name]

    def function(self, name) -> FunctionVec:
        if name not in self.functions:
            _fail("functions", f"no function named {name!r}")
        return self.functions[name]


def gaussian_gram(space: SampleSpace, bandwidth: float) -> np.ndarray:
    """Gram matrix exp(-c(i,j)^2 / (2 sigma^2)) from the space metric."""
    if space.metric is None:
        raise ConfigError("function_class.gaussian_bandwidth: space has no metric")
    if not bandwidth > 0.0:
        raise ConfigError("function_class.gaussian_bandwidth: must be positive")
    return np.exp(-(space.metric**2) / (2.0 * bandwidth**2))


def _explicit_class(config, spec):
    names = spec.get("members")
    if not names:
        _fail("function_class.members", "required for explicit classes")
    return Explicit(config.space, tuple(config.function(n) for n in names))


def _rkhs_class(config, spec):
    space = config.space
    if "gram" in spec:
        gram = np.array(
            [
                _float_list(f"function_class.gram row {i}", row, space.n)
                for i, row in enumerate(spec["gram"])
            ]
        )
        if gram.shape[0] != space.n:
            _fail("function_class.gram", f"needs {space.n} rows")
    elif "gaussian_bandwidth" in spec:
        gram = gaussian_gram(space, float(spec["gaussian_bandwidth"]))
    else:
        _fail("function_class", "rkhs_ball needs gram or gaussian_bandwidth")
    return RkhsBall(space, gram=gram)


def _mu_class(ball):
    def build(config, spec):
        mu = config.distribution(spec.get("mu", "mu"))
        allow = bool(spec.get("allow_zero_mass", False))
        return ball(config.space, mu=mu, allow_zero_mass=allow)

    return build


# config name -> builder(config, spec) of the function class
CLASS_BUILDERS = {
    "explicit": _explicit_class,
    "lipschitz_ball": lambda config, spec: LipschitzBall(config.space),
    "sup_norm_ball": lambda config, spec: SupNormBall(config.space),
    "rkhs_ball": _rkhs_class,
    "fisher_ball": _mu_class(FisherBall),
    "sobolev_ball": _mu_class(SobolevBall),
    "dudley_ball": lambda config, spec: DudleyBall(config.space),
}
CLASS_VARIANTS = tuple(CLASS_BUILDERS)


def parse_config(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")

    space_spec = data.get("space")
    if not isinstance(space_spec, dict) or "points" not in space_spec:
        _fail("space", "must be an object with a points list")
    points = [str(p) for p in space_spec["points"]]
    n = len(points)
    metric = None
    if space_spec.get("metric") is not None:
        rows = space_spec["metric"]
        if len(rows) != n:
            _fail("space.metric", f"has {len(rows)} rows, expected {n}")
        metric = np.array(
            [_float_list(f"space.metric row {i}", row, n) for i, row in enumerate(rows)]
        )
    graph = None
    if space_spec.get("graph") is not None:
        graph = []
        for k, edge in enumerate(space_spec["graph"]):
            trip = _float_list(f"space.graph edge {k}", edge, 3)
            graph.append((int(trip[0]), int(trip[1]), trip[2]))
        graph = tuple(graph)
    try:
        space = make_space(points, metric, graph)
    except IpmdroError as exc:
        raise ConfigError(f"space: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"space: {exc}") from exc

    distributions = {}
    for name, raw in dict(data.get("distributions", {})).items():
        values = _float_list(f"distributions.{name}", raw, n)
        try:
            distributions[name] = DiscreteDistribution(space, np.array(values))
        except (IpmdroError, ValueError) as exc:
            raise ConfigError(f"distributions.{name}: {exc}") from exc

    functions = {}
    for name, raw in dict(data.get("functions", {})).items():
        values = _float_list(f"functions.{name}", raw, n)
        try:
            functions[name] = FunctionVec(space, np.array(values))
        except (IpmdroError, ValueError) as exc:
            raise ConfigError(f"functions.{name}: {exc}") from exc

    eps_spec = data.get("epsilon")
    if eps_spec is None:
        epsilons = []
    elif isinstance(eps_spec, (int, float)):
        epsilons = [float(eps_spec)]
    elif isinstance(eps_spec, list):
        epsilons = _float_list("epsilon", eps_spec)
    elif isinstance(eps_spec, dict):
        try:
            start, stop = float(eps_spec["start"]), float(eps_spec["stop"])
            count = int(eps_spec["count"])
        except (KeyError, TypeError, ValueError):
            _fail("epsilon", "grid needs numeric start/stop/count")
        if count < 1:
            _fail("epsilon.count", "must be at least 1")
        epsilons = [float(x) for x in np.linspace(start, stop, count)]
    else:
        _fail("epsilon", "expected a number, list, or grid object")

    h_spec = data.get("h")
    if h_spec is None:
        h_names = []
    elif isinstance(h_spec, str):
        h_names = [h_spec]
    else:
        h_names = [str(x) for x in h_spec]

    pairs = [[str(a), str(b)] for a, b in data.get("pairs", [])]

    tol_overrides = data.get("tolerances", {})
    if not isinstance(tol_overrides, dict):
        _fail("tolerances", "expected an object")
    defaults = {f.name: getattr(DEFAULT_TOLERANCES, f.name)
                for f in dataclasses.fields(Tolerances)}
    for key, value in tol_overrides.items():
        if key not in defaults:
            _fail("tolerances", f"unknown tolerance field {key!r}")
        integral = isinstance(defaults[key], int)
        kinds = int if integral else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            kind = "an integer" if integral else "a number"
            _fail(f"tolerances.{key}", f"expected {kind}, got {value!r}")
    tolerances = dataclasses.replace(DEFAULT_TOLERANCES, **tol_overrides)

    class_spec = data.get("function_class")
    if class_spec is not None and not isinstance(class_spec, dict):
        _fail("function_class", f"expected an object with a variant, got {class_spec!r}")

    return ProblemConfig(
        raw=canonical_dict(data),
        seed=_integer("seed", data.get("seed", 0)),
        space=space,
        distributions=distributions,
        functions=functions,
        class_spec=class_spec,
        epsilons=epsilons,
        divergence=data.get("divergence"),
        pairs=pairs,
        h_names=h_names,
        p_name=data.get("p"),
        mu_name=data.get("mu"),
        discriminator_names=[str(x) for x in data.get("discriminators", [])],
        samples=_integer("samples", data.get("samples", 200)),
        tolerances=tolerances,
    )


def canonical_dict(data):
    """Canonical JSON-ready form: parse -> serialize is a fixed point."""
    if isinstance(data, dict):
        return {str(k): canonical_dict(v) for k, v in sorted(data.items())}
    if isinstance(data, (list, tuple)):
        return [canonical_dict(v) for v in data]
    if isinstance(data, bool) or data is None or isinstance(data, (int, str)):
        return data
    if isinstance(data, float):
        return data
    raise ConfigError(f"config: unsupported value {data!r}")


def load_config(path) -> ProblemConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# subcommands


def run_ipm(config: ProblemConfig):
    cls = config.function_class()
    if not config.pairs:
        _fail("pairs", "ipm needs at least one [q, p] pair")
    rows = []
    for qname, pname in config.pairs:
        value = ipm_distance(
            cls, config.distribution(qname), config.distribution(pname),
            config.tolerances,
        )
        rows.append({"q": qname, "p": pname, "value": value.value})
    return rows, {}


def _reference(config) -> DiscreteDistribution:
    if config.p_name is None:
        _fail("p", "a reference distribution name is required")
    return config.distribution(config.p_name)


def run_penalty(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if not config.h_names:
        _fail("h", "at least one function name is required")
    if not config.epsilons:
        _fail("epsilon", "required for penalties")
    rows, witnesses = [], {}
    for name in config.h_names:
        h = config.function(name)
        gauge = theta(cls, h, config.tolerances)
        peak = j_penalty(P, h)
        b_star, centered = centered_theta(cls, h, config.tolerances)
        for eps in config.epsilons:
            lam = lambda_penalty(P, cls, eps, h, config.tolerances)
            rows.append(
                {
                    "h": name,
                    "eps": eps,
                    "theta": gauge.value,
                    "j_p": peak.value,
                    "b_star": b_star,
                    "centered_theta": centered.value,
                    "lambda": lam.value,
                    "lambda_exact": lam.exact,
                }
            )
            if lam.witness is not None:
                h1, h2 = lam.witness
                witnesses[f"{name}:eps={eps!r}"] = {
                    "h1": list(map(float, h1)),
                    "h2": list(map(float, h2)),
                }
    return rows, witnesses


def run_dro_sup(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if not config.h_names or not config.epsilons:
        _fail("h/epsilon", "dro-sup needs function names and epsilons")
    rows, witnesses = [], {}
    for name in config.h_names:
        h = config.function(name)
        for eps in config.epsilons:
            result = worst_case_expectation(P, cls, eps, h, config.tolerances)
            rows.append(
                {
                    "h": name,
                    "eps": eps,
                    "value": result.value,
                    "method": result.method.value,
                    "gap_estimate": result.gap_estimate,
                }
            )
            witnesses[f"{name}:eps={eps!r}"] = {
                "worst_q": list(map(float, result.worst_q.weights))
            }
    return rows, witnesses


def _identity_rows(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if not config.h_names or not config.epsilons:
        _fail("h/epsilon", "identity checks need function names and epsilons")
    rows = []
    for name in config.h_names:
        h = config.function(name)
        for eps in config.epsilons:
            report = verify_identity(P, cls, eps, h, config.tolerances)
            rows.append(
                {
                    "h": name,
                    "eps": eps,
                    "lhs": report.lhs,
                    "e_p_h": report.e_p_h,
                    "lambda": report.lambda_value,
                    "residual": report.residual,
                    "exact": report.exact,
                }
            )
    return rows, {}


def run_verify_identity(config: ProblemConfig):
    return _identity_rows(config)


def run_sweep_eps(config: ProblemConfig):
    if len(config.epsilons) < 2:
        _fail("epsilon", "sweep-eps needs an epsilon grid")
    return _identity_rows(config)


def run_tightness(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if not config.epsilons:
        _fail("epsilon", "required for tightness")
    rows = []
    for eps in config.epsilons:
        report = tightness_report(
            P, cls, eps, config.samples, config.seed, config.tolerances
        )
        rows.append(
            {
                "eps": eps,
                "samples": report.samples,
                "max_min_violation": report.max_min_violation,
                "max_subadditivity_violation": report.max_subadditivity_violation,
            }
        )
    return rows, {}


def run_critic_check(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    mu = config.distribution(config.mu_name) if config.mu_name else None
    if not config.h_names or not config.epsilons:
        _fail("h/epsilon", "critic-check needs function names and epsilons")
    rows, witnesses = [], {}
    for name in config.h_names:
        h = config.function(name)
        for eps in config.epsilons:
            report = check_alignment(P, cls, eps, h, config.tolerances)
            row = {
                "h": name,
                "eps": eps,
                "lambda": report.lambda_value,
                "eps_theta": report.eps_theta,
                "aligned": report.aligned,
                "gap": report.gap,
                "witness_residual": report.witness_residual,
            }
            if mu is not None:
                row["critic_loss"] = critic_loss(P, mu, eps, cls, h, config.tolerances)
            rows.append(row)
            if report.witness_mu is not None:
                witnesses[f"{name}:eps={eps!r}"] = {
                    "witness_mu": list(map(float, report.witness_mu.weights))
                }
    return rows, witnesses


def run_gan_bound(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if config.mu_name is None:
        _fail("mu", "gan-bound needs a model distribution name")
    mu = config.distribution(config.mu_name)
    if not config.discriminator_names:
        _fail("discriminators", "gan-bound needs discriminator names")
    if config.divergence is None:
        _fail("divergence", "gan-bound needs a divergence name")
    div = f_divergence_catalog(config.divergence)
    H = Explicit(
        config.space,
        tuple(config.function(name) for name in config.discriminator_names),
    )
    if not config.epsilons:
        _fail("epsilon", "required for gan-bound")
    rows = []
    for eps in config.epsilons:
        report = gan_bound_check(div, H, cls, eps, mu, P, config.tolerances)
        rows.append(
            {
                "divergence": config.divergence,
                "eps": eps,
                "robust": report.robust,
                "plain": report.plain,
                "cap": report.cap,
                "slack": report.slack,
            }
        )
    return rows, {}


SIN_GRID_POINTS = 201
SIN_GRID_LO, SIN_GRID_HI = -4.0, 4.0


def sin_study_config() -> ProblemConfig:
    """Built-in grid study: h(t) = sin(2t) + t against a discretized standard
    normal on [-4, 4], with the one-Lipschitz ball at radius one."""
    t = np.linspace(SIN_GRID_LO, SIN_GRID_HI, SIN_GRID_POINTS)
    weights = np.exp(-(t**2) / 2.0)
    weights /= weights.sum()
    metric = np.abs(t[:, None] - t[None, :])
    data = {
        "schema_version": SCHEMA_VERSION,
        "seed": 0,
        "space": {
            "points": [f"t={x:.2f}" for x in t],
            "metric": [[float(v) for v in row] for row in metric],
        },
        "distributions": {"p": [float(w) for w in weights]},
        "functions": {
            "h": [float(v) for v in np.sin(2.0 * t) + t],
            "h1": [float(v) for v in np.sin(2.0 * t)],
        },
        "function_class": {"variant": "lipschitz_ball"},
        "epsilon": 1.0,
        "p": "p",
        "h": "h",
    }
    return parse_config(data)


def run_repro_sin(config: ProblemConfig):
    from .core import lipschitz_constant

    cls = config.function_class()
    P = _reference(config)
    h = config.function("h")
    h1 = config.function("h1")
    eps = config.epsilons[0]
    eps_lip = eps * lipschitz_constant(config.space, h.values)
    lam = lambda_penalty(P, cls, eps, h, config.tolerances)
    peak = j_penalty(P, h1)
    residual = FunctionVec(config.space, h.values - h1.values)
    upper = peak.value + eps * lipschitz_constant(config.space, residual.values)
    rows = [
        {
            "eps": eps,
            "eps_lip": eps_lip,
            "lambda_lp": lam.value,
            "lambda_upper_decomposition": upper,
            "j_p_h1": peak.value,
            "gap": eps_lip - lam.value,
        }
    ]
    h1_opt, h2_opt = lam.witness
    witnesses = {
        "lambda_split": {
            "h1": list(map(float, h1_opt)),
            "h2": list(map(float, h2_opt)),
        }
    }
    return rows, witnesses


SUBCOMMANDS = {
    "ipm": run_ipm,
    "penalty": run_penalty,
    "dro-sup": run_dro_sup,
    "verify-identity": run_verify_identity,
    "tightness": run_tightness,
    "critic-check": run_critic_check,
    "gan-bound": run_gan_bound,
    "repro-sin": run_repro_sin,
    "sweep-eps": run_sweep_eps,
}


# ---------------------------------------------------------------------------
# reports


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit_report(subcommand, rows, witnesses, config, out_dir) -> list:
    """Write <subcommand>.csv (one row per instance/epsilon cell) and
    <subcommand>.json (full payload incl. witnesses), byte-deterministically."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        stem = subcommand.replace("-", "_")
        csv_path = out / f"{stem}.csv"
        json_path = out / f"{stem}.json"
        headers = list(rows[0].keys()) if rows else []
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(headers)
            for row in rows:
                writer.writerow([_format_cell(row[k]) for k in headers])
        payload = {
            "schema_version": SCHEMA_VERSION,
            "subcommand": subcommand,
            "config": config.to_dict(),
            "rows": rows,
            "witnesses": witnesses,
        }
        with open(json_path, "w", encoding="utf-8", newline="") as handle:
            json.dump(_jsonable(payload), handle, sort_keys=True,
                      separators=(",", ": "), indent=1)
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"out: cannot write report: {exc}") from exc
    return [csv_path, json_path]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not np.isfinite(value):
        return repr(value)
    return value


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ipmdro",
        description="Distributional-robustness computations over IPM balls "
        "on finite sample spaces.",
    )
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", help="path to a JSON problem config")
    parser.add_argument("--out", required=True, help="report output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument(
        "--tol",
        type=float,
        default=None,
        help="override the exact-path identity tolerance",
    )
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.subcommand != "repro-sin":
                raise ConfigError("config: --config is required for this subcommand")
            config = sin_study_config()
        else:
            config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
            config.raw["seed"] = args.seed
        if args.tol is not None:
            config = dataclasses.replace(
                config,
                tolerances=dataclasses.replace(
                    config.tolerances, identity_exact=args.tol
                ),
            )
        rows, witnesses = SUBCOMMANDS[args.subcommand](config)
        paths = emit_report(args.subcommand, rows, witnesses, config, args.out)
    except ConfigError as exc:
        print(f"ipmdro: {exc}", file=sys.stderr)
        return 2
    except NumericalBreakdown as exc:
        print(f"ipmdro: numerical breakdown: {exc}", file=sys.stderr)
        return 3
    except IpmdroError as exc:
        print(f"ipmdro: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
