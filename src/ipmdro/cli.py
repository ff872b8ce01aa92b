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
import math
import numbers
import sys
from functools import partial
from itertools import chain
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
from .core import DiscreteDistribution, FunctionVec, SampleSpace, lipschitz_constant, make_space
from .critic import check_alignment, critic_loss
from .dro import tightness_report, verify_identity, worst_case_expectation
from .errors import ConfigError, IpmdroError, NumericalBreakdown
from .gan import f_divergence_catalog, gan_bound_check
from .ipm import ipm_distance
from .penalties import centered_theta, j_penalty, lambda_penalty, theta

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# configuration


def _fail(field, message):
    raise ConfigError(f"{field}: {message}")


def _float_list(field, raw, length=None):
    if not isinstance(raw, (list, tuple)):
        _fail(field, "expected a list of numbers")
    # one ABC check per entry type, not per entry: a metric row has one or two
    if not all(issubclass(kind, numbers.Real) and not issubclass(kind, bool)
               for kind in set(map(type, raw))):
        _fail(field, "entries must be numbers")
    try:
        values = list(map(float, raw))
    except OverflowError:
        _fail(field, "an entry is too large for a float")
    if length is not None and len(values) != length:
        _fail(field, f"has length {len(values)}, expected {length}")
    return values


def _list(field, raw):
    if not isinstance(raw, (list, tuple)):
        _fail(field, f"expected a list, got {raw!r}")
    return raw


def _object(field, raw):
    if not isinstance(raw, dict):
        _fail(field, f"expected an object, got {raw!r}")
    return raw


def _name(field, raw):
    """An optional name: absent (None) or a string."""
    if raw is not None and not isinstance(raw, str):
        _fail(field, f"expected a name, got {raw!r}")
    return raw


def _real(field, raw):
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        _fail(field, f"expected a number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:
        _fail(field, "too large for a float")


def _refuse_unknown(field, raw, allowed):
    """Refuse an object holding a key outside ``allowed``, naming the first."""
    unknown = [key for key in raw if key not in allowed]
    if unknown:
        _fail(field, f"unknown field {unknown[0]!r}; expected one of {allowed}")


def _refuse_repeats(field, what, values):
    """Refuse a list that holds one value twice, naming the first repeat."""
    seen = set()
    for value in values:
        if value in seen:
            _fail(field, f"repeats the {what} {value!r}")
        seen.add(value)


def _integer(field, raw):
    """An integer, or a float with an integer value; not a bool or a string."""
    if isinstance(raw, float) and raw.is_integer():
        return int(raw)
    if isinstance(raw, bool) or not isinstance(raw, numbers.Integral):
        _fail(field, f"expected an integer, got {raw!r}")
    return int(raw)


def _seed(raw):
    """A non-negative integer: numpy's generators refuse a negative seed."""
    seed = _integer("seed", raw)
    if seed < 0:
        _fail("seed", f"must be non-negative, got {seed}")
    return seed


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

    def to_dict(self) -> dict:
        return self.raw

    def function_class(self):
        if self.class_spec is None:
            _fail("function_class", "required by this subcommand")
        spec = dict(self.class_spec)
        return CLASS_BUILDERS[spec["variant"]][0](self, spec)

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
    names = _list("function_class.members", names)
    return Explicit(config.space, tuple(config.function(n) for n in names))


def _rkhs_class(config, spec):
    space = config.space
    if "gram" in spec and "gaussian_bandwidth" in spec:
        _fail("function_class", "rkhs_ball takes gram or gaussian_bandwidth, not both")
    if "gram" in spec:
        gram = np.array(
            [
                _float_list(f"function_class.gram row {i}", row, space.n)
                for i, row in enumerate(_list("function_class.gram", spec["gram"]))
            ]
        )
        if gram.shape[0] != space.n:
            _fail("function_class.gram", f"needs {space.n} rows")
    elif "gaussian_bandwidth" in spec:
        bandwidth = _real("function_class.gaussian_bandwidth", spec["gaussian_bandwidth"])
        gram = gaussian_gram(space, bandwidth)
    else:
        _fail("function_class", "rkhs_ball needs gram or gaussian_bandwidth")
    return RkhsBall(space, gram=gram)


def _mu_class(ball):
    def build(config, spec):
        mu = config.distribution(_name("function_class.mu", spec.get("mu", "mu")))
        allow = spec.get("allow_zero_mass", False)
        if not isinstance(allow, bool):
            _fail("function_class.allow_zero_mass",
                  f"expected true or false, got {allow!r}")
        return ball(config.space, mu=mu, allow_zero_mass=allow)

    return build


# config name -> (builder(config, spec) of the function class, the fields
# the builder reads beside the variant; any other is refused)
CLASS_BUILDERS = {
    "explicit": (_explicit_class, ("members",)),
    "lipschitz_ball": (lambda config, spec: LipschitzBall(config.space), ()),
    "sup_norm_ball": (lambda config, spec: SupNormBall(config.space), ()),
    "rkhs_ball": (_rkhs_class, ("gram", "gaussian_bandwidth")),
    "fisher_ball": (_mu_class(FisherBall), ("mu", "allow_zero_mass")),
    "sobolev_ball": (_mu_class(SobolevBall), ("mu", "allow_zero_mass")),
    "dudley_ball": (lambda config, spec: DudleyBall(config.space), ()),
}
CLASS_VARIANTS = tuple(CLASS_BUILDERS)


# the top-level fields a config may hold; any other is refused
_CONFIG_FIELDS = ("schema_version", "seed", "space", "distributions", "functions",
                  "function_class", "epsilon", "p", "mu", "h", "pairs",
                  "discriminators", "divergence", "samples")


def parse_config(data: dict) -> ProblemConfig:
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    version = data.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1.0 == 1
        _fail("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    _refuse_unknown("config", data, _CONFIG_FIELDS)

    space_spec = data.get("space")
    if not isinstance(space_spec, dict) or "points" not in space_spec:
        _fail("space", "must be an object with a points list")
    _refuse_unknown("space", space_spec, ("points", "metric", "graph"))
    points = [str(p) for p in _list("space.points", space_spec["points"])]
    n = len(points)
    metric = None
    if space_spec.get("metric") is not None:
        rows = _list("space.metric", space_spec["metric"])
        if len(rows) != n:
            _fail("space.metric", f"has {len(rows)} rows, expected {n}")
        metric = np.array(
            [_float_list(f"space.metric row {i}", row, n) for i, row in enumerate(rows)]
        )
    graph = None
    if space_spec.get("graph") is not None:
        graph = []
        for k, edge in enumerate(_list("space.graph", space_spec["graph"])):
            trip = _float_list(f"space.graph edge {k}", edge, 3)
            if not (trip[0].is_integer() and trip[1].is_integer()):
                _fail(f"space.graph edge {k}", "endpoints must be integers")
            graph.append((int(trip[0]), int(trip[1]), trip[2]))
        graph = tuple(graph)
    try:
        space = make_space(points, metric, graph)
    except (IpmdroError, ValueError) as exc:
        raise ConfigError(f"space: {exc}") from exc

    distributions = _vectors("distributions", data, space, DiscreteDistribution)
    functions = _vectors("functions", data, space, FunctionVec)

    eps_spec = data.get("epsilon")
    if eps_spec is None:
        epsilons = []
    elif isinstance(eps_spec, (int, float)) and not isinstance(eps_spec, bool):
        epsilons = [_real("epsilon", eps_spec)]
    elif isinstance(eps_spec, list):
        epsilons = _float_list("epsilon", eps_spec)
    elif isinstance(eps_spec, dict):
        if not all(key in eps_spec for key in ("start", "stop", "count")):
            _fail("epsilon", "grid needs numeric start/stop/count")
        _refuse_unknown("epsilon", eps_spec, ("start", "stop", "count"))
        start = _real("epsilon.start", eps_spec["start"])
        stop = _real("epsilon.stop", eps_spec["stop"])
        count = _integer("epsilon.count", eps_spec["count"])
        if count < 1:
            _fail("epsilon.count", "must be at least 1")
        # numpy refuses an array of more than intp.max bytes, 8 per radius
        if count > np.iinfo(np.intp).max // 8:
            _fail("epsilon.count", f"{count} radii do not fit in an array")
        epsilons = [float(x) for x in np.linspace(start, stop, count)]
    else:
        _fail("epsilon", "expected a number, list, or grid object")
    if not np.all(np.isfinite(epsilons)):
        _fail("epsilon", f"must be finite, got {epsilons!r}")
    _refuse_repeats("epsilon", "radius", epsilons)

    h_spec = data.get("h")
    if h_spec is None:
        h_names = []
    elif isinstance(h_spec, str):
        h_names = [h_spec]
    else:
        h_names = [str(x) for x in _list("h", h_spec)]
    _refuse_repeats("h", "name", h_names)

    pairs = []
    for k, pair in enumerate(_list("pairs", data.get("pairs", []))):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            _fail(f"pairs entry {k}", f"expected a [q, p] pair of names, got {pair!r}")
        pairs.append([str(pair[0]), str(pair[1])])

    samples = _integer("samples", data.get("samples", 200))
    if samples < 1:
        _fail("samples", f"must be at least 1, got {samples}")

    class_spec = data.get("function_class")
    if class_spec is not None:
        if not isinstance(class_spec, dict):
            _fail("function_class", f"expected an object with a variant, got {class_spec!r}")
        variant = class_spec.get("variant")
        if not isinstance(variant, str) or variant not in CLASS_BUILDERS:
            _fail("function_class.variant", f"unknown variant {variant!r}; "
                  f"expected one of {CLASS_VARIANTS}")
        _refuse_unknown("function_class", class_spec, ("variant",) + CLASS_BUILDERS[variant][1])

    return ProblemConfig(
        seed=_seed(data.get("seed", 0)),
        space=space,
        distributions=distributions,
        functions=functions,
        class_spec=class_spec,
        epsilons=epsilons,
        divergence=_name("divergence", data.get("divergence")),
        pairs=pairs,
        h_names=h_names,
        p_name=_name("p", data.get("p")),
        mu_name=_name("mu", data.get("mu")),
        discriminator_names=[
            str(x) for x in _list("discriminators", data.get("discriminators", []))
        ],
        samples=samples,
        raw=canonical_dict(data),  # last: each field's own check speaks first
    )


def _vectors(field, data, space, kind):
    """The named vectors of one config object, each built as ``kind(space, values)``."""
    vectors = {}
    for name, raw in _object(field, data.get(field, {})).items():
        values = _float_list(f"{field}.{name}", raw, space.n)
        try:
            vectors[name] = kind(space, np.array(values))
        except (IpmdroError, ValueError) as exc:
            raise ConfigError(f"{field}.{name}: {exc}") from exc
    return vectors


def canonical_dict(data):
    """Canonical JSON-ready form: parse -> serialize is a fixed point.

    JSON (RFC 8259) has no NaN or Infinity, though Python's ``json.load``
    reads both, so a config holding either is refused.  A flat list of plain
    ints and floats (a metric row, a weight vector) is checked and copied in
    one pass; any other list, and one that fails that check, is canonicalized
    entry by entry, which names the first non-finite entry.
    """
    if isinstance(data, dict):
        return {str(k): canonical_dict(v) for k, v in sorted(data.items())}
    if isinstance(data, (list, tuple)):
        if _finite_numbers(data):
            return list(data)
        return [canonical_dict(v) for v in data]
    if isinstance(data, bool) or data is None or isinstance(data, (int, str)):
        return data
    if isinstance(data, float):
        if not math.isfinite(data):
            raise ConfigError(f"config: {data!r} is not a JSON number")
        return data
    raise ConfigError(f"config: unsupported value {data!r}")


def _finite_numbers(values) -> bool:
    """Whether ``values`` holds only plain ints and floats, all finite.

    One pass at C speed: a sum is finite only if every entry is.  False for
    any other entry type, and also where finite entries overflow the sum or
    an int is too large for a float; callers then check entry by entry.
    """
    if not set(map(type, values)) <= {int, float}:
        return False
    try:
        return math.isfinite(sum(values))
    except OverflowError:
        return False


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
        value = ipm_distance(cls, config.distribution(qname), config.distribution(pname))
        rows.append({"q": qname, "p": pname, "value": value.value})
    return rows, {}


def _reference(config) -> DiscreteDistribution:
    if config.p_name is None:
        _fail("p", "a reference distribution name is required")
    return config.distribution(config.p_name)


def _h_eps_cells(config: ProblemConfig, needs, cells):
    """Rows and witnesses of the (h, eps) cells: one row per function named
    in ``h`` and radius in ``epsilon``, h by h.

    ``cells(P, cls, h, epsilons)`` does its per-h work once and yields
    ``(columns, witness)`` for each radius in turn.  A row is ``h``, ``eps``
    and the columns; a witness other than None is kept under
    ``"<h>:eps=<eps!r>"``.
    """
    cls = config.function_class()
    P = _reference(config)
    if not config.h_names or not config.epsilons:
        _fail("h/epsilon", f"{needs} function names and epsilons")
    rows, witnesses = [], {}
    for name in config.h_names:
        h_cells = cells(P, cls, config.function(name), config.epsilons)
        for eps, (columns, witness) in zip(config.epsilons, h_cells):
            rows.append({"h": name, "eps": eps, **columns})
            if witness is not None:
                witnesses[f"{name}:eps={eps!r}"] = witness
    return rows, witnesses


def _split_witness(witness):
    """A penalty's (h1, h2) split as a report witness."""
    h1, h2 = witness
    return {"h1": list(map(float, h1)), "h2": list(map(float, h2))}


def _penalty_cells(P, cls, h, epsilons):
    gauge, peak = theta(cls, h), j_penalty(P, h)
    b_star, centered = centered_theta(cls, h)
    for eps in epsilons:
        lam = lambda_penalty(P, cls, eps, h)
        columns = {
            "theta": gauge.value,
            "j_p": peak.value,
            "b_star": b_star,
            "centered_theta": centered.value,
            "lambda": lam.value,
            "lambda_exact": lam.exact,
        }
        yield columns, _split_witness(lam.witness)


def _dro_sup_cells(P, cls, h, epsilons):
    for eps in epsilons:
        result = worst_case_expectation(P, cls, eps, h)
        columns = {
            "value": result.value,
            "method": result.method.value,
            "gap_estimate": result.gap_estimate,
        }
        yield columns, {"worst_q": list(map(float, result.worst_q.weights))}


def _identity_cells(P, cls, h, epsilons):
    for eps in epsilons:
        report = verify_identity(P, cls, eps, h)
        columns = {
            "lhs": report.lhs,
            "e_p_h": report.e_p_h,
            "lambda": report.lambda_value,
            "residual": report.residual,
            "exact": report.exact,
        }
        yield columns, None


def _critic_cells(P, cls, h, epsilons, mu=None):
    for eps in epsilons:
        report = check_alignment(P, cls, eps, h)
        columns = {
            "lambda": report.lambda_value,
            "eps_theta": report.eps_theta,
            "aligned": report.aligned,
            "gap": report.gap,
            "witness_residual": report.witness_residual,
        }
        if mu is not None:
            columns["critic_loss"] = critic_loss(P, mu, eps, cls, h)
        if report.witness_mu is None:
            yield columns, None
        else:
            yield columns, {"witness_mu": list(map(float, report.witness_mu.weights))}


def run_penalty(config: ProblemConfig):
    return _h_eps_cells(config, "penalty needs", _penalty_cells)


def run_dro_sup(config: ProblemConfig):
    return _h_eps_cells(config, "dro-sup needs", _dro_sup_cells)


def run_verify_identity(config: ProblemConfig):
    return _h_eps_cells(config, "identity checks need", _identity_cells)


def run_sweep_eps(config: ProblemConfig):
    if len(config.epsilons) < 2:
        _fail("epsilon", "sweep-eps needs an epsilon grid")
    return _h_eps_cells(config, "identity checks need", _identity_cells)


def run_critic_check(config: ProblemConfig):
    mu = config.distribution(config.mu_name) if config.mu_name else None
    return _h_eps_cells(config, "critic-check needs", partial(_critic_cells, mu=mu))


def run_tightness(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    if not config.epsilons:
        _fail("epsilon", "required for tightness")
    rows = []
    for eps in config.epsilons:
        report = tightness_report(P, cls, eps, config.samples, config.seed)
        rows.append(
            {
                "eps": eps,
                "samples": report.samples,
                "max_min_violation": report.max_min_violation,
                "max_subadditivity_violation": report.max_subadditivity_violation,
            }
        )
    return rows, {}


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
        report = gan_bound_check(div, H, cls, eps, mu, P)
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
            "metric": metric.tolist(),
        },
        "distributions": {"p": weights.tolist()},
        "functions": {
            "h": (np.sin(2.0 * t) + t).tolist(),
            "h1": np.sin(2.0 * t).tolist(),
        },
        "function_class": {"variant": "lipschitz_ball"},
        "epsilon": 1.0,
        "p": "p",
        "h": "h",
    }
    return parse_config(data)


def run_repro_sin(config: ProblemConfig):
    cls = config.function_class()
    P = _reference(config)
    h = config.function("h")
    h1 = config.function("h1")
    if len(config.epsilons) != 1:
        _fail("epsilon", "repro-sin needs exactly one radius")
    (eps,) = config.epsilons
    eps_lip = eps * lipschitz_constant(config.space, h.values)
    lam = lambda_penalty(P, cls, eps, h)
    peak = j_penalty(P, h1)
    upper = peak.value + eps * lipschitz_constant(config.space, h.values - h1.values)
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
    return rows, {"lambda_split": _split_witness(lam.witness)}


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
    <subcommand>.json (full payload incl. witnesses), byte-deterministically.

    The JSON bytes are those of ``json.dump(payload, indent=1, sort_keys=True,
    separators=(",", ": "))`` and a newline, written chunk by chunk by
    ``_json_chunks``, which formats a matrix of floats (the config's metric)
    through one table of its distinct values.
    """
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
        payload = {  # config.raw is JSON-ready already (canonical_dict)
            "schema_version": SCHEMA_VERSION,
            "subcommand": subcommand,
            "config": config.to_dict(),
            "rows": _jsonable(rows),
            "witnesses": _jsonable(witnesses),
        }
        with open(json_path, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(_json_chunks(payload))
            handle.write("\n")
    except OSError as exc:
        raise ConfigError(f"out: cannot write report: {exc}") from exc
    return [csv_path, json_path]


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        if _finite_numbers(value):
            return list(value)
        return [_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating,)):
        value = float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


# CPython's json.dump runs its pure-Python encoder, one generator step per
# number, whenever ``indent`` is set.  _json_chunks writes the same text: each
# list that holds no list, tuple or dict through the C encoder, whose item
# separator carries the indent, and a matrix of floats (a metric) from one
# table of its distinct values, one float.__repr__ each.

_json_string = json.encoder.encode_basestring_ascii


def _float_rows(rows, sep):
    """Each row of a matrix of plain floats joined by ``sep``, lazily; None
    unless every row is a non-empty list or tuple of plain finite floats.

    float.__repr__ runs once per distinct int64 bit pattern, so 0.0 and -0.0
    stay apart, and each row is joined from that table of texts: repro-sin's
    201-point metric has 40,401 entries and 529 distinct values.
    """
    if not all(isinstance(row, (list, tuple)) and set(map(type, row)) == {float}
               for row in rows):
        return None
    sizes = np.fromiter(map(len, rows), np.intp, len(rows))
    values = np.fromiter(chain.from_iterable(rows), np.float64, int(sizes.sum()))
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    distinct = bits.view(np.float64)
    if not np.isfinite(distinct).all():
        return None  # json writes NaN, Infinity
    table = np.array([float.__repr__(x) for x in distinct.tolist()], dtype=object)
    ends = np.cumsum(sizes).tolist()
    return (sep.join(table[index[end - size:end]].tolist())
            for size, end in zip(sizes.tolist(), ends))


def _json_chunks(value, level=0):
    """The text of ``json.dumps(value, indent=1, sort_keys=True,
    separators=(",", ": "))`` in chunks, one per flat list, matrix row or
    scalar; dict keys must be strings, as every report key is."""
    if isinstance(value, (list, tuple)):
        if not value:
            yield "[]"
            return
        pad = "\n" + " " * (level + 1)
        flat = not any(isinstance(item, (list, tuple, dict)) for item in value)
        rows = None if flat else _float_rows(value, "," + pad + " ")
        if flat:
            yield "[" + pad + json.JSONEncoder(separators=("," + pad, ": ")).encode(value)[1:-1]
        elif rows is not None:
            for k, row in enumerate(rows):
                yield ("," if k else "[") + pad + "[" + pad + " " + row + pad + "]"
        else:
            for k, item in enumerate(value):
                yield ("," if k else "[") + pad
                yield from _json_chunks(item, level + 1)
        yield "\n" + " " * level + "]"
    elif isinstance(value, dict):
        if not value:
            yield "{}"
            return
        pad = "\n" + " " * (level + 1)
        for k, (key, item) in enumerate(sorted(value.items())):
            yield ("," if k else "{") + pad + _json_string(key) + ": "
            yield from _json_chunks(item, level + 1)
        yield "\n" + " " * level + "}"
    else:
        yield json.dumps(value)


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
    args = parser.parse_args(argv)

    try:
        if args.config is None:
            if args.subcommand != "repro-sin":
                raise ConfigError("config: --config is required for this subcommand")
            config = sin_study_config()
        else:
            config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=_seed(args.seed))
            config.raw["seed"] = args.seed
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
