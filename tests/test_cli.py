import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ipmdro import (
    DudleyBall,
    Explicit,
    FisherBall,
    LipschitzBall,
    RkhsBall,
    SobolevBall,
    SupNormBall,
)
from ipmdro.cli import (
    CLASS_VARIANTS,
    SCHEMA_VERSION,
    SUBCOMMANDS,
    _float_rows,
    _json_chunks,
    _jsonable,
    canonical_dict,
    emit_report,
    gaussian_gram,
    load_config,
    main,
    parse_config,
    sin_study_config,
)
from ipmdro.errors import ConfigError, IpmdroError, SizeCapExceeded
from ipmdro import balls
from ipmdro.solvers import DENSE_LP_CAP, LpSolution, LpStatus, lp_problem, solve_lp

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

FIXTURES = {
    "ipm": "ipm.json",
    "penalty": "penalty.json",
    "dro-sup": "dro_sup.json",
    "verify-identity": "verify_identity.json",
    "tightness": "tightness.json",
    "critic-check": "critic_check.json",
    "gan-bound": "gan_bound.json",
    "sweep-eps": "sweep_eps.json",
}


def read_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSubcommandFixtures:
    @pytest.mark.parametrize("subcommand", sorted(FIXTURES))
    def test_fixture_runs_clean(self, subcommand, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [subcommand, "--config", str(CONFIG_DIR / FIXTURES[subcommand]), "--out", str(out)]
        )
        assert rc == 0
        stem = subcommand.replace("-", "_")
        assert (out / f"{stem}.csv").exists()
        payload = json.loads((out / f"{stem}.json").read_text())
        assert payload["subcommand"] == subcommand
        assert payload["rows"]

    def test_verify_identity_fixture_values(self, tmp_path):
        out = tmp_path / "out"
        main(["verify-identity", "--config", str(CONFIG_DIR / FIXTURES["verify-identity"]), "--out", str(out)])
        rows = read_rows(out / "verify_identity.csv")
        assert len(rows) == 1
        assert float(rows[0]["lhs"]) == pytest.approx(1.3, abs=1e-6)
        assert float(rows[0]["residual"]) <= 1e-6

    def test_sweep_produces_grid_rows(self, tmp_path):
        out = tmp_path / "out"
        main(["sweep-eps", "--config", str(CONFIG_DIR / FIXTURES["sweep-eps"]), "--out", str(out)])
        rows = read_rows(out / "sweep_eps.csv")
        assert len(rows) == 20
        assert all(float(r["residual"]) <= 1e-6 for r in rows)

    def test_gan_bound_columns(self, tmp_path):
        out = tmp_path / "out"
        main(["gan-bound", "--config", str(CONFIG_DIR / FIXTURES["gan-bound"]), "--out", str(out)])
        rows = read_rows(out / "gan_bound.csv")
        assert {"robust", "plain", "cap", "slack"} <= set(rows[0])
        assert float(rows[0]["slack"]) >= -1e-7


# per subcommand: the CSV header row, then the JSON witness keys with the
# keys of each witness
REPORT_LAYOUT = {
    "ipm": ("q,p,value", {}),
    "penalty": ("h,eps,theta,j_p,b_star,centered_theta,lambda,lambda_exact",
                {"h:eps=0.3": ["h1", "h2"], "h:eps=1.0": ["h1", "h2"]}),
    "dro-sup": ("h,eps,value,method,gap_estimate",
                {"h:eps=0.3": ["worst_q"], "h:eps=1.0": ["worst_q"]}),
    "verify-identity": ("h,eps,lhs,e_p_h,lambda,residual,exact", {}),
    "tightness": ("eps,samples,max_min_violation,max_subadditivity_violation", {}),
    "critic-check": ("h,eps,lambda,eps_theta,aligned,gap,witness_residual,critic_loss",
                     {"h:eps=1.0": ["witness_mu"]}),
    "gan-bound": ("divergence,eps,robust,plain,cap,slack", {}),
    "sweep-eps": ("h,eps,lhs,e_p_h,lambda,residual,exact", {}),
    "repro-sin": ("eps,eps_lip,lambda_lp,lambda_upper_decomposition,j_p_h1,gap",
                  {"lambda_split": ["h1", "h2"]}),
}


@pytest.mark.parametrize("subcommand", sorted(REPORT_LAYOUT))
def test_report_layout(subcommand, tmp_path):
    """Every subcommand on its bundled config (repro-sin on its built-in
    study) keeps its columns and its witness keys."""
    out = tmp_path / "out"
    config = [] if subcommand == "repro-sin" else [
        "--config", str(CONFIG_DIR / FIXTURES[subcommand])]
    assert main([subcommand, *config, "--out", str(out)]) == 0
    stem = subcommand.replace("-", "_")
    header, witnesses = REPORT_LAYOUT[subcommand]
    assert (out / f"{stem}.csv").read_text().splitlines()[0] == header
    payload = json.loads((out / f"{stem}.json").read_text())
    assert {key: sorted(value) for key, value in payload["witnesses"].items()} == witnesses


class TestReproSin:
    def test_builtin_study(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["repro-sin", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out / "repro_sin.csv")
        row = rows[0]
        assert 2.95 <= float(row["eps_lip"]) <= 3.0
        assert float(row["lambda_lp"]) <= 2.001
        assert float(row["lambda_upper_decomposition"]) <= 2.001
        assert float(row["gap"]) >= 0.9


class TestValidation:
    def test_malformed_metric_row_names_row(self, tmp_path, capsys):
        config = {
            "schema_version": 1,
            "space": {"points": ["a", "b", "c"], "metric": [[0, 1, 2], [1, 0], [2, 1, 0]]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main(["ipm", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "metric row 1" in capsys.readouterr().err

    def test_unknown_tolerance_field(self, tmp_path, capsys):
        config = {
            "schema_version": 1,
            "space": {"points": ["a", "b"]},
            "tolerances": {"no_such_knob": 1.0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main(["ipm", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "unknown field 'tolerances'" in capsys.readouterr().err

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": {"points": ["a"]}}))
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_must_be_the_integer(self, version):
        """True == 1.0 == 1 in Python, so a bare comparison would accept
        either and echo it into every report's config."""
        with pytest.raises(ConfigError, match=rf"^schema_version: expected 1, got {version!r}$"):
            parse_config({"schema_version": version, "space": {"points": ["a"]}})

    def test_bad_distribution_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(
                {
                    "schema_version": 1,
                    "space": {"points": ["a", "b"]},
                    "distributions": {"p": [0.7, 0.7]},
                }
            )

    def test_seed_flag_overrides_config(self, tmp_path):
        out = tmp_path / "out"
        rc = main(
            [
                "tightness",
                "--config",
                str(CONFIG_DIR / FIXTURES["tightness"]),
                "--out",
                str(out),
                "--seed",
                "42",
            ]
        )
        assert rc == 0
        payload = json.loads((out / "tightness.json").read_text())
        assert payload["config"]["seed"] == 42


class TestDeterminismAndRoundTrip:
    def test_reports_byte_identical(self, tmp_path):
        config_path = str(CONFIG_DIR / FIXTURES["verify-identity"])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["verify-identity", "--config", config_path, "--out", str(out1)])
        main(["verify-identity", "--config", config_path, "--out", str(out2)])
        for name in ("verify_identity.csv", "verify_identity.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_config_round_trip_fixed_point(self):
        raw = json.loads((CONFIG_DIR / FIXTURES["gan-bound"]).read_text())
        parsed = parse_config(raw)
        serialized = json.dumps(parsed.to_dict(), sort_keys=True)
        reparsed = parse_config(json.loads(serialized))
        assert reparsed.to_dict() == parsed.to_dict()

    def test_non_finite_numbers_serialize_as_their_repr(self):
        values = [float("inf"), float("-inf"), float("nan"),
                  np.float64("inf"), np.float64("-inf"), np.float64("nan")]
        assert _jsonable({"v": values, "t": (1.5, np.float64(2.5))}) == {
            "v": ["inf", "-inf", "nan"] * 2, "t": [1.5, 2.5]}

    def test_canonical_dict_sorts_keys(self):
        assert list(canonical_dict({"b": 1, "a": 2})) == ["a", "b"]

    @staticmethod
    def list_with(bad, where):
        if where == "mixed":
            return [0, 1.5, bad, 2]
        if where == "nested":
            return [[1.0, 2.0], [3.0, bad]]
        floats = [0.25 * k for k in range(1000)]
        at = {"start": 0, "middle": 500, "end": 999}[where]
        return floats[:at] + [bad] + floats[at + 1:]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("where", ["start", "middle", "end", "mixed", "nested"])
    def test_canonical_dict_refuses_non_finite_numbers(self, bad, where):
        with pytest.raises(ConfigError) as info:
            canonical_dict({"metric": self.list_with(bad, where)})
        assert str(info.value) == f"config: {bad!r} is not a JSON number"

    def test_canonical_dict_keeps_finite_lists_whose_sum_overflows(self):
        data = {"big": [1e308, 1e308], "huge_int": [10**400, 1.0], "mixed": [0, 1.5]}
        assert canonical_dict(data) == data
        assert _jsonable(data["big"]) == [1e308, 1e308]

    def test_seventeen_digit_cells(self, tmp_path):
        out = tmp_path / "out"
        main(["penalty", "--config", str(CONFIG_DIR / FIXTURES["penalty"]), "--out", str(out)])
        rows = read_rows(out / "penalty.csv")
        # 1/3-type values keep full double precision in the table
        lam = float(rows[1]["lambda"])
        assert abs(lam - 5.0 / 6.0) <= 1e-15


json_floats = st.floats() | st.sampled_from([-0.0, 5e-324, 2.2250738585072e-308, 1e308])
json_scalars = (st.none() | st.booleans() | st.integers() | st.integers(2**63, 2**200)
                | json_floats | st.text(alphabet=st.characters(max_codepoint=127)) | st.text())
json_flat_lists = (st.lists(json_floats) | st.lists(st.integers()) | st.lists(st.text())
                   | st.lists(st.integers() | json_floats))
json_values = st.recursive(
    json_scalars | json_flat_lists,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)),
    max_leaves=20)

# Matrices whose entries repeat: plain floats from a small pool, sometimes
# mixed with ints, a bool, a string or non-finite floats; ragged, empty and
# tuple rows.
matrix_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0 / 3.0])
matrix_others = st.sampled_from([0, -7, 2**70, True, "x", float("nan"), float("inf"),
                                 float("-inf")])
matrix_rows = (st.lists(matrix_floats, max_size=6)
               | st.lists(matrix_floats | matrix_others, min_size=1, max_size=6))
matrices = st.lists(matrix_rows | matrix_rows.map(tuple), min_size=1, max_size=8)


def json_dump_text(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)


class TestJsonWriter:
    """The report writer reproduces json.dump(indent=1, sort_keys=True) byte
    for byte."""

    @settings(max_examples=100, deadline=None)
    @given(payload=json_values)
    def test_matches_json_dumps(self, payload):
        assert "".join(_json_chunks(payload)) == json_dump_text(payload)

    @settings(max_examples=200, deadline=None)
    @given(matrix=matrices, depth=st.integers(0, 2))
    @example(matrix=[[0.0, -0.0, 5e-324], (1e308, 0.0, -0.0)], depth=1)
    def test_matrix_with_repeated_floats_matches_json_dumps(self, matrix, depth):
        payload = matrix
        for _ in range(depth):
            payload = {"m": [payload]}
        assert "".join(_json_chunks(payload)) == json_dump_text(payload)
        tabled = all(row and all(type(x) is float and math.isfinite(x) for x in row)
                     for row in matrix)
        assert (_float_rows(matrix, ",") is not None) == tabled

    @pytest.mark.parametrize("subcommand", sorted(REPORT_LAYOUT))
    def test_report_matches_json_dump(self, subcommand, tmp_path):
        if subcommand == "repro-sin":
            config = sin_study_config()
        else:
            config = load_config(CONFIG_DIR / FIXTURES[subcommand])
        rows, witnesses = SUBCOMMANDS[subcommand](config)
        json_path = emit_report(subcommand, rows, witnesses, config, tmp_path)[1]
        payload = {"schema_version": SCHEMA_VERSION, "subcommand": subcommand,
                   "config": config.to_dict(), "rows": _jsonable(rows),
                   "witnesses": _jsonable(witnesses)}
        assert json_path.read_text(encoding="utf-8") == json_dump_text(payload) + "\n"


class TestGaussianGram:
    def test_positive_definite_on_line(self):
        t = np.linspace(0.0, 1.0, 5)
        from ipmdro import RkhsBall, make_space

        space = make_space([str(i) for i in range(5)], metric=np.abs(t[:, None] - t[None, :]))
        gram = gaussian_gram(space, 0.5)
        ball = RkhsBall(space, gram=gram)  # construction checks min eigenvalue
        assert ball.gram.shape == (5, 5)
        assert gram[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_requires_metric(self):
        from ipmdro import make_space

        space = make_space(["a", "b"])
        with pytest.raises(ConfigError):
            gaussian_gram(space, 0.5)


class TestSinStudyConfig:
    def test_reference_distribution_is_normalized_gaussian(self):
        config = sin_study_config()
        weights = config.distribution("p").weights
        assert abs(weights.sum() - 1.0) <= 1e-12
        t = np.linspace(-4.0, 4.0, 201)
        expected = np.exp(-(t**2) / 2.0)
        expected /= expected.sum()
        assert np.allclose(weights, expected, atol=1e-15)


def line_config(n, **overrides):
    t = np.linspace(0.0, 1.0, n)
    config = {
        "schema_version": 1,
        "space": {"points": [f"x{i}" for i in range(n)],
                  "metric": np.abs(t[:, None] - t[None, :]).tolist(),
                  "graph": [[i, i + 1, 1.0] for i in range(n - 1)]
                  + [[i + 1, i, 1.0] for i in range(n - 1)]},
        "distributions": {"p": [1.0 / n] * n, "mu": [1.0 / n] * n,
                          "z": [0.0] + [1.0 / (n - 1)] * (n - 1)},
        "functions": {"h": t.tolist(), "g": (1.0 - t).tolist()},
        "function_class": {"variant": "lipschitz_ball"},
        "epsilon": 0.1,
        "p": "p",
        "h": "h",
        "pairs": [["p", "p"]],
    }
    config.update(overrides)
    return config


def euclid_config(n, **overrides):
    """A Lipschitz-ball config on n random points of the unit square, which is
    no path metric, so every one of the n(n-1)/2 pairs is a Lipschitz pair."""
    x = np.random.default_rng(0).uniform(size=(n, 2))
    config = line_config(n, **overrides)
    config["space"] = {"points": config["space"]["points"],
                       "metric": np.linalg.norm(x[:, None] - x[None, :], axis=2).tolist()}
    return config


def with_space(**fields):
    return line_config(3, space={"points": ["x0", "x1", "x2"], **fields})


FISHER_Z = {"variant": "fisher_ball", "mu": "z"}


def sin_config(epsilon):
    """A 3-point repro-sin config with the functions h and h1; no epsilon
    field when ``epsilon`` is None."""
    config = line_config(3, functions={"h": [0.0, 1.0, 0.0], "h1": [0.0, 0.5, 0.0]},
                         epsilon=epsilon)
    if epsilon is None:
        del config["epsilon"]
    return config


class TestBadInputExitsCleanly:
    CASES = {
        # 72 * 71 flow columns (penalty rows) are more than the dense LP supports
        "dense-cap-ipm": ("ipm", euclid_config(72), "at most 5000 variables"),
        "dense-cap-penalty": (
            "penalty", euclid_config(72, function_class={"variant": "dudley_ball"}),
            "at most 5000 variables"),
        "points-not-list": ("ipm", line_config(3, space={"points": 3}), "space.points: "),
        "points-string": ("ipm", line_config(3, space={"points": "abc"}), "space.points: "),
        "metric-not-list": ("ipm", with_space(metric=3), "space.metric: "),
        "graph-not-list": ("ipm", with_space(graph=3), "space.graph: "),
        "graph-endpoint-not-integer": (
            "ipm", with_space(graph=[[0.5, 1, 1.0]]), "space.graph edge 0: "),
        "distributions-not-object": (
            "ipm", line_config(3, distributions=[["p", [0.5, 0.5, 0.0]]]), "distributions: "),
        "functions-not-object": ("penalty", line_config(3, functions=3), "functions: "),
        "pairs-entry-malformed": ("ipm", line_config(3, pairs=[["a"]]), "pairs entry 0: "),
        "pairs-not-list": ("ipm", line_config(3, pairs="pp"), "pairs: "),
        "h-not-list": ("dro-sup", line_config(3, h=3), "h: "),
        "discriminators-not-list": (
            "gan-bound", line_config(3, discriminators=3, mu="mu", divergence="kl"),
            "discriminators: "),
        "divergence-not-name": (
            "gan-bound", line_config(3, discriminators=["h"], mu="mu", divergence=["kl"]),
            "divergence: "),
        "p-list": ("dro-sup", line_config(3, p=["p"]), "p: "),
        "mu-list": ("gan-bound", line_config(3, mu=["mu"]), "mu: "),
        "samples-zero": ("tightness", line_config(3, samples=0), "samples: "),
        "samples-fraction": ("tightness", line_config(3, samples=1.5), "samples: "),
        "seed-fraction": ("penalty", line_config(3, seed=2.7), "seed: "),
        "epsilon-bool": ("dro-sup", line_config(3, epsilon=True), "epsilon: "),
        "distribution-entry-bool": (
            "ipm", line_config(3, distributions={"p": [True, False, False]}), "distributions.p: "),
        "function-entry-string": (
            "penalty", line_config(3, functions={"h": ["0", "1", "2"]}), "functions.h: "),
        "epsilon-nan": ("dro-sup", line_config(3, epsilon=float("nan")), "epsilon: "),
        # a repeated label, name or radius would make rows or diagnostics ambiguous
        "point-label-repeated": (
            "ipm", with_space(points=[1, "1", "x2"]), "space: repeated point label '1'"),
        "h-repeated": ("penalty", line_config(3, h=["h", "h"]), "h: repeats the name 'h'"),
        "epsilon-repeated": (
            "penalty", line_config(3, epsilon=[0.1, 0.1]), "epsilon: repeats the radius 0.1"),
        "epsilon-grid-repeated": (
            "sweep-eps", line_config(3, epsilon={"start": 0.5, "stop": 0.5, "count": 3}),
            "epsilon: repeats the radius 0.5"),
        "penalty-no-h": (
            "penalty", line_config(3, h=[]),
            "h/epsilon: penalty needs function names and epsilons"),
        "penalty-no-epsilon": (
            "penalty", line_config(3, epsilon=[]),
            "h/epsilon: penalty needs function names and epsilons"),
        "critic-check-no-h": (
            "critic-check", line_config(3, h=[]),
            "h/epsilon: critic-check needs function names and epsilons"),
        "verify-identity-no-epsilon": (
            "verify-identity", line_config(3, epsilon=[]),
            "h/epsilon: identity checks need function names and epsilons"),
        # json.load reads NaN and Infinity, which JSON has not
        "point-label-nan": (
            "ipm", with_space(points=[float("nan"), "x1", "x2"]),
            "config: nan is not a JSON number"),
        "class-field-infinite": (
            "penalty",
            line_config(3, function_class={"variant": "rkhs_ball", "gaussian_bandwidth": float("inf")}),
            "config: inf is not a JSON number"),
        "epsilon-count-fraction": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": 2.7}),
            "epsilon.count: "),
        "epsilon-count-bool": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": True}),
            "epsilon.count: "),
        "epsilon-count-string": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": "3"}),
            "epsilon.count: "),
        "epsilon-start-bool": (
            "sweep-eps", line_config(3, epsilon={"start": True, "stop": 0.5, "count": 3}),
            "epsilon.start: "),
        "epsilon-stop-string": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": "0.5", "count": 3}),
            "epsilon.stop: "),
        "seed-string": ("penalty", line_config(3, seed="3"), "seed: "),
        "rkhs-bandwidth-string": (
            "penalty",
            line_config(3, function_class={"variant": "rkhs_ball", "gaussian_bandwidth": "wide"}),
            "function_class.gaussian_bandwidth: "),
        "rkhs-gram-not-list": (
            "penalty", line_config(3, function_class={"variant": "rkhs_ball", "gram": 5}),
            "function_class.gram: "),
        "members-string": (
            "penalty", line_config(3, function_class={"variant": "explicit", "members": "hg"}),
            "function_class.members: "),
        "class-mu-list": (
            "penalty", line_config(3, function_class={**FISHER_Z, "mu": ["z"]}),
            "function_class.mu: "),
        "allow-zero-mass-string": (
            "penalty", line_config(3, function_class={**FISHER_Z, "allow_zero_mass": "false"}),
            "function_class.allow_zero_mass: "),
        "seed-not-integer": ("penalty", line_config(3, seed="abc"), "seed: "),
        # numpy's generators refuse a negative seed; so does the config and --seed
        "seed-negative": ("tightness", line_config(3, seed=-1), "seed: must be non-negative"),
        "seed-override-negative": (
            "tightness", line_config(3), "seed: must be non-negative", "--seed", "-1"),
        "samples-not-integer": ("tightness", line_config(3, samples="many"), "samples: "),
        "sample-typo": ("tightness", line_config(3, sample=5), "config: unknown field 'sample'"),
        "class-not-object": (
            "penalty", line_config(3, function_class="sup_norm_ball"), "function_class: "),
        # an integer too large for a float is refused where it is read
        "function-entry-overflow": (
            "penalty", line_config(3, functions={"h": [10**400, 1, 2]}), "functions.h: "),
        "epsilon-overflow": ("penalty", line_config(3, epsilon=10**400), "epsilon: "),
        "epsilon-start-overflow": (
            "sweep-eps", line_config(3, epsilon={"start": 10**400, "stop": 0.5, "count": 3}),
            "epsilon.start: "),
        "rkhs-bandwidth-overflow": (
            "penalty",
            line_config(3, function_class={"variant": "rkhs_ball", "gaussian_bandwidth": 10**400}),
            "function_class.gaussian_bandwidth: "),
        "graph-endpoint-overflow": (
            "ipm", with_space(graph=[[0, 10**400, 1.0]]), "space.graph edge 0: "),
        "epsilon-count-overflow": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": 10**400}),
            "epsilon.count: "),
        "epsilon-count-past-index-range": (
            "sweep-eps", line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": 2**63}),
            "epsilon.count: "),
        # a key that no reader knows is a typo or a field of another form
        "space-key-typo": (
            "ipm", with_space(metrc=[[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]]),
            "space: unknown field 'metrc'"),
        "epsilon-grid-key-unknown": (
            "sweep-eps",
            line_config(3, epsilon={"start": 0.1, "stop": 0.5, "count": 3, "endpoint": False}),
            "epsilon: unknown field 'endpoint'"),
        "class-key-typo": (
            "penalty",
            line_config(3, function_class={"variant": "fisher_ball", "allow_zero_mas": True}),
            "function_class: unknown field 'allow_zero_mas'"),
        "class-key-of-another-variant": (
            "penalty", line_config(3, function_class={"variant": "dudley_ball", "mu": "mu"}),
            "function_class: unknown field 'mu'"),
        "rkhs-gram-and-bandwidth": (
            "penalty",
            line_config(3, function_class={"variant": "rkhs_ball", "gaussian_bandwidth": 0.5,
                                           "gram": (np.eye(3) + 0.25).tolist()}),
            "function_class: rkhs_ball takes gram or gaussian_bandwidth, not both"),
        "repro-sin-no-epsilon": (
            "repro-sin", sin_config(epsilon=None), "epsilon: repro-sin needs exactly one radius"),
        "repro-sin-two-radii": (
            "repro-sin", sin_config(epsilon=[0.5, 1.0]),
            "epsilon: repro-sin needs exactly one radius"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_two_with_message(self, case, tmp_path, capsys):
        subcommand, config, needle, *flags = self.CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out"), *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ipmdro: ") and needle in err

    def test_unusable_lp_status_exits_three(self, tmp_path, capsys, monkeypatch):
        unbounded = LpSolution(LpStatus.UNBOUNDED, None, None, None, None)
        monkeypatch.setattr(balls, "solve_lp", lambda problem: unbounded)
        path = tmp_path / "penalty.json"
        path.write_text(json.dumps(line_config(3, function_class={"variant": "dudley_ball"})))
        rc = main(["penalty", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "numerical breakdown: penalty LP" in capsys.readouterr().err

    def test_lipschitz_worst_case_runs_past_the_dense_cap(self, tmp_path):
        """The Lipschitz worst case builds no LP, so the config whose flow LPs
        the dense cap refuses runs through ``dro-sup``."""
        path = tmp_path / "euclid.json"
        path.write_text(json.dumps(euclid_config(72)))
        out = tmp_path / "out"
        assert main(["dro-sup", "--config", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "dro_sup.csv")
        assert [row["method"] for row in rows] == ["transport_dual"]

    def test_dudley_worst_case_runs_past_the_dense_cap(self, tmp_path):
        """The Dudley worst case, once a flow LP refused here, searches the
        transport dual with a total-variation drain."""
        path = tmp_path / "euclid.json"
        path.write_text(json.dumps(euclid_config(72, function_class={"variant": "dudley_ball"})))
        out = tmp_path / "out"
        assert main(["dro-sup", "--config", str(path), "--out", str(out)]) == 0
        rows = read_rows(out / "dro_sup.csv")
        assert [row["method"] for row in rows] == ["transport_dual"]

    def test_dense_cap_is_a_package_error_and_a_value_error(self):
        problem = lp_problem(np.zeros(DENSE_LP_CAP + 1))
        with pytest.raises(SizeCapExceeded) as info:
            solve_lp(problem)
        assert isinstance(info.value, IpmdroError) and isinstance(info.value, ValueError)


class TestSizeSweep:
    """The CLI at the top of the north-star size sweep: 400 Euclidean points,
    whose metric, witnesses and report run to 160,000 numbers."""

    N = 400

    @pytest.fixture(scope="class")
    def config_path(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("euclid") / "euclid.json"
        path.write_text(json.dumps(euclid_config(self.N)))
        return path

    def test_penalty_witnesses_cover_every_point(self, config_path, tmp_path):
        assert main(["penalty", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        witnesses = json.loads((tmp_path / "penalty.json").read_text())["witnesses"]
        assert witnesses
        for split in witnesses.values():
            assert [len(split["h1"]), len(split["h2"])] == [self.N, self.N]

    def test_verify_identity_closes(self, config_path, tmp_path):
        assert main(["verify-identity", "--config", str(config_path),
                     "--out", str(tmp_path)]) == 0
        rows = read_rows(tmp_path / "verify_identity.csv")
        assert rows and all(float(row["residual"]) <= 1e-6 for row in rows)


class TestClassBuilders:
    def build(self, spec):
        return parse_config(line_config(4, function_class=spec)).function_class()

    def test_every_variant_name_builds(self):
        built = {
            "explicit": self.build({"variant": "explicit", "members": ["h", "g"]}),
            "lipschitz_ball": self.build({"variant": "lipschitz_ball"}),
            "sup_norm_ball": self.build({"variant": "sup_norm_ball"}),
            "dudley_ball": self.build({"variant": "dudley_ball"}),
            "rkhs_ball": self.build({"variant": "rkhs_ball", "gaussian_bandwidth": 0.5}),
            "fisher_ball": self.build({"variant": "fisher_ball"}),
            "sobolev_ball": self.build({"variant": "sobolev_ball"}),
        }
        assert set(built) == set(CLASS_VARIANTS)
        expected = {
            "explicit": Explicit, "lipschitz_ball": LipschitzBall,
            "sup_norm_ball": SupNormBall, "dudley_ball": DudleyBall,
            "rkhs_ball": RkhsBall, "fisher_ball": FisherBall,
            "sobolev_ball": SobolevBall,
        }
        for name, cls in built.items():
            assert type(cls) is expected[name]
        assert built["explicit"].size == 2

    def test_rkhs_gram_inline_and_from_bandwidth(self):
        gram = (np.eye(4) + 0.25).tolist()
        inline = self.build({"variant": "rkhs_ball", "gram": gram})
        assert np.array_equal(inline.gram, np.array(gram))
        config = parse_config(line_config(4))
        from_bandwidth = self.build({"variant": "rkhs_ball", "gaussian_bandwidth": 0.5})
        assert np.array_equal(from_bandwidth.gram, gaussian_gram(config.space, 0.5))
        with pytest.raises(ConfigError, match="gram or gaussian_bandwidth"):
            self.build({"variant": "rkhs_ball"})

    @pytest.mark.parametrize("variant", ["fisher_ball", "sobolev_ball"])
    def test_mu_and_zero_mass_opt_in(self, variant):
        ball = self.build({"variant": variant})
        assert np.array_equal(ball.mu.weights, np.full(4, 0.25))
        assert not ball.allow_zero_mass
        ball = self.build({"variant": variant, "mu": "z", "allow_zero_mass": True})
        assert ball.mu.weights[0] == 0.0
        assert ball.allow_zero_mass
        with pytest.raises(IpmdroError):
            self.build({"variant": variant, "mu": "z"})

    def test_unknown_variant_lists_the_valid_names(self):
        with pytest.raises(ConfigError) as info:
            self.build({"variant": "sobolev"})
        for name in CLASS_VARIANTS:
            assert repr(name) in str(info.value)
