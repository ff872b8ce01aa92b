import json
from pathlib import Path

import numpy as np
import pytest

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
    canonical_dict,
    gaussian_gram,
    load_config,
    main,
    parse_config,
    sin_study_config,
)
from ipmdro.errors import ConfigError, IpmdroError, SizeCapExceeded
from ipmdro.solvers import DENSE_LP_CAP, lp_problem, solve_lp

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

    def test_unknown_tolerance_field(self, tmp_path):
        config = {
            "schema_version": 1,
            "space": {"points": ["a", "b"]},
            "tolerances": {"no_such_knob": 1.0},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main(["ipm", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_missing_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"space": {"points": ["a"]}}))
        with pytest.raises(ConfigError):
            load_config(path)

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

    def test_canonical_dict_sorts_keys(self):
        assert list(canonical_dict({"b": 1, "a": 2})) == ["a", "b"]

    def test_seventeen_digit_cells(self, tmp_path):
        out = tmp_path / "out"
        main(["penalty", "--config", str(CONFIG_DIR / FIXTURES["penalty"]), "--out", str(out)])
        rows = read_rows(out / "penalty.csv")
        # 1/3-type values keep full double precision in the table
        lam = float(rows[1]["lambda"])
        assert abs(lam - 5.0 / 6.0) <= 1e-15


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


class TestBadInputExitsCleanly:
    CASES = {
        "transport-cap-ipm": ("ipm", line_config(61), "at most 60 points"),
        "coupling-cap-dro-sup": ("dro-sup", line_config(61), "at most 60 points"),
        "seed-not-integer": ("penalty", line_config(3, seed="abc"), "seed: "),
        "samples-not-integer": ("tightness", line_config(3, samples="many"), "samples: "),
        "tolerance-not-number": (
            "penalty", line_config(3, tolerances={"lp_pivot": "tiny"}), "tolerances.lp_pivot: "),
        "tolerance-not-integer": (
            "penalty", line_config(3, tolerances={"lp_max_iterations": 1.5}),
            "tolerances.lp_max_iterations: "),
        "class-not-object": (
            "penalty", line_config(3, function_class="sup_norm_ball"), "function_class: "),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exit_code_two_with_message(self, case, tmp_path, capsys):
        subcommand, config, needle = self.CASES[case]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        rc = main([subcommand, "--config", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("ipmdro: ") and needle in err

    def test_dense_cap_is_a_package_error_and_a_value_error(self):
        problem = lp_problem(np.zeros(DENSE_LP_CAP + 1))
        with pytest.raises(SizeCapExceeded) as info:
            solve_lp(problem)
        assert isinstance(info.value, IpmdroError) and isinstance(info.value, ValueError)


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
