import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import subspace_bandits.harness as harness
from subspace_bandits.domain import DomainSpec
from subspace_bandits.errors import ConfigError, NotInHull, SubspaceBanditError
from subspace_bandits.harness import (
    CSV_HEADER,
    ExperimentConfig,
    cli_main,
    config_from_dict,
    emit_csv,
    marginal_identity_check,
    parse_csv,
    parse_dist_ref,
    run_sweep,
    run_trial,
)
from subspace_bandits.evaluation import excess_loss
from subspace_bandits.learners import (
    LearnerConfig,
    bandit_pca,
    full_info_pca,
    mbeg,
    mbeg_min_budget,
    mbgd,
)
from subspace_bandits.oracles import (
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    exact_moments,
    impossibility_fixture,
    load_distribution,
    make_finite_support,
    sample_instances,
    save_distribution,
    to_jsonable,
)
from subspace_bandits.seeding import make_rng, mix64, splitmix64
from util import scalar_marginal_mc_deviation


def point_mass_config(**overrides):
    domain = DomainSpec(d=3, k=1, r=2, G=1.0)
    x = np.zeros(3)
    x[0] = 1.0
    dist = make_finite_support([(x, 1.0)], domain, tag="pointmass")
    kwargs = dict(
        domain=domain,
        distribution=dist,
        algo="pca",
        m_values=(1,),
        trials=1,
        base_seed=7,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestSeeding:
    def test_splitmix64_reference_vector(self):
        # first output of the reference splitmix64 stream seeded with 0
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_mix64_frozen_values(self):
        assert mix64(7, 6400, 0) == 6942076399740123142
        assert mix64(7, 6400, 1) == 10309545802553906429

    def test_mix64_order_sensitive(self):
        assert mix64(1, 2) != mix64(2, 1)

    def test_adding_sweep_points_preserves_existing_seeds(self):
        seeds_before = [mix64(7, m, t) for m in (100, 200) for t in range(3)]
        seeds_after = [mix64(7, m, t) for m in (100, 200, 400) for t in range(3)]
        assert seeds_after[:6] == seeds_before


class TestExperimentConfig:
    def test_mbeg_rejects_wrong_budget(self):
        domain = DomainSpec(d=4, k=1, r=4, G=1.0)
        dist = dyadic_fixture(4, s=0, eps=0.2, c=4.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(
                domain=domain,
                distribution=dist,
                algo="mbeg",
                m_values=(600,),
                trials=1,
                base_seed=0,
            )

    def test_mbeg_rejects_budget_below_alpha_floor(self):
        domain = DomainSpec(d=4, k=1, r=2, G=1.0)
        dist = dyadic_fixture(4, s=0, eps=0.2, c=4.0)
        with pytest.raises(ConfigError, match="alpha"):
            ExperimentConfig(
                domain=domain,
                distribution=dist,
                algo="mbeg",
                m_values=(10,),
                trials=1,
                base_seed=0,
            )

    def test_unknown_algo(self):
        with pytest.raises(ConfigError):
            point_mass_config(algo="oja")

    def test_empty_m_values(self):
        with pytest.raises(ConfigError):
            point_mass_config(m_values=())

    @pytest.mark.parametrize("algo", harness.ALGORITHMS)
    def test_a_zero_budget_is_refused_by_the_learner_config(self, algo):
        with pytest.raises(ConfigError, match="sample budget needs m >= 1, got 0"):
            point_mass_config(algo=algo, m_values=(600, 0))

    @pytest.mark.parametrize("algo", ["bandit-pca", "mbgd"])
    def test_an_odd_budget_is_refused_by_the_split_half_check(self, algo):
        domain = DomainSpec(d=3, k=1, r=3, G=1.0)
        dist = make_finite_support([(np.eye(3)[0], 1.0)], domain, tag="pointmass")
        with pytest.raises(ConfigError, match="even budget r >= 2, got r=3"):
            point_mass_config(algo=algo, domain=domain, distribution=dist)

    def test_distribution_domain_mismatch(self):
        with pytest.raises(ConfigError):
            point_mass_config(distribution=dyadic_fixture(5, s=0, eps=0.2, c=4.0))

    @pytest.mark.parametrize("overrides", [
        {"eta_override": -1.0}, {"eta_override": 0.0}, {"eta_override": math.nan},
        {"eta_override": math.inf},
        {"alpha_override": 0.0}, {"alpha_override": 0.7}, {"alpha_override": -0.1},
    ])
    def test_bad_overrides_are_config_errors(self, overrides):
        with pytest.raises(ConfigError, match="override"):
            point_mass_config(**overrides)

    def test_boundary_overrides_accepted(self):
        cfg = point_mass_config(eta_override=1e-9, alpha_override=0.5)
        assert (cfg.eta_override, cfg.alpha_override) == (1e-9, 0.5)

    def test_incompatible_norm_bound(self):
        # support point norm exceeds the domain's G
        domain = DomainSpec(d=4, k=1, r=2, G=0.5)
        with pytest.raises(ConfigError):
            point_mass_config(
                domain=domain, distribution=dyadic_fixture(4, s=0, eps=0.2, c=4.0)
            )


class TestRunTrial:
    def test_pca_point_mass_zero_excess(self):
        rec = run_trial(point_mass_config(), m=1, trial_index=0)
        assert rec.error is None
        assert rec.excess_loss == 0.0
        assert rec.seed == mix64(7, 1, 0)

    def test_replay_is_bit_identical(self):
        cfg = point_mass_config(algo="mbgd", m_values=(50,))
        a = run_trial(cfg, m=50, trial_index=3)
        b = run_trial(cfg, m=50, trial_index=3)
        assert (a.excess_loss, a.loss, a.seed) == (b.excess_loss, b.loss, b.seed)

    @pytest.mark.parametrize("algo,m", [("pca", 300), ("mbgd", 300), ("bandit-pca", 300),
                                        ("mbeg", 710)])
    def test_record_matches_fresh_evaluation(self, algo, m):
        # the per-distribution cached moments give the same floats as fresh ones
        domain = DomainSpec(d=8, k=2, r=2, G=1.0)
        dist = coin_fixture(8, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 1.0))
        cfg = ExperimentConfig(domain=domain, distribution=dist, algo=algo, m_values=(m,),
                               trials=2, base_seed=11)
        for t in range(2):
            rec = run_trial(cfg, m=m, trial_index=t)
            lcfg = LearnerConfig(spec=domain, m=m, seed=rec.seed)
            if algo == "pca":
                pi = full_info_pca(sample_instances(dist, m, make_rng(rec.seed)), domain.k)
            else:
                pi = {"mbgd": mbgd, "bandit-pca": bandit_pca, "mbeg": mbeg}[algo](dist, lcfg)
            report = excess_loss(pi, exact_moments(dist), domain.k)
            assert rec.error is None
            assert (rec.loss, rec.excess_loss) == (report.loss, report.excess)

    def test_mbgd_trial_eigendecomposes_once(self, linalg_calls):
        # After the distribution's first trial has cached C's eigensystem, an
        # mbgd trial eigendecomposes W_end once: the rounding and the
        # evaluation reuse what is already known.
        domain = DomainSpec(d=8, k=2, r=2, G=2.0)
        dist = coin_fixture(8, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 2.0))
        cfg = ExperimentConfig(domain=domain, distribution=dist, algo="mbgd", m_values=(300,),
                               trials=2, base_seed=11)
        assert run_trial(cfg, m=300, trial_index=0).error is None
        linalg_calls.clear()
        assert run_trial(cfg, m=300, trial_index=1).error is None
        assert [name for name, _ in linalg_calls] == ["eigh"]

    def test_learner_failure_becomes_failed_record(self, monkeypatch):
        cfg = point_mass_config(algo="mbgd", m_values=(10,))

        def boom(*args, **kwargs):
            raise SubspaceBanditError("injected failure")

        monkeypatch.setattr(harness, "mbgd", boom)
        rec = run_trial(cfg, m=10, trial_index=0)
        assert rec.error is not None and "injected" in rec.error
        assert math.isnan(rec.excess_loss)


class TestRunSweep:
    def test_record_grid_and_order(self):
        cfg = point_mass_config(algo="mbgd", m_values=(20, 10), trials=3)
        records = run_sweep(cfg)
        assert len(records) == 6
        assert [(r.m, r.trial) for r in records] == [
            (10, 0), (10, 1), (10, 2), (20, 0), (20, 1), (20, 2),
        ]

    def test_serial_vs_parallel_identical(self):
        cfg = point_mass_config(algo="mbgd", m_values=(30, 60), trials=4)
        serial = run_sweep(cfg)
        parallel = run_sweep(cfg, workers=2)
        assert [r.excess_loss for r in serial] == [r.excess_loss for r in parallel]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    def test_median_excess_monotone_in_budget(self):
        # statistical: across a 4-point sweep the median excess should not
        # increase with m, up to one tolerated inversion
        domain = DomainSpec(d=8, k=1, r=2, G=1.0)
        cfg = ExperimentConfig(
            domain=domain,
            distribution=dyadic_fixture(8, s=2, eps=0.25, c=4.0),
            algo="mbgd",
            m_values=(50, 200, 800, 3200),
            trials=15,
            base_seed=13,
        )
        records = run_sweep(cfg)
        medians = [
            float(np.median([r.excess_loss for r in records if r.m == m]))
            for m in cfg.m_values
        ]
        inversions = sum(1 for a, b in zip(medians, medians[1:]) if b > a + 1e-12)
        assert inversions <= 1, medians


def _dyadic_sweep(algo, d, r, m, trials, seed=3):
    return ExperimentConfig(
        domain=DomainSpec(d=d, k=1, r=r, G=1.0),
        distribution=dyadic_fixture(d, s=3, eps=0.25, c=4.0),
        algo=algo, m_values=(m,), trials=trials, base_seed=seed,
    )


# Axis-aligned sweeps: every matrix one of their trials diagonalises is
# diagonal, so the replayed bytes do not depend on LAPACK's rounding.
REPLAY_SWEEPS = {
    # the benchmark's split-half cells, 2 trials each
    "split-half": lambda: [
        _dyadic_sweep(algo, 10, r, 6400, 2) for algo in ("mbgd", "bandit-pca") for r in (2, 4)
    ],
    # mbeg at d=16 and the default budget
    "mbeg-d16": lambda: [
        _dyadic_sweep("mbeg", 16, 2, mbeg_min_budget(DomainSpec(d=16, k=1, r=2, G=1.0)), 2)
    ],
    "dyadic-demo": lambda: [harness.dyadic_demo_config(trials=20)],
}
# sha256 over "m,trial,seed,excess_loss.hex()" lines.  A change to the order
# in which draws are consumed changes these; it must update them together
# with the README and CHANGES.md.
REPLAY_DIGESTS = {
    "split-half": "81c7e85ed6b528054e84bf4a1058fa42aebed5584b1432431b2dfdd0266614c8",
    "mbeg-d16": "239e8513aeef6fab9876948b7230d1c84acf560f561bedea9278058495884128",
    "dyadic-demo": "55879df58e583a86a66bae1b70e7b44aa2f34e7d126b9aaff1967d2f3b263d8f",
}


# sha256 over each pinned trial's traced ``indices`` and ``values`` columns:
# an "m,trial,seed,dtype,shape" line, then the column's bytes.  On these
# axis-aligned sweeps the columns depend only on the stream and the oracle,
# so any change to draw order moves them even where every excess is 0.
REPLAY_DRAW_DIGESTS = {
    "split-half": "db72f981698dc3ff2a034c10a9d50aa6869579f735a3141b7edda7764bf6ea85",
    "mbeg-d16": "2150ce58c055a05c805100f589fae8c01f0fa7e4621ed2541c5474a9311a6f8c",
    "dyadic-demo": "960413a768a767c53bca0699b7ef7d6e1f19b38038615b535c7d640b979fc3bf",
}
TRACED_LEARNERS = {"mbgd": mbgd, "bandit-pca": bandit_pca, "mbeg": mbeg}


class TestReplayPin:
    @pytest.mark.parametrize("name", list(REPLAY_SWEEPS))
    def test_replay_bytes_are_pinned(self, name):
        h = hashlib.sha256()
        for cfg in REPLAY_SWEEPS[name]():
            for rec in run_sweep(cfg):
                assert rec.error is None, rec.error
                h.update(f"{rec.m},{rec.trial},{rec.seed},{rec.excess_loss.hex()}\n".encode())
        assert h.hexdigest() == REPLAY_DIGESTS[name]

    @pytest.mark.parametrize("name", list(REPLAY_SWEEPS))
    def test_drawn_columns_are_pinned(self, name):
        h = hashlib.sha256()
        for cfg in REPLAY_SWEEPS[name]():
            learner = TRACED_LEARNERS[cfg.algo]
            for m in cfg.m_values:
                for t in range(cfg.trials):
                    seed = mix64(cfg.base_seed, m, t)  # run_trial's seed
                    lcfg = LearnerConfig(cfg.domain, m, cfg.eta_override, cfg.alpha_override, seed)
                    _, trace = learner(cfg.distribution, lcfg, return_trace=True)
                    for col in (trace.indices, trace.values):
                        h.update(f"{m},{t},{seed},{col.dtype.str},{col.shape}\n".encode())
                        h.update(col.tobytes())
        assert h.hexdigest() == REPLAY_DRAW_DIGESTS[name]


class TestCsv:
    def test_header_is_the_column_contract(self):
        # the columns derive from TrialRecord; a new field must not change them silently
        assert CSV_HEADER == "algo,d,k,r,G,m,trial,seed,excess_loss,loss,wall_ms"

    def test_failed_trial_nan_row_round_trips(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SubspaceBanditError("injected failure")

        monkeypatch.setattr(harness, "mbgd", boom)
        rec = run_trial(point_mass_config(algo="mbgd", m_values=(10,)), m=10, trial_index=0)
        assert rec.error is not None
        path = tmp_path / "failed.csv"
        emit_csv([rec], path)
        assert path.read_text().splitlines()[1].split(",")[8:10] == ["nan", "nan"]
        (back,) = parse_csv(path)
        assert math.isnan(back.excess_loss) and math.isnan(back.loss)
        assert back.error is None
        assert (back.algo, back.d, back.k, back.r, back.G, back.m, back.trial, back.seed,
                back.wall_ms) == (rec.algo, rec.d, rec.k, rec.r, rec.G, rec.m, rec.trial,
                                  rec.seed, rec.wall_ms)

    def test_row_with_wrong_column_count_is_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(CSV_HEADER + "\nmbgd,3,1,2,1,10,0,5,0,0\n")
        with pytest.raises(ValueError):
            parse_csv(path)

    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path):
        rec = run_trial(point_mass_config(), m=1, trial_index=0)
        path = tmp_path / "one.csv"
        emit_csv([rec], path)
        assert len(path.read_text().splitlines()) == 2

    def test_round_trip_exact(self, tmp_path):
        cfg = point_mass_config(algo="mbgd", m_values=(25,), trials=3)
        records = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        emit_csv(records, path)
        back = parse_csv(path)
        for orig, parsed in zip(records, back):
            assert orig.algo == parsed.algo
            assert (orig.d, orig.k, orig.r, orig.m, orig.trial, orig.seed) == (
                parsed.d, parsed.k, parsed.r, parsed.m, parsed.trial, parsed.seed,
            )
            assert orig.G == parsed.G
            assert orig.excess_loss == parsed.excess_loss
            assert orig.loss == parsed.loss
            assert orig.wall_ms == parsed.wall_ms


class TestConfigParsing:
    def test_dist_refs(self):
        assert parse_dist_ref("dyadic:s=2,eps=0.1,c=4", 6, 2, 1.0).tag.startswith("dyadic")
        assert parse_dist_ref("impossibility:s=1", 6, 2, 1.0).tag.startswith("impossibility")
        assert parse_dist_ref("coin:alpha=0.4,b=+-", 6, 2, 1.0).coin is not None
        assert parse_dist_ref("pointmass:coord=3", 6, 2, 1.0).points[0][3] == 1.0

    def test_coin_signs_are_plus_and_minus_only(self):
        assert list(parse_dist_ref("coin:alpha=0.4,b=+-", 4, 2, 1.0).coin.signs) == [1, -1]
        with pytest.raises(ConfigError, match="'\\+x'"):
            parse_dist_ref("coin:alpha=0.4,b=+x", 4, 2, 1.0)

    @pytest.mark.parametrize("coord", [-1, 4, 9])
    def test_pointmass_coordinate_outside_the_domain(self, coord):
        with pytest.raises(ConfigError, match="outside"):
            parse_dist_ref(f"pointmass:coord={coord}", 4, 1, 1.0)

    def test_dist_ref_errors(self):
        with pytest.raises(ConfigError):
            parse_dist_ref("dyadic:s=2", 6, 2, 1.0)  # missing eps
        with pytest.raises(ConfigError):
            parse_dist_ref("mystery:x=1", 6, 2, 1.0)
        with pytest.raises(ConfigError):
            parse_dist_ref("dyadic:s=2,eps=0.1,extra=5", 6, 2, 1.0)
        with pytest.raises(ConfigError, match="argument 'b' given twice"):
            parse_dist_ref("coin:alpha=0.4,b=+-, b=++", 6, 2, 1.0)

    def test_config_document(self):
        cfg = config_from_dict(
            {
                "domain": {"d": 5, "k": 1, "r": 2, "G": 1.0},
                "distribution": "dyadic:s=1,eps=0.2,c=4",
                "algo": "mbgd",
                "m_values": [10, 20],
                "trials": 2,
                "base_seed": 11,
                "overrides": {"eta": 0.01},
            }
        )
        assert cfg.eta_override == 0.01
        assert cfg.m_values == (10, 20)

    def test_bad_document(self):
        with pytest.raises(ConfigError):
            config_from_dict({"algo": "mbgd"})

    DOC = {
        "domain": {"d": 4, "k": 1, "r": 2, "G": 1.0},
        "distribution": "dyadic:s=0,eps=0.2,c=4",
        "algo": "mbgd",
        "m_values": [100, 200],
        "trials": 2,
        "base_seed": 7,
    }
    INTEGER_FIELDS = ["domain.d", "domain.k", "domain.r", "m_values", "trials", "base_seed"]

    @staticmethod
    def _edited(field, value):
        """DOC with ``field`` set to ``value`` (a list field: its last entry), or removed."""
        doc = json.loads(json.dumps(TestConfigParsing.DOC))
        *parents, key = field.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        if value is None:
            del node[key]
        elif isinstance(node.get(key), list):
            node[key][-1] = value
        else:
            node[key] = value
        return doc

    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_missing_field_is_named(self, field):
        with pytest.raises(ConfigError, match=f"^config field '{field}' is missing$"):
            config_from_dict(self._edited(field, None))

    @pytest.mark.parametrize("value", [2.9, True, False, "3"], ids=["real", "true", "false", "string"])
    @pytest.mark.parametrize("field", INTEGER_FIELDS)
    def test_non_integer_field_is_named(self, field, value):
        named = "m_values[1]" if field == "m_values" else field
        message = f"config field '{named}' must be an integer, got {value!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            config_from_dict(self._edited(field, value))

    def test_document_errors_name_the_field(self):
        cases = {
            "domain.G": ("x", "config field 'domain.G' must be a number, got 'x'"),
            "domain.k": (4, "config field 'domain': k must satisfy 1 <= k < d"),
            "distribution": (5, "config field 'distribution' is not a distribution"),
            "m_values": (None, "config field 'm_values' is missing"),
            "output_path": (3, "config field 'output_path' must be a string, got 3"),
        }
        for field, (value, message) in cases.items():
            with pytest.raises(ConfigError) as info:
                config_from_dict(self._edited(field, value))
            assert str(info.value).startswith(message)
        with pytest.raises(ConfigError, match="config field 'overrides' must be a JSON object"):
            config_from_dict(dict(self.DOC, overrides=[]))
        with pytest.raises(ConfigError, match="config field 'overrides.eta' must be a number"):
            config_from_dict(dict(self.DOC, overrides={"eta": True}))

    def test_repeated_budget_is_rejected(self):
        with pytest.raises(ConfigError, match=r"m=200 repeats in m_values \(200, 100, 200\)"):
            config_from_dict(dict(self.DOC, m_values=[200, 100, 200]))


class TestCli:
    def test_run_inline(self, tmp_path):
        out = tmp_path / "run.csv"
        code = cli_main(
            [
                "run", "--algo", "mbgd", "--d", "6", "--k", "1", "--r", "2",
                "--G", "1", "--m", "40", "--trials", "3", "--seed", "5",
                "--dist", "dyadic:s=2,eps=0.25,c=4", "--out", str(out),
            ]
        )
        assert code == 0
        records = parse_csv(out)
        assert len(records) == 3
        assert all(r.algo == "mbgd" for r in records)

    def test_run_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg_path.write_text(
            json.dumps(
                {
                    "domain": {"d": 4, "k": 1, "r": 2, "G": 1.0},
                    "distribution": "dyadic:s=0,eps=0.2,c=4",
                    "algo": "mbgd",
                    "m_values": [10],
                    "trials": 2,
                    "base_seed": 3,
                }
            )
        )
        code = cli_main(
            ["run", "--config", str(cfg_path), "--trials", "4", "--out", str(out)]
        )
        assert code == 0
        assert len(parse_csv(out)) == 4

    def test_fixtures_subcommand(self, tmp_path):
        out = tmp_path / "imp.json"
        code = cli_main(["fixtures", "impossibility:s=1", "--d", "4", "--G", "1", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["d"] == 4 and len(doc["support"]) == 2

    def test_fixtures_default_output_is_named_after_the_fixture(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["fixtures", "dyadic:s=1,eps=0.2", "--d", "6"]) == 0
        assert load_distribution(tmp_path / "dyadic.json").tag.startswith("dyadic")

    def test_fixtures_default_output_for_a_json_reference_is_named_after_its_tag(
        self, tmp_path, monkeypatch
    ):
        # a hand-made file has no tag and loads as "custom"; a written one keeps its construction
        monkeypatch.chdir(tmp_path)
        hand = {"d": 4, "support": [{"x": [0.0, 1.0, 0.0, 0.0], "p": 1.0}]}
        (tmp_path / "hand.json").write_text(json.dumps(hand))
        assert cli_main(["fixtures", "hand.json", "--d", "4"]) == 0
        assert load_distribution(tmp_path / "custom.json").tag == "custom"
        save_distribution(impossibility_fixture(4, 1.0, 2), tmp_path / "mine.json")
        assert cli_main(["fixtures", "mine.json", "--d", "4"]) == 0
        assert load_distribution(tmp_path / "impossibility.json").tag.startswith("impossibility")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "custom.json", "hand.json", "impossibility.json", "mine.json"
        ]

    @pytest.mark.parametrize("argv,expected", [
        (["impossibility:s=2", "--d", "5", "--G", "1"], impossibility_fixture(5, 1.0, 2)),
        (["dyadic:s=1,eps=0.2,c=3", "--d", "6"], dyadic_fixture(6, s=1, eps=0.2, c=3.0)),
        (["coin:alpha=0.3,b=+-", "--d", "8", "--k", "2", "--G", "2"],
         coin_fixture(8, 2, 2.0, 0.3, [1.0, -1.0], default_coin_basis(8, 2, 2.0))),
        (["pointmass:coord=3", "--d", "4"], make_finite_support(
            [(np.eye(4)[3], 1.0)], DomainSpec(d=4, k=1, r=2, G=1.0), tag="pointmass(coord=3)")),
    ], ids=["impossibility", "dyadic", "coin", "pointmass"])
    def test_fixtures_json_matches_the_fixture_builders(self, argv, expected, capsys):
        assert cli_main(["fixtures", *argv, "--out", "-"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == json.loads(json.dumps(to_jsonable(expected)))

    @pytest.mark.parametrize("ref,unused", [
        ("impossibility:s=1,eps=0.2,alpha=0.9", "['alpha', 'eps']"),
        ("dyadic:s=1,eps=0.2,b=+", "['b']"),
    ])
    def test_fixtures_refuses_a_parameter_the_fixture_does_not_take(self, ref, unused, tmp_path,
                                                                     capsys):
        out = tmp_path / "f.json"
        assert cli_main(["fixtures", ref, "--d", "4", "--out", str(out)]) == 2
        assert f"unused distribution arguments {unused}" in capsys.readouterr().err
        assert not out.exists()

    RUN_D4 = [
        "run", "--algo", "mbgd", "--d", "4", "--k", "1", "--r", "2", "--G", "1",
        "--m", "10", "--trials", "1", "--seed", "1",
    ]

    @pytest.mark.parametrize("coord", [-1, 9])
    def test_pointmass_coordinate_outside_the_domain_exits_2(self, coord, capsys):
        assert cli_main([*self.RUN_D4, "--dist", f"pointmass:coord={coord}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")

    CONFIG_D4 = {
        "domain": {"d": 4, "k": 1, "r": 2, "G": 1.0},
        "distribution": "dyadic:s=0,eps=0.2,c=4",
        "algo": "mbgd",
        "m_values": [100],
        "trials": 2,
        "base_seed": 7,
    }

    @pytest.mark.parametrize("field,value", [
        ("domain.d", 4.7), ("domain.k", 1.5), ("domain.r", 2.5),
        ("m_values", [100.9]), ("trials", 2.9), ("base_seed", 7.5),
    ], ids=["d", "k", "r", "m_values", "trials", "base_seed"])
    def test_non_integer_config_field_exits_2(self, field, value, tmp_path, capsys):
        doc = json.loads(json.dumps(self.CONFIG_D4))
        *parents, key = field.split(".")
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("text,argv", [
        ("{bad", []), ("[1, 2]", []), ('{"domain": [4]}', ["--d", "4"]),
    ], ids=["invalid-json", "not-an-object", "nested-not-an-object"])
    def test_malformed_config_file_exits_2(self, text, argv, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert cli_main(["run", "--config", str(cfg_path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        if not argv:
            assert str(cfg_path) in captured.err

    def test_repeated_budget_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [*self.RUN_D4[:-6], "--m", "10", "10", "--trials", "2", "--seed", "3",
                "--dist", "dyadic:s=0,eps=0.25,c=4", "--out", str(out)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "m=10 repeats" in captured.err
        assert not out.exists()

    def test_repeated_dist_argument_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        argv = [*self.RUN_D4, "--dist", "dyadic:s=1,eps=0.1,s=2", "--out", str(out)]
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "argument 's' given twice" in captured.err
        assert not out.exists()

    def test_large_mbeg_step_size_runs_without_warnings(self, tmp_path, capsys):
        # eta * v at eta = 30 lies past exp's range; mbeg shifts the log-spectrum
        # by its largest entry before exp, so every trial finishes and, with
        # warnings turned into errors, numpy raises none.
        out = tmp_path / "out.csv"
        argv = ["run", "--algo", "mbeg", "--d", "8", "--k", "1", "--r", "2", "--G", "1",
                "--m", "600", "--trials", "2", "--seed", "1", "--dist", "dyadic:s=1,eps=0.25",
                "--eta", "30", "--alpha", "0.5", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli_main(argv) == 0
        records = parse_csv(out)
        assert [rec.trial for rec in records] == [0, 1]
        assert all(math.isfinite(rec.excess_loss) for rec in records)
        assert " failed" not in capsys.readouterr().err

    def test_summary_averages_the_finished_trials_and_counts_the_failed(self, monkeypatch,
                                                                       tmp_path, capsys):
        calls = []

        def failing_every_third(dist, lcfg):
            calls.append(lcfg.m)
            if len(calls) % 3 == 2:
                raise NotInHull("injected")
            return mbgd(dist, lcfg)

        monkeypatch.setattr(harness, "mbgd", failing_every_third)
        argv = ["run", "--algo", "mbgd", "--d", "6", "--k", "1", "--r", "2", "--G", "1",
                "--m", "400", "20", "--trials", "3", "--seed", "5",
                "--dist", "dyadic:s=2,eps=0.25,c=4"]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        stdout_csv = tmp_path / "stdout.csv"
        stdout_csv.write_text(captured.out)
        records = parse_csv(stdout_csv)
        means = {}
        for m in (400, 20):
            finished = [r.excess_loss for r in records if r.m == m and not math.isnan(r.excess_loss)]
            assert len(finished) == 2
            means[m] = math.fsum(finished) / 2
        assert captured.err.splitlines()[:2] == [
            f"m={m}: mean excess {mean:.4g} over 2 trials, 1 failed" for m, mean in means.items()
        ]

    @pytest.mark.parametrize("field", ["domain.d", "domain.k", "domain.r", "m_values", "trials",
                                       "base_seed"])
    def test_boolean_config_field_exits_2_and_names_it(self, field, tmp_path, capsys):
        doc = TestConfigParsing._edited(field, True)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
        named = "m_values[1]" if field == "m_values" else field
        assert capsys.readouterr().err == f"error: config field '{named}' must be an integer, got True\n"
        assert not out.exists()

    @pytest.mark.parametrize("dropped,field", [("--G", "domain.G"), ("--seed", "base_seed")])
    def test_missing_flag_names_the_field(self, dropped, field, capsys):
        argv = [*self.RUN_D4, "--dist", "dyadic:s=0,eps=0.25,c=4"]
        at = argv.index(dropped)
        assert cli_main(argv[:at] + argv[at + 2:]) == 2
        assert capsys.readouterr().err == f"error: config field '{field}' is missing\n"

    def test_run_prints_mean_excess_per_budget_to_stderr(self, tmp_path, capsys):
        argv = ["run", "--algo", "mbgd", "--d", "6", "--k", "1", "--r", "2", "--G", "1",
                "--m", "400", "20", "--trials", "3", "--seed", "5",
                "--dist", "dyadic:s=2,eps=0.25,c=4"]
        assert cli_main(argv) == 0
        captured = capsys.readouterr()
        stdout_csv = tmp_path / "stdout.csv"
        stdout_csv.write_text(captured.out)
        records = parse_csv(stdout_csv)  # stdout holds the CSV and nothing else
        assert len(records) == 6
        means = {m: math.fsum(r.excess_loss for r in records if r.m == m) / 3 for m in (400, 20)}
        assert means[20] > 0
        assert captured.err.splitlines() == [
            f"m={m}: mean excess {mean:.4g} over 3 trials" for m, mean in means.items()
        ]

    def test_config_error_exits_2(self, capsys):
        code = cli_main(
            ["run", "--algo", "mbeg", "--d", "4", "--k", "1", "--r", "4",
             "--G", "1", "--m", "600", "--trials", "1", "--seed", "1",
             "--dist", "dyadic:s=0,eps=0.2,c=4"]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "r=4" in line

    @pytest.mark.parametrize("override", [
        ["--eta", "-1"], ["--eta", "0"], ["--eta", "inf"], ["--eta", "nan"], ["--alpha", "0.7"],
    ])
    def test_bad_override_exits_2(self, override, capsys):
        code = cli_main(
            ["run", "--algo", "mbgd", "--d", "4", "--k", "1", "--r", "2", "--G", "1",
             "--m", "10", "--trials", "1", "--seed", "1", "--dist", "dyadic:s=0,eps=0.2,c=4",
             *override]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("error: ") and "override" in line

    MBEG_ETA_RUN = [
        "run", "--algo", "mbeg", "--d", "4", "--k", "1", "--r", "2", "--G", "1",
        "--trials", "2", "--seed", "0", "--dist", "dyadic:s=0,eps=0.25",
    ]

    def test_mbeg_eta_override_past_the_alpha_bound_exits_2(self, capsys):
        # m = 89 is the default budget floor, but alpha = eta d^2 / 2 = 8 with eta = 1
        assert cli_main([*self.MBEG_ETA_RUN, "--m", "89", "--eta", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "alpha" in captured.err

    def test_mbeg_small_eta_override_runs_below_the_default_floor(self, capsys):
        # alpha = 0.001 * 16 / 2 = 0.008 is valid although m = 10 < 89
        assert cli_main([*self.MBEG_ETA_RUN, "--m", "10", "--eta", "0.001"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 and "nan" not in "".join(lines[1:])

    @pytest.mark.parametrize("argv,why", [
        (["dyadic:s=1,eps=0.2", "--d", "6", "--G", "0.5", "--k", "9"],
         "fixture domain: k must satisfy 1 <= k < d, got k=9, d=6"),
        (["dyadic:s=1,eps=0.2", "--d", "6", "--G", "0.5"],
         "distribution incompatible with domain: squared norm 1 exceeds G=0.5"),
    ], ids=["k-not-below-d", "norm-above-G"])
    def test_fixtures_refuses_a_fixture_outside_its_domain(self, argv, why, capsys, tmp_path):
        assert cli_main(["fixtures", *argv, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {why}\n"
        out = tmp_path / "f.json"
        assert cli_main(["fixtures", *argv, "--out", str(out)]) == 2
        assert not out.exists()
        # the same reference inside its domain is written
        assert cli_main(["fixtures", "dyadic:s=1,eps=0.2", "--d", "6", "--out", str(out)]) == 0
        assert load_distribution(out).d == 6

    def test_fixtures_does_not_warn_about_sample_sizes(self, capsys):
        # k=3 > sqrt(8) draws DomainSpec's sample-size warning, which a fixture has no use for
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli_main(["fixtures", "coin:alpha=0.3", "--d", "8", "--k", "3", "--G", "2",
                             "--out", "-"]) == 0
        assert capsys.readouterr().err == ""

    def test_fixtures_refuses_a_fixture_file_of_another_dimension(self, capsys, tmp_path):
        src = tmp_path / "d4.json"
        assert cli_main(["fixtures", "impossibility:s=1", "--d", "4", "--out", str(src)]) == 0
        capsys.readouterr()
        assert cli_main(["fixtures", str(src), "--d", "5", "--out", "-"]) == 2
        assert "distribution dimension 4 != domain dimension 5" in capsys.readouterr().err

    @pytest.mark.parametrize("content", ['{"d": 4, "support": [{"x": [1', '{"d": 4}'],
                             ids=["truncated", "no-support"])
    def test_fixtures_and_run_refuse_a_file_that_is_not_a_distribution(self, content, capsys,
                                                                          tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        for argv in (["fixtures", str(bad), "--d", "4", "--out", "-"],
                     [*self.RUN_D4, "--dist", str(bad)]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            refusal = f"error: fixture file {str(bad)!r} is not a distribution"
            assert captured.err.startswith(refusal)
            assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    @pytest.mark.parametrize("d", ["2.9", "true"], ids=["float", "bool"])
    def test_fixtures_and_run_refuse_a_file_whose_d_is_not_an_integer(self, d, capsys, tmp_path):
        # A 2-d support: read with int(), d = 2.9 would load as 2 and run.
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"d": {d}, "support": [{{"x": [1.0, 0.0], "p": 1.0}}]}}')
        run = ["run", "--algo", "mbgd", "--d", "2", "--k", "1", "--r", "2", "--G", "1",
               "--m", "10", "--trials", "1", "--out", str(tmp_path / "run.csv")]
        for argv in (["fixtures", str(bad), "--d", "2", "--out", "-"], [*run, "--dist", str(bad)]):
            assert cli_main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: fixture file {str(bad)!r} is not a distribution")
            assert "fixture field 'd' must be an integer" in captured.err
        assert not (tmp_path / "run.csv").exists()

    def test_fixtures_rejects_a_non_sign_character(self, capsys, tmp_path):
        argv = ["fixtures", "coin:alpha=0.5,b=+x", "--d", "4", "--k", "2"]
        assert cli_main([*argv, "--out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        out = tmp_path / "coin.json"
        assert cli_main([*argv, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_main(["run", "--frobnicate"]) == 2
        assert cli_main(["no-such-command"]) == 2

    def test_demo_lower_bounds_reduced(self, capsys):
        code = cli_main(["demo-lower-bounds", "--trials", "40", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "marginals identical" in out
        assert "fraction of trials" in out

    def test_run_with_failed_trial_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise SubspaceBanditError("injected failure")

        monkeypatch.setattr(harness, "mbgd", boom)
        out = tmp_path / "run.csv"
        code = cli_main(
            [
                "run", "--algo", "mbgd", "--d", "6", "--k", "1", "--r", "2",
                "--G", "1", "--m", "40", "--trials", "2", "--seed", "5",
                "--dist", "dyadic:s=2,eps=0.25,c=4", "--out", str(out), "--workers", "1",
            ]
        )
        assert code == 1
        assert "injected failure" in capsys.readouterr().err
        assert len(parse_csv(out)) == 2

    def test_run_stdout_matches_out_file(self, tmp_path, monkeypatch, capsys):
        # wall_ms differs from run to run, so both invocations format one sweep
        real_run_sweep = harness.run_sweep
        swept = []

        def run_once(cfg, workers=None):
            if not swept:
                swept.extend(real_run_sweep(cfg, workers=workers))
            return list(swept)

        monkeypatch.setattr(harness, "run_sweep", run_once)
        argv = [
            "run", "--algo", "mbeg", "--d", "4", "--k", "1", "--r", "2",
            "--G", "1", "--m", "100", "--trials", "2", "--seed", "5",
            "--dist", "dyadic:s=1,eps=0.25,c=4", "--workers", "1",
        ]
        out = tmp_path / "run.csv"
        assert cli_main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()

    def test_demo_lower_bounds_unexpected_verdict_exits_1(self, monkeypatch, capsys):
        def no_failures(trials, seed, workers):
            return {
                "trials": trials,
                "m": 200,
                "failure_fraction": 0.0,
                "predicted_no_signal_probability": 0.9,
                "threshold": 0.05,
                "errors": [],
            }

        monkeypatch.setattr(harness, "dyadic_no_signal_demo", no_failures)
        code = cli_main(["demo-lower-bounds", "--trials", "40", "--seed", "3"])
        assert code == 1
        assert "UNEXPECTED" in capsys.readouterr().out


class TestLowerBoundDemos:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_marginal_check_matches_scalar_observe(self, seed):
        summary = marginal_identity_check(d=4, G=1.0, mc_draws=2000, seed=seed)
        assert summary["exact_identical"] is True
        assert summary["mc_worst_deviation"] == scalar_marginal_mc_deviation(4, 1.0, 2000, seed)

    def test_dyadic_demo_counts_and_reports_trials_that_raised(self, monkeypatch, capsys):
        # a raised trial has NaN excess, which is not above eps: it must not pass as a failure
        real_mbgd = harness.mbgd

        def flaky(dist, cfg, return_trace=False):
            if cfg.seed % 3 == 0:
                raise SubspaceBanditError(f"injected failure at seed {cfg.seed}")
            return real_mbgd(dist, cfg)

        monkeypatch.setattr(harness, "mbgd", flaky)
        m = harness.dyadic_demo_config().m_values[0]
        raised = [t for t in range(40) if mix64(3, m, t) % 3 == 0]
        assert raised  # the seeds do reach the injected failure
        summary = harness.dyadic_no_signal_demo(trials=40, seed=3)
        assert summary["errors"] == [
            f"trial {t}: SubspaceBanditError: injected failure at seed {mix64(3, m, t)}"
            for t in raised
        ]
        assert summary["failure_fraction"] <= 1 - len(raised) / 40
        assert cli_main(["demo-lower-bounds", "--trials", "40", "--seed", "3"]) == 1
        out = capsys.readouterr().out
        assert f"trials that raised an error: {len(raised)}" in out
        assert all(error in out for error in summary["errors"])
        assert "verdict: UNEXPECTED" in out


SRC = Path(harness.__file__).resolve().parents[1]


def _run_python(*args):
    """Run the interpreter on ``args`` with the checkout's ``src`` on its path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_import_does_not_load_the_process_pool():
    # the pool is imported by run_sweep only when it runs trials in parallel
    out = _run_python(
        "-c", "import sys, subspace_bandits; print('concurrent.futures.process' in sys.modules)"
    )
    assert out.returncode == 0 and out.stdout.strip() == "False"


def test_pca_rate_script_runs(tmp_path):
    out = tmp_path / "rate.csv"
    script = SRC.parent / "scripts" / "run_pca_rate.py"
    done = _run_python(str(script), "--m", "50", "100", "--trials", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert len(parse_csv(out)) == 4
    budgets = [line[2:].split()[0] for line in done.stdout.splitlines() if line.startswith("m=")]
    assert budgets == ["50", "100"]
