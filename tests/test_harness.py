import dataclasses
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coopalign
from conftest import save_config
from coopalign import cli
from coopalign.cli import main as cli_main
from coopalign.detection import ReducedSpec
from coopalign.errors import ConfigError, GenericityError, ProtocolError
from coopalign.harness import (CSV_COLUMNS, SCHEMES, ExperimentConfig,
                               RunManifest, config_from_dict, load_config,
                               run_experiment, run_trial)
from coopalign.lattice import (MAX_CARRIERS, channel_is_generic, q_limit,
                               random_gains)


FIXED_GAINS = [[[1.0, 0.2], [0.5, -0.1], [0.3, 0.4]],
               [[-0.7, 0.9], [1.1, 0.0], [0.2, -0.3]],
               [[0.4, 0.4], [-0.2, 0.6], [0.9, -0.5]]]


def _diagonal(g):
    return [[[g if i == j else 0.0, 0.0] for j in range(3)] for i in range(3)]


def _with_gain(i, j, g):
    gains = json.loads(json.dumps(FIXED_GAINS))
    gains[i - 1][j - 1] = [g, 0.0]
    return gains


def _scaled(g):
    return [[[g * re, g * im] for re, im in row] for row in FIXED_GAINS]


def _cfg(**kw):
    base = {"scheme": "rx-coop", "N": 1, "trials": 3,
            "P_grid": (1e2, 1e4, 1e6, 1e8), "rng_seed": 11}
    base.update(kw)
    return config_from_dict(base)


class TestConfig:
    def test_defaults_applied(self):
        cfg = config_from_dict({"scheme": "tdma", "N": 1})
        assert cfg.eps == 0.05
        assert cfg.trials == 100
        assert cfg.channel_mode == "random-generic"

    def test_json_round_trip(self, tmp_path):
        cfg = _cfg(scheme="tx-coop", eps=0.02, gamma=2.0 - 1.0j)
        path = tmp_path / "cfg.json"
        save_config(cfg, path)
        back = load_config(path)
        assert back == cfg

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scheme": "rx-coop",\n "N": }\n')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_missing_required_fields(self):
        with pytest.raises(ConfigError, match="scheme"):
            config_from_dict({"N": 1})
        with pytest.raises(ConfigError, match="N"):
            config_from_dict({"scheme": "rx-coop"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="power"):
            config_from_dict({"scheme": "rx-coop", "N": 1, "power": 5})

    def test_invariants_name_the_field(self):
        with pytest.raises(ConfigError, match="P_grid"):
            _cfg(P_grid=(1e2, 1e4, 1e6))
        with pytest.raises(ConfigError, match="P_grid"):
            _cfg(P_grid=(1e4, 1e2, 1e6, 1e8))
        with pytest.raises(ConfigError, match="eps"):
            _cfg(eps=0.0)
        with pytest.raises(ConfigError, match="trials"):
            _cfg(trials=0)
        with pytest.raises(ConfigError, match="rng_seed"):
            _cfg(rng_seed=2 ** 64)
        with pytest.raises(ConfigError, match="channel_mode"):
            _cfg(channel_mode="ergodic")
        with pytest.raises(ConfigError, match="fixed"):
            _cfg(channel_mode="fixed")

    @pytest.mark.parametrize("field,bad", [
        ("P_grid", {"scheme": "tdma", "P_grid": [0.25, 0.5, 1, 2]}),
        ("P_grid", {"scheme": "tx-coop", "P_grid": [1e2, 1e4, 1e6, 1e400]}),
        ("q", {"scheme": "rx-coop", "q": 2.5}),
        ("q", {"scheme": "rx-coop", "q": True}),
        ("N", {"scheme": "rx-coop", "N": True}),
        ("alpha_grid", {"scheme": "bounds-only", "alpha_grid": [-1, 0]}),
        ("c1", {"scheme": "tx-coop", "c1": 7.0}),
        ("c2", {"scheme": "tx-coop", "c2": 3.0}),
        ("eps", {"scheme": "rx-coop", "eps": "x"}),
        ("P_grid", {"scheme": "tdma", "P_grid": ["a", 1, 2, 3]}),
        ("fixed_channel", {"scheme": "tdma", "channel_mode": "fixed",
                           "fixed_channel": [[1, 2]]}),
        ("fixed_channel", {"scheme": "tdma", "channel_mode": "fixed",
                           "fixed_channel": [[[1, 0]] * 3] * 2
                           + [[[1, 0], [1, 0], [float("inf"), 0]]]}),
        ("fixed_channel", {"scheme": "tx-coop", "channel_mode": "fixed",
                           "fixed_channel": [[[1, 0]] * 3] * 3}),
        ("P_grid", {"scheme": "tdma", "P_grid": [1e2, 1e3, 1e4, 10 ** 400]}),
        ("gamma", {"scheme": "illustrating-example", "gamma": "x"}),
        ("reduced_spec", {"scheme": "rx-coop", "reduced_spec": "ab"}),
        ("rng_seed", {"scheme": "rx-coop", "rng_seed": True}),
        ("output_dir", {"scheme": "rx-coop", "output_dir": 5}),
        # one past the int64 bound 15Nq <= 2**63 - 1 at N = 1
        ("q", {"scheme": "tx-coop", "q": (2 ** 63 - 1) // 15 + 1}),
        # reduced_spec counts are integers, not floats, strings or bools
        *[("reduced_spec", {"scheme": "rx-coop", "reduced_spec": dict(
            {"active_coords": [[1, 1]], "n_red": 1, "q_red": 1}, **kw)})
          for kw in ({"n_red": 1.5}, {"q_red": 1.5}, {"ml_budget": "x"},
                     {"n_red": True})],
        # diagonal channels: every carrier is a product of all nine gains,
        # so a zero cross gain silences them all
        ("fixed_channel", {"scheme": "tx-coop", "N": 2,
                           "channel_mode": "fixed",
                           "fixed_channel": _diagonal(1e-3)}),
        ("fixed_channel", {"scheme": "tx-coop", "N": 4,
                           "channel_mode": "fixed",
                           "fixed_channel": _diagonal(3e-4)}),
        ("fixed_channel", {"scheme": "rx-coop", "channel_mode": "fixed",
                           "fixed_channel": _with_gain(1, 2, 1e-10)}),
        # invertible, every gain at least 1, but the inverse's (3,1) entry
        # is 0: the minor h21 h32 - h22 h31 vanishes
        ("fixed_channel", {"scheme": "tx-coop", "channel_mode": "fixed",
                           "fixed_channel": [[[1, 0], [1, 0], [3, 0]],
                                             [[1, 0], [2, 0], [1, 0]],
                                             [[2, 0], [4, 0], [5, 0]]]}),
        # 7^9 candidates, over the default ml_budget of 10^6
        ("reduced_spec", {"scheme": "rx-coop", "reduced_spec": {
            "active_coords": [[1, 1], [2, 2]], "n_red": 2, "q_red": 1}}),
        # the hub inverts the channel: a singular fixed one fails at load
        ("fixed_channel", {"scheme": "centralized", "channel_mode": "fixed",
                           "fixed_channel": [[[1, 0]] * 3] * 3}),
        # fixed gains are read only in fixed mode, whatever their values
        ("fixed_channel", {"scheme": "rx-coop",
                           "fixed_channel": _with_gain(1, 2, 1e-12)}),
        ("fixed_channel", {"scheme": "rx-coop", "fixed_channel": FIXED_GAINS}),
        # the mode is gone: it skipped the genericity screen on carriers
        # that collide by construction
        ("channel_mode", {"scheme": "illustrating-example",
                          "channel_mode": "illustrating",
                          "fixed_channel": FIXED_GAINS}),
        ("gamma", {"scheme": "illustrating-example", "gamma": 0}),
        # used to write a header-only results.csv under a complete manifest
        ("alpha_grid", {"scheme": "bounds-only", "alpha_grid": []}),
        # the example refuses a zero gain or a vanishing decode coefficient;
        # both used to fail trial 0 at run time with exit 2
        ("fixed_channel", {"scheme": "illustrating-example",
                           "channel_mode": "fixed",
                           "fixed_channel": _with_gain(1, 2, 0.0)}),
        ("fixed_channel", {"scheme": "illustrating-example", "gamma": 1,
                           "channel_mode": "fixed",
                           "fixed_channel": [[[1, 0]] * 3] * 3}),
        ("fixed_channel", {"scheme": "illustrating-example",
                           "channel_mode": "fixed",
                           "fixed_channel": _diagonal(1e-3)}),
        # gains of 1e200: the determinant overflows.  Both used to warn
        # "overflow encountered in det", and then tx-coop failed at load and
        # centralized passed it to fail trial 0 with "alpha is inf"
        ("fixed_channel", {"scheme": "tx-coop", "channel_mode": "fixed",
                           "fixed_channel": _scaled(1e200)}),
        ("fixed_channel", {"scheme": "centralized", "channel_mode": "fixed",
                           "fixed_channel": _scaled(1e200)}),
        # both used to exit 0 on channels whose carriers collide
        ("channel_mode", {"scheme": "rx-coop",
                          "channel_mode": "illustrating"}),
        ("channel_mode", {"scheme": "tx-coop",
                          "channel_mode": "illustrating"}),
        # (N+1)^9 = 7^9 carriers, about 0.75 GiB per trial
        ("N", {"scheme": "rx-coop", "N": 6}),
        ("N", {"scheme": "tx-coop", "N": 6}),
    ])
    def test_rejected_at_load(self, tmp_path, capsys, field, bad):
        raw = dict({"N": 1, "trials": 1, "output_dir": str(tmp_path / "o")},
                   **bad)
        with pytest.raises(ConfigError, match=field):
            config_from_dict(raw)
        path = tmp_path / "cfg.json"
        # json writes an overflowed float as Infinity; keep the file literal
        path.write_text(json.dumps(raw).replace("Infinity", "1e400"))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o" / "results.csv").exists()

    @pytest.mark.parametrize("kw,raw", [
        ({"gamma": [1.5, 0.5]}, {"gamma": [1.5, 0.5]}),
        ({"gamma": "1.5"}, {"gamma": "1.5"}),
        ({"gamma": True}, {"gamma": True}),
        ({"alpha_grid": ("0", "1")}, {"alpha_grid": ["0", "1"]}),
        ({"alpha_grid": [0, 1]}, {"alpha_grid": [0, 1]}),
        ({"P_grid": ("100", "1000", "10000", "100000")},
         {"P_grid": ["100", "1000", "10000", "100000"]}),
        ({"P_grid": [100, 1000, 10000, 100000]},
         {"P_grid": [100, 1000, 10000, 100000]}),
        ({"channel_mode": "fixed", "fixed_channel": FIXED_GAINS},
         {"channel_mode": "fixed", "fixed_channel": FIXED_GAINS}),
        # a config file holds no arrays
        ({"P_grid": np.array([1e2, 1e3, 1e4, 1e5])}, None),
        ({"channel_mode": "fixed", "fixed_channel": np.array(FIXED_GAINS)},
         None),
    ], ids=["gamma-pair", "gamma-str", "gamma-bool", "alpha-str",
            "alpha-int-list", "P-str", "P-int-list", "fixed-list",
            "P-array", "fixed-array"])
    def test_made_config_holds_the_file_form(self, kw, raw):
        # each form used to be held as given, and the gamma pair, the
        # strings and the fixed array then failed the run
        def form(x):
            if isinstance(x, (list, tuple)):
                return type(x), tuple(map(form, x))
            return type(x), x

        base = {"scheme": "illustrating-example", "N": 1}
        field = next(iter(kw.keys() - {"channel_mode"}))
        want, refusal = None, f"^{field} must be"
        if raw is not None:
            try:
                want = config_from_dict(dict(base, **raw))
            except ConfigError as exc:
                prefix = str(exc).split(", got ")[0]
                refusal = f"^{re.escape(prefix)}, got "
        for make in (lambda: ExperimentConfig(**base, **kw),
                     lambda: dataclasses.replace(
                         ExperimentConfig(**base), **kw)):
            if want is None:
                with pytest.raises(ConfigError, match=refusal):
                    make()
            else:
                cfg = make()
                assert form(getattr(cfg, field)) == form(getattr(want, field))
                assert cfg == want

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("fixed", [False, True], ids=["random", "fixed"])
    def test_as_json_dict_round_trip(self, scheme, fixed):
        kw = {"channel_mode": "fixed", "fixed_channel": FIXED_GAINS} \
            if fixed else {}
        cfg = ExperimentConfig(
            scheme=scheme, N=2, eps=0.02, P_grid=[1e2, 1e4, 1e6, 1e8],
            gamma=2.0 - 1.0j, alpha_grid=[0, 0.25], reduced_spec={
                "active_coords": ((1, 1), [2, 2]), "n_red": 1, "q_red": 1},
            **kw)
        back = config_from_dict(json.loads(json.dumps(cfg.as_json_dict())))
        assert back == cfg

    def test_checked_when_made(self):
        # a copy or a direct construction passes the load checks too; a
        # copy with eps = 5 used to run to negative rates and DoF
        with pytest.raises(ConfigError, match="eps"):
            dataclasses.replace(_cfg(), eps=5.0)
        with pytest.raises(ConfigError, match="scheme"):
            ExperimentConfig(scheme="nope", N=1)

    @pytest.mark.parametrize("scheme", ["rx-coop", "tx-coop"])
    def test_lattice_too_large_to_hold_is_refused(self, scheme):
        cfg = _cfg(scheme=scheme, N=5)
        assert (cfg.N + 1) ** 9 == MAX_CARRIERS
        with pytest.raises(ConfigError, match=r"^N = 6 is too large for "
                           rf"{scheme}: .* the largest admitted N is 5$"):
            dataclasses.replace(cfg, N=6)
        with pytest.raises(ConfigError, match="N = 40 is too large"):
            ExperimentConfig(scheme=scheme, N=40)

    @pytest.mark.parametrize("scheme", ["centralized", "tdma",
                                        "illustrating-example", "bounds-only"])
    def test_schemes_without_a_lattice_take_any_n(self, scheme):
        assert _cfg(scheme=scheme, N=40).N == 40

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, kind):
        path = tmp_path / "cfg.json"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b'{"scheme": "\xff", "N": 1}')
        out = tmp_path / "o"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
        assert f"cannot read config {path}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["tdma", "centralized", "bounds-only"])
    def test_vanishing_gain_loads_for_schemes_without_carriers(self, scheme):
        cfg = config_from_dict({"scheme": scheme, "N": 1,
                                "channel_mode": "fixed",
                                "fixed_channel": _diagonal(1e-3)})
        assert cfg.fixed_channel[0][1] == (0.0, 0.0)

    @pytest.mark.parametrize("N", [1, 3])
    def test_q_at_int64_bound_loads(self, N):
        # a step sums at most five terms of tables bounded by 3q, and the
        # rx back-substitution chains N of them
        cfg = config_from_dict({"scheme": "rx-coop", "N": N,
                                "q": (2 ** 63 - 1) // (15 * N)})
        assert cfg.q == (2 ** 63 - 1) // (15 * N)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_q_bound_is_the_int64_cube_limit(self, N):
        # the load bound and the cube types come from one function
        q = q_limit(N, np.int64)
        assert config_from_dict({"scheme": "tx-coop", "N": N, "q": q}).q == q
        with pytest.raises(ConfigError,
                           match=rf"q must be an integer in \[1, {q}\]"):
            config_from_dict({"scheme": "tx-coop", "N": N, "q": q + 1})

    @pytest.mark.parametrize("field", sorted(ExperimentConfig.__dataclass_fields__))
    @settings(max_examples=20, deadline=None)
    @given(value=st.recursive(
        st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70)
        | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=8), inner, max_size=4),
        max_leaves=8))
    def test_any_json_value_loads_or_raises_config_error(self, field, value):
        try:
            config_from_dict({"scheme": "rx-coop", "N": 1, field: value})
        except ConfigError:
            pass

    def test_reduced_spec_validated(self):
        with pytest.raises(ConfigError, match="reduced_spec"):
            _cfg(reduced_spec={"active_coords": [[1, 1]], "n_red": 0,
                               "q_red": 1})
        cfg = _cfg(reduced_spec={"active_coords": [[1, 1]], "n_red": 1,
                                 "q_red": 1})
        assert cfg.reduced_spec.table_size == 2

    def test_reduced_spec_held_as_the_checked_spec(self):
        raw = {"active_coords": [[1, 1]], "n_red": 1, "q_red": 1}
        cfg = _cfg(reduced_spec=raw)
        assert cfg.reduced_spec == ReducedSpec(((1, 1),), 1, 1)
        assert cfg.build_reduced_spec() is cfg.reduced_spec
        # the config used to hold a dict copy, which an item assignment
        # changed after the check, manifest echo included
        with pytest.raises(TypeError):
            cfg.reduced_spec["n_red"] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.reduced_spec.n_red = 0
        assert dataclasses.replace(cfg, N=2).reduced_spec is cfg.reduced_spec
        assert cfg.as_json_dict()["reduced_spec"] == dict(
            raw, active_coords=((1, 1),), ml_budget=10 ** 6)
        for bad in ("ab", [["n_red", 1]], 5):
            with pytest.raises(ConfigError, match="^invalid reduced_spec: "):
                dataclasses.replace(cfg, reduced_spec=bad)

    def test_huge_reduced_spec_rejected_without_counting(self):
        # 7^(10^12) candidates: rejected on the table size alone
        start = time.perf_counter()
        with pytest.raises(ConfigError, match="reduced_spec.*budget"):
            _cfg(reduced_spec={"active_coords": [[1, 1], [2, 2]],
                               "n_red": 10 ** 6, "q_red": 1})
        assert time.perf_counter() - start < 0.5


def _fail_trial_2(config, trial):
    # module level, so a worker process can unpickle it
    if trial == 2:
        raise RuntimeError("induced failure in trial 2")
    return run_trial(config, trial)


def _protocol_fail_trial_2(config, trial):
    if trial == 2:
        raise ProtocolError("induced failure in trial 2", round_index=1,
                            node=2)
    return run_trial(config, trial)


class TestRunExperiment:
    def test_results_csv_deterministic(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "a"))
        run_experiment(cfg)
        run_experiment(dataclasses.replace(cfg,
                                           output_dir=str(tmp_path / "b")))
        a = (tmp_path / "a" / "results.csv").read_bytes()
        b = (tmp_path / "b" / "results.csv").read_bytes()
        assert a == b

    def test_jobs_do_not_change_results(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "serial"))
        run_experiment(cfg)
        cfg2 = dataclasses.replace(cfg, output_dir=str(tmp_path / "par"))
        run_experiment(cfg2, jobs=3)
        assert (tmp_path / "serial" / "results.csv").read_bytes() \
            == (tmp_path / "par" / "results.csv").read_bytes()

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        # stands in for ProcessPoolExecutor: records the pool size and runs
        # each submit in this process, so no worker is ever started; the
        # harness imports the name from concurrent.futures when it pools
        import concurrent.futures
        sizes = []

        class Recorder:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            Recorder)
        return sizes

    def test_pool_capped_at_trial_count(self, tmp_path, pool_sizes):
        run_experiment(_cfg(trials=2, output_dir=str(tmp_path / "p")), jobs=8)
        assert cli_main(["run", "--jobs", "64", "--out", str(tmp_path / "c"),
                         "--scheme", "tdma"]) == 0
        assert pool_sizes == [2, 4]     # the CLI default config has 4 trials

    def test_one_trial_builds_no_pool(self, tmp_path, pool_sizes):
        run_experiment(_cfg(trials=1, output_dir=str(tmp_path / "p")), jobs=4)
        assert cli_main(["run", "--jobs", "4", "--out", str(tmp_path / "b"),
                         "--scheme", "bounds-only"]) == 0
        assert pool_sizes == []

    def test_serial_run_loads_no_process_pool(self, tmp_path):
        # a fresh interpreter, so nothing this test process imported counts;
        # the two-worker run shows the check can see a loaded pool
        code = (
            "import json, sys, coopalign, coopalign.cli\n"
            "from coopalign.harness import config_from_dict, run_experiment\n"
            "cfg = config_from_dict({'scheme': 'tdma', 'N': 1, 'trials': 2,\n"
            "                        'output_dir': sys.argv[1]})\n"
            "names = ('multiprocessing', 'concurrent.futures.process')\n"
            "loaded = []\n"
            "for jobs in (1, 2):\n"
            "    assert run_experiment(cfg, jobs=jobs).status == 'complete'\n"
            "    loaded.append([m for m in names if m in sys.modules])\n"
            "print(json.dumps(loaded))\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(coopalign.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        serial, pooled = json.loads(proc.stdout)
        assert serial == []
        assert pooled == ["multiprocessing", "concurrent.futures.process"]

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_cli_rejects_nonpositive_jobs(self, tmp_path, capsys, jobs):
        out = tmp_path / "o"
        assert cli_main(["run", "--jobs", jobs, "--out", str(out)]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_changes_channels_not_schema(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "s11"))
        run_experiment(cfg)
        cfg2 = dataclasses.replace(cfg, rng_seed=12,
                                   output_dir=str(tmp_path / "s12"))
        run_experiment(cfg2)
        m1 = json.loads((tmp_path / "s11" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "s12" / "manifest.json").read_text())
        assert m1["channels"] != m2["channels"]

    def test_manifest_lifecycle(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "run"))
        manifest = run_experiment(cfg)
        on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest.status == "complete"
        assert on_disk["status"] == "complete"
        assert on_disk["config"]["scheme"] == "rx-coop"
        assert len(on_disk["channels"]) == 3
        assert set(on_disk["outputs"]) == {"results.csv", "trace.jsonl"}
        assert on_disk["wall_time_s"] > 0
        import hashlib
        digest = hashlib.sha256(
            (tmp_path / "run" / "results.csv").read_bytes()).hexdigest()
        assert on_disk["outputs"]["results.csv"] == digest

    def test_manifest_text_matches_asdict(self, tmp_path):
        # oracle: the asdict-based dict the manifest was written from before,
        # with the unset error fields dropped the same way
        def oracle(m):
            d = dataclasses.asdict(m)
            for key in ("error", "failed_trial"):
                if d[key] is None:
                    d.pop(key)
            return json.dumps(d, indent=2) + "\n"

        out = tmp_path / "run"
        complete = run_experiment(_cfg(
            trials=2, reduced_spec={"active_coords": [[1, 1]], "n_red": 1,
                                    "q_red": 1}, output_dir=str(out)))
        assert (out / "manifest.json").read_text() == oracle(complete)
        incomplete = RunManifest(config=complete.config)
        failed = dataclasses.replace(
            complete, status="incomplete", error="ProtocolError: induced",
            failed_trial={"trial": 2, "entropy": 11, "spawn_key": [2],
                          "round": 1, "node": 2})
        for m in (incomplete, complete, failed):
            m.write(tmp_path / "manifest.json")
            assert (tmp_path / "manifest.json").read_text() == oracle(m)

    def test_failed_run_leaves_incomplete_manifest(self, tmp_path, monkeypatch):
        cfg = _cfg(output_dir=str(tmp_path / "boom"))
        import coopalign.harness as hmod

        def explode(config, trial):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(hmod, "run_trial", explode)
        with pytest.raises(RuntimeError):
            hmod.run_experiment(cfg)
        on_disk = json.loads((tmp_path / "boom" / "manifest.json").read_text())
        assert on_disk["status"] == "incomplete"
        assert "induced failure" in on_disk["error"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failed_trial_keeps_completed_trials(self, tmp_path, monkeypatch,
                                                 jobs):
        import coopalign.harness as hmod
        run_experiment(_cfg(trials=2, output_dir=str(tmp_path / "ok")))
        # a protocol failure also names its round and node, through the
        # pool as well
        for fail, exc, where in (
                (_fail_trial_2, RuntimeError, {}),
                (_protocol_fail_trial_2, ProtocolError,
                 {"round": 1, "node": 2})):
            out = tmp_path / fail.__name__
            monkeypatch.setattr(hmod, "run_trial", fail)
            with pytest.raises(exc, match="trial 2"):
                hmod.run_experiment(_cfg(trials=4, output_dir=str(out)),
                                    jobs=jobs)
            monkeypatch.undo()
            for name in ("results.csv", "trace.jsonl"):
                assert (out / name).read_bytes() \
                    == (tmp_path / "ok" / name).read_bytes()
            on_disk = json.loads((out / "manifest.json").read_text())
            assert on_disk["status"] == "incomplete"
            assert on_disk["failed_trial"] == dict(
                {"trial": 2, "entropy": 11, "spawn_key": [2]}, **where)
            assert len(on_disk["channels"]) == 2
            assert "induced failure in trial 2" in on_disk["error"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    @pytest.mark.parametrize("raw,column", [
        ({"scheme": "bounds-only", "P_grid": [2, 1e100, 1e200, 1e308]}, "dof"),
        ({"scheme": "bounds-only", "alpha_grid": [1e308]}, "dof"),
        ({"scheme": "tdma", "P_grid": [2, 1e100, 1e200, 1e308]}, "dof"),
        ({"scheme": "illustrating-example",
          "P_grid": [2, 1e100, 1e200, 1e308]}, "alpha"),
        ({"scheme": "tdma", "channel_mode": "fixed",
          "fixed_channel": [[[1e200, 0], [0.5, 0], [0.3, 0]],
                            [[0.7, 0], [1.1, 0], [0.2, 0]],
                            [[0.4, 0], [0.2, 0], [0.9, 0]]]}, "dof"),
    ], ids=["bounds-only-P", "bounds-only-alpha", "tdma-P", "illustrating-P",
            "tdma-gain"])
    def test_nonfinite_row_fails_its_trial(self, tmp_path, capsys, raw,
                                           column):
        # these load, but a bound or rate overflows for the drawn channel
        out = tmp_path / "o"
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict({"N": 1, "trials": 3,
                                         "output_dir": str(out)}, **raw)))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert f": {column} is inf at P = " in capsys.readouterr().err
        body = (out / "results.csv").read_text()
        assert "inf" not in body and "nan" not in body
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["status"] == "incomplete"
        assert column in on_disk["error"]
        assert len(on_disk["channels"]) == on_disk["failed_trial"]["trial"]

    def test_csv_schema_and_sorting(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3 * 4                   # trials x grid points
        keys = [(int(r[0]), float(r[1])) for r in rows]
        assert keys == sorted(keys)
        assert all(r[7] == "exact" for r in rows)

    def test_trace_records_follow_message_schema(self, tmp_path):
        cfg = _cfg(output_dir=str(tmp_path / "run"), trials=2)
        run_experiment(cfg)
        recs = [json.loads(ln) for ln in
                (tmp_path / "run" / "trace.jsonl").read_text().splitlines()]
        assert len(recs) == 2 * 3                   # trials x messages
        for r in recs:
            assert set(r) == {"stage", "source", "destination", "round",
                              "length", "alphabet_halfwidth",
                              "payload_digest", "trial"}
            assert r["stage"] == "backhaul"

    def test_tx_trace_includes_airtime(self, tmp_path):
        cfg = _cfg(scheme="tx-coop", trials=1,
                   output_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        recs = [json.loads(ln) for ln in
                (tmp_path / "run" / "trace.jsonl").read_text().splitlines()]
        stages = [r["stage"] for r in recs]
        assert stages.count("backhaul") == 6        # 3(N+1) messages at N=1
        assert stages.count("airtime") == 1

    def test_bounds_only_rows(self, tmp_path):
        cfg = _cfg(scheme="bounds-only", output_dir=str(tmp_path / "run"))
        run_experiment(cfg)
        lines = (tmp_path / "run" / "results.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 3 * 4 * 2               # alphas x grid x bounds
        assert {r[7] for r in rows} == {"rx-bound", "tx-bound"}
        assert {float(r[3]) for r in rows} == {0.0, 0.5, 1.0}

    def test_illustrating_scheme_runs(self, tmp_path):
        cfg = _cfg(scheme="illustrating-example", trials=2,
                   P_grid=(1e3, 1e4, 1e5, 1e6, 1e7),
                   output_dir=str(tmp_path / "run"))
        manifest = run_experiment(cfg)
        assert manifest.status == "complete"

    def test_fixed_channel_repeats_across_trials(self, tmp_path):
        cfg = _cfg(scheme="tdma", channel_mode="fixed",
                   fixed_channel=FIXED_GAINS, trials=2,
                   output_dir=str(tmp_path / "run"))
        manifest = run_experiment(cfg)
        assert manifest.channels[0] == manifest.channels[1] == FIXED_GAINS

    def test_illustrating_example_lists_forced_fixed_channel(self, tmp_path):
        # the manifest lists the proportional gains the rates were computed
        # on, not the unforced fixed gains; results.csv is the one written
        # while the manifest still listed the unforced gains
        cfg = _cfg(scheme="illustrating-example", channel_mode="fixed",
                   fixed_channel=FIXED_GAINS, trials=2,
                   output_dir=str(tmp_path / "run"))
        manifest = run_experiment(cfg)
        h = np.array(manifest.channels[0]) @ [1, 1j]
        assert h[2, 0] == pytest.approx(cfg.gamma * h[1, 0], rel=1e-15)
        assert h[2, 2] == pytest.approx(cfg.gamma * h[1, 2], rel=1e-15)
        digest = hashlib.sha256(
            (tmp_path / "run" / "results.csv").read_bytes()).hexdigest()
        assert digest == \
            "658218ee0e94c3f66b28768fa0001171486214218b4322c51f491d3779abe4e7"


# sha256 of the deterministic backhaul trace, recorded before the rx and tx
# protocols moved onto the shared exchange engine (rx-coop at N = 3: before
# the receivers held their tables slab-major); tx leaves out its float
# airtime record
GOLDEN_TRACE = {
    ("rx-coop", 1): "cfac58ee216162f1b0ba8fcf4458381cd7bfa3850498c6373cd33f5099d43fa1",
    ("rx-coop", 2): "bc86763455bbf30bcfef384c41ef508642d9eb623d49a7b6f4140bb7b09b15bd",
    ("rx-coop", 3): "9bc71790a07ba62ece812bbe2d83d7e75104703a69383881245697e677d0e936",
    ("tx-coop", 1): "43ceb03effb6db3bc8da1bfe0fc9bc3e61ae1d921dc3d650b0cd68ce4db251ba",
    ("tx-coop", 2): "ecaecfe9bda023e1e35ec5de4fd67164af1f0810e5d90a7b3603e2901e78bc6e",
}


@pytest.mark.parametrize("scheme,n", sorted(GOLDEN_TRACE))
def test_backhaul_trace_golden(tmp_path, scheme, n):
    run_experiment(_cfg(scheme=scheme, N=n, output_dir=str(tmp_path)))
    lines = (tmp_path / "trace.jsonl").read_bytes().splitlines(keepends=True)
    backhaul = b"".join(l for l in lines
                        if json.loads(l)["stage"] == "backhaul")
    assert hashlib.sha256(backhaul).hexdigest() == GOLDEN_TRACE[scheme, n]
    if scheme == "rx-coop":
        assert len(backhaul) == sum(map(len, lines))


# sha256 of results.csv from _cfg(scheme=S, N=n), and of the tx airtime
# trace record of the same run.  rx-coop's were recorded before the backhaul
# ledger stopped keeping payloads.  tx-coop's were recorded with the carrier
# sums as nested sums in planar real arithmetic and every magnitude taken
# from the real and imaginary parts, with numpy 2.4.6, and read the same
# with numpy's AVX2 and AVX-512 loops disabled; the channel inverse and the
# 3x3 products call no LAPACK or BLAS, so no OpenBLAS kernel moves them
GOLDEN_RESULTS_CSV = {
    ("rx-coop", 1): "3ee25ece95f4b46e70e975c6ca73464615cadbc262794bc71d4ad38fa65a5a7d",
    ("rx-coop", 2): "82adb37ff4d15dcd7f3b9a246bd101cd84486dbdaa928a3dd6d731d98b3708fe",
    ("tx-coop", 1): "674047664a84f3b1648b060a72002d616fa63e9e6f7cc5229e94d47bffe29b80",
    ("tx-coop", 2): "54e68817bd1e3c92d934bfd353d546a1703c2a25eaa34ed4af5fc744423b308c",
    ("tx-coop", 3): "239c437ecd24bfdc938b6df9863804957066ac92d2dd0b99ee39c878383ecdaf",
    ("tx-coop", 4): "dfdab58fee3c3619451f261245c00b39044accec5a4c27b9ccc948597504fdea",
}
GOLDEN_AIRTIME = {
    1: "fab236a1a69c284f0ce38994460bab1abb15e1e273d68c1a0cad0b76fbcce21b",
    2: "06a7740b23652040dfbeb0d77ba456a03e8d9d2dd9838d0e0d91695a8ad86a00",
    3: "435be3684a52638a40a7141a2ccb498d62618c5aaa433bde57be36ed364edfb8",
    4: "a759b932d46eff246e8b56025eeeea0fffcfbe652985c4589e1b677ea4006dc0",
}


@pytest.mark.parametrize("scheme,n", sorted(GOLDEN_RESULTS_CSV))
def test_protocol_results_golden(tmp_path, scheme, n):
    run_experiment(_cfg(scheme=scheme, N=n, output_dir=str(tmp_path)))
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_RESULTS_CSV[scheme, n]
    lines = (tmp_path / "trace.jsonl").read_bytes().splitlines(keepends=True)
    airtime = b"".join(l for l in lines if json.loads(l)["stage"] == "airtime")
    if scheme == "tx-coop":
        assert hashlib.sha256(airtime).hexdigest() == GOLDEN_AIRTIME[n]
    else:
        assert airtime == b""


def _runs_on_openblas_x86():
    """numpy's BLAS is OpenBLAS on an x86-64 CPU, which can run the
    Prescott kernel."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return False
    return platform.machine().lower() in ("x86_64", "amd64") \
        and "openblas" in str(blas.get("name", "")).lower()


# the digests of each run's results.csv and trace.jsonl, in a fresh
# interpreter, so that OPENBLAS_CORETYPE and NPY_DISABLE_CPU_FEATURES are
# read before numpy loads OpenBLAS and picks its loops
_KERNEL_RUN = """
import hashlib, sys
from pathlib import Path
from coopalign.harness import config_from_dict, run_experiment
for scheme, n in [("tx-coop", 1), ("tx-coop", 2), ("tx-coop", 3),
                  ("tx-coop", 4), ("centralized", 2)]:
    out = Path(sys.argv[1]) / f"{scheme}-{n}"
    run_experiment(config_from_dict({"scheme": scheme, "N": n, "trials": 3,
                                     "rng_seed": 11,
                                     "output_dir": str(out)}))
    for name in ("results.csv", "trace.jsonl"):
        if (out / name).exists():
            digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
            print(scheme, n, name, digest)
"""


@pytest.mark.skipif(not _runs_on_openblas_x86(),
                    reason="needs numpy's OpenBLAS on x86-64")
def test_outputs_do_not_depend_on_the_openblas_kernel(tmp_path):
    # the tx-coop residual and airtime digest rest on the channel inverse:
    # with it computed by LAPACK, the Prescott kernel wrote other bytes.
    # They also rest on the carrier sums and magnitudes: with numpy's
    # complex multiply and complex abs, its loops without AVX2 (every
    # dispatch target the CPU has disabled; naming one it lacks makes numpy
    # warn) wrote other bytes; the complex abs of the mean power alone moved
    # the residual of trial 2 at N = 2
    from numpy._core._multiarray_umath import (__cpu_dispatch__,
                                               __cpu_features__)
    simd = " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))
    env = dict(os.environ, PYTHONWARNINGS="error",
               PYTHONPATH=str(Path(coopalign.__file__).parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    # the three interpreters run together; each is then waited for
    procs = [subprocess.Popen(
        [sys.executable, "-c", _KERNEL_RUN, str(tmp_path / str(i))],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(env, **extra))
        for i, extra in enumerate([{}, {"OPENBLAS_CORETYPE": "Prescott"},
                                   {"NPY_DISABLE_CPU_FEATURES": simd}])]
    outs = []
    try:
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            outs.append(out)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert outs[0].count("\n") == 9
    assert outs[0] == outs[1] == outs[2]


# sha256 of (results.csv, trace.jsonl) for config {"scheme": S, "N": 2,
# "trials": 2, "rng_seed": 11, "q": q}; rx-coop's were recorded while every
# cube was int64, tx-coop's as GOLDEN_RESULTS_CSV's are.  At N = 2 the
# largest q of an int16 cube is 1092, and the pins at 71582788 and 71582789
# hold two q deep in the int64 range
GOLDEN_CUBE_TYPES = {
    ("rx-coop", 1092): ("ebc0c5364dfbda1948a8a72f5eb1fd7db1340c6d6779b6c77e1b431526b42181",
                        "1d84f3decca8f26af6d7c94cd9c513a347dfea7c3d96d820335d588ac590a94a"),
    ("rx-coop", 1093): ("ebc0c5364dfbda1948a8a72f5eb1fd7db1340c6d6779b6c77e1b431526b42181",
                        "a40d022872deb9699e5848ecafff17d01464f060dd7f35cc9ba41a4db0c4bf2b"),
    ("rx-coop", 71582788): ("ebc0c5364dfbda1948a8a72f5eb1fd7db1340c6d6779b6c77e1b431526b42181",
                            "e37353b08804ab6990cf307e1df742dc188fe911926f41e83773960a183d3f82"),
    ("rx-coop", 71582789): ("ebc0c5364dfbda1948a8a72f5eb1fd7db1340c6d6779b6c77e1b431526b42181",
                            "acc0f7851429b856babb6a9dc4afc1b3b47db9a44d34823bd79fbe5977b6bfbc"),
    ("tx-coop", 1092): ("c8cbc1cc93a40e0b1760f2cb223e6535ed70a8ac584824145879dadf18b7a19b",
                        "9ea28dd3eb0491eacd134ee83455f4c606358966e0cb339540777d2a02bd42a4"),
    ("tx-coop", 1093): ("9bb234352088c047f9b74df7c6b3b0b36f6d24a1d05eb4ebd2329cf30f2e7266",
                        "a62bc36a97e1c5114e8b447ce3cced29d8c0ee5cef0dae8af97c287ae2e63e4c"),
    ("tx-coop", 71582788): ("89844eb0f8c66877a0302f82227648580c2404f6f7d00157200b49b011b5d7e4",
                            "e6f4345c5114134c5c5a960d3820011a688262e0fd394ce1727f0172dfa1f155"),
    ("tx-coop", 71582789): ("85fdc91d02a13d946a344d4cf5a413975dda19b535e5c4e74667be119334d0c0",
                            "d95c47e1fb883302153bcc7130103461f4d3a43cbd939780eac23d328a33b25d"),
}


@pytest.mark.parametrize("scheme,q", sorted(GOLDEN_CUBE_TYPES))
def test_results_golden_across_cube_types(tmp_path, scheme, q):
    run_experiment(config_from_dict({"scheme": scheme, "N": 2, "trials": 2,
                                     "rng_seed": 11, "q": q,
                                     "output_dir": str(tmp_path)}))
    got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                for f in ("results.csv", "trace.jsonl"))
    assert got == GOLDEN_CUBE_TYPES[scheme, q]


# sha256 of results.csv for config {"scheme": S, "N": 2, "trials": 3,
# "rng_seed": 11}, recorded while every scheme's channel draw was screened
GOLDEN_BASELINE_CSV = {
    "centralized": "f21e42e9c8b1249ba8cf92929daeb7099352c700405d7cc7c81e56c606fb7435",
    "tdma": "c1c8a55479d4d8b5c655bb04f5b63a2d00cd26032cbd13056ec41ab83614d710",
    "illustrating-example": "84c138c6003fc740d6db30ecd84d3fd433ea768853081c301c799d856a7c3f64",
    "bounds-only": "080a1961baa2b4ddd087e5eb08ef8142bcfd7495d68e3b254b4ea9ff0df1728e",
}


@pytest.mark.parametrize("scheme", sorted(GOLDEN_BASELINE_CSV))
def test_baseline_results_golden(tmp_path, scheme):
    run_experiment(config_from_dict({"scheme": scheme, "N": 2, "trials": 3,
                                     "rng_seed": 11,
                                     "output_dir": str(tmp_path)}))
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_BASELINE_CSV[scheme]


def test_centralized_results_golden_n3(tmp_path):
    # the hub model reads no N: at N = 3 it writes the N = 2 golden bytes
    run_experiment(config_from_dict({"scheme": "centralized", "N": 3,
                                     "trials": 3, "rng_seed": 11,
                                     "output_dir": str(tmp_path)}))
    digest = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_BASELINE_CSV["centralized"]


def test_screen_runs_only_for_lattice_schemes(tmp_path, monkeypatch):
    import coopalign.harness as hmod

    def reject(channel, n):
        raise GenericityError("screen called")

    monkeypatch.setattr(hmod, "require_generic", reject)
    for scheme in sorted(GOLDEN_BASELINE_CSV):
        out = tmp_path / scheme
        assert run_experiment(_cfg(scheme=scheme, output_dir=str(out))) \
            .status == "complete"
    for scheme in ("rx-coop", "tx-coop"):
        with pytest.raises(GenericityError):
            run_experiment(_cfg(scheme=scheme, output_dir=str(tmp_path / scheme)))


def test_tx_coop_screens_the_inverse_channel(monkeypatch):
    # h passes the screen, but its inverse g has g12 = g11, so the carriers
    # of g, which tx-coop's carrier sums read, collide
    import coopalign.harness as hmod

    g = random_gains(np.random.default_rng(21))
    g[0, 1] = g[0, 0]
    h = np.linalg.inv(g)
    assert channel_is_generic(h, 1)
    monkeypatch.setattr(hmod, "random_gains", lambda rng: h.copy())
    with pytest.raises(GenericityError):
        run_trial(_cfg(scheme="tx-coop"), 0)
    # rx-coop reads the carriers of h itself
    assert run_trial(_cfg(scheme="rx-coop"), 0)[0][0]["detail"] == "exact"


class TestCli:
    def test_run_and_rerun_identical(self, tmp_path, capsys):
        cfg = _cfg(output_dir=str(tmp_path / "c1"))
        save_config(cfg, tmp_path / "cfg.json")
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json")]) == 0
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--out", str(tmp_path / "c2")]) == 0
        assert (tmp_path / "c1" / "results.csv").read_bytes() \
            == (tmp_path / "c2" / "results.csv").read_bytes()

    def test_verify_passes(self, capsys):
        assert cli_main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 6

    @pytest.mark.parametrize("fault", ["detail", "dropped", "length"])
    def test_verify_checks_the_trials_run_writes(self, monkeypatch, capsys,
                                                 fault):
        # the protocol checks read run_trial's rows and backhaul records;
        # they used to run the exchanges on streams of their own
        def faulty(config, trial):
            rows, listing, trace = run_trial(config, trial)
            if fault == "detail":
                rows[-1]["detail"] = "contaminated" \
                    if config.scheme == "rx-coop" else "1.001e-09"
            elif fault == "dropped":
                trace = trace[1:]
            else:
                trace[0]["length"] += 1
            return rows, listing, trace

        monkeypatch.setattr(cli, "run_trial", faulty)
        assert cli_main(["verify"]) == 2
        out = capsys.readouterr().out
        assert out.count("FAIL") == 3 and out.count("PASS") == 3
        assert "FAIL  transmitter protocol diagonalization (N=1)" in out

    @staticmethod
    def _reduced_config(tmp_path, n_red):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "rx-coop", "N": 1, "reduced_spec": {
            "active_coords": [[1, 1], [2, 2]], "n_red": n_red, "q_red": 1}}))
        return str(path)

    def test_verify_runs_reduced_check(self, tmp_path, capsys):
        # 7^4 candidates: the reduced ML check is a seventh PASS line
        assert cli_main(["verify", "--config",
                         self._reduced_config(tmp_path, 1)]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7 and "FAIL" not in out
        assert "PASS  reduced ML noiseless exactness" in out

    def test_verify_rejects_over_budget_spec_before_any_check(self, tmp_path,
                                                              capsys):
        # 7^9 candidates: the config fails to load, so no check runs
        assert cli_main(["verify", "--config",
                         self._reduced_config(tmp_path, 2)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "reduced_spec" in err

    @pytest.mark.parametrize("argv", [["verify", "--out", "o"],
                                      ["verify", "--scheme", "tdma"]])
    def test_unread_override_is_usage_error(self, argv, capsys):
        # verify registers none of run's overrides
        with pytest.raises(SystemExit) as err:
            cli_main(argv)
        assert err.value.code == 2

    def test_bad_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"scheme": "rx-coop"}\n')
        assert cli_main(["run", "--config", str(path)]) == 1

    def test_scheme_override(self, tmp_path, capsys):
        save_config(_cfg(trials=1), tmp_path / "cfg.json")
        assert cli_main(["run", "--config", str(tmp_path / "cfg.json"),
                         "--scheme", "tdma",
                         "--out", str(tmp_path / "o")]) == 0
        body = (tmp_path / "o" / "results.csv").read_text()
        assert "tdma" in body and "rx-coop" not in body
