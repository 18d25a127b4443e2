import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import wickshe
from wickshe.cli import encode_alpha, main, run, write_csv
from wickshe.basis import MultiIndex
from wickshe.config import ConfigError, parse_config
from wickshe.kernels import INITIAL_CONDITIONS, build_line_grid


def write_cfg(tmp_path: Path, text: str) -> Path:
    p = tmp_path / "run.cfg"
    p.write_text(text, encoding="utf-8")
    return p


class TestConfigParsing:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "seed = 7\n"))
        assert cfg.seed == 7
        assert cfg.truncation_order == 4
        assert cfg.truncation_modes == 6
        assert cfg.mc_dt == pytest.approx(1e-3)

    def test_negative_n_paths_names_key(self, tmp_path):
        with pytest.raises(ConfigError, match="mc.n_paths"):
            parse_config(write_cfg(tmp_path, "seed = 1\nmc.n_paths = -5\n"))

    def test_unknown_key_suggestion(self, tmp_path):
        with pytest.raises(ConfigError, match="quadrature.L"):
            parse_config(write_cfg(tmp_path, "seed = 1\nquadratur.L = 10\n"))

    def test_parse_error_has_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match=":2:"):
            parse_config(write_cfg(tmp_path, "seed = 1\nnot a key value line\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.cfg")

    def test_probe_parsing(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "seed = 1\nprobes = 0.25,0.1; 1.0,-2\n"))
        assert cfg.probes == ((0.25, 0.1), (1.0, -2.0))

    def test_bad_probe_time(self, tmp_path):
        with pytest.raises(ConfigError, match="positive"):
            parse_config(write_cfg(tmp_path, "seed = 1\nprobes = -0.5,0\n"))

    def test_nan_probe_position_is_not_covered(self, tmp_path):
        with pytest.raises(ConfigError, match="quadrature.L"):
            parse_config(write_cfg(tmp_path, "seed = 1\nprobes = 0.5,nan\n"))

    def test_unknown_ic_tag(self, tmp_path):
        with pytest.raises(ConfigError, match="tag"):
            parse_config(write_cfg(tmp_path, "seed = 1\ninitial_condition.tag = box\n"))

    @pytest.mark.parametrize("tag", sorted(INITIAL_CONDITIONS))
    def test_every_registered_ic_tag_parses(self, tmp_path, tag):
        cfg = parse_config(write_cfg(tmp_path, f"seed = 1\ninitial_condition.tag = {tag}\n"))
        assert cfg.initial_condition().tag == tag

    def test_comments_and_blank_lines(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "# header\n\nseed = 3  # trailing\n"))
        assert cfg.seed == 3


def test_cli_import_does_not_load_scipy_stats():
    # no subcommand needs scipy: the chain engine's Sobol points are generated
    # in the package (scipy.stats, ~0.7 s), and the propagator oracle imports
    # scipy.linalg on its first solve (~0.3 s); so neither the CLI nor the
    # package root loads any scipy module
    src = str(Path(wickshe.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    for module in ("wickshe.cli", "wickshe"):
        code = (f"import sys, {module}\n"
                "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]", module


class TestAlphaEncoding:
    def test_zero_index(self):
        assert encode_alpha(MultiIndex(())) == ""

    def test_support_pairs(self):
        assert encode_alpha(MultiIndex((2, 0, 1))) == "1:2;3:1"


class TestRunner:
    def test_exit_code_2_on_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "seed = 1\nmc.n_paths = -5\n")
        code = main(["localtime", "--config", str(cfg)])
        assert code == 2
        assert "mc.n_paths" in capsys.readouterr().err

    def test_quadrature_grading_is_not_a_key(self, tmp_path, capsys):
        # the time-simplex rule is the fixed coefficients.TIME_POINTS, so no
        # key grades it; the parser's unknown-key path refuses the old one
        cfg = write_cfg(tmp_path, "seed = 1\nquadrature.grading = 2.0\n"
                                  f"output_dir = {tmp_path / 'out'}\n")
        assert main(["derivative", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'quadrature.grading'" in err
        assert not (tmp_path / "out").exists()

    def test_derivative_passes_at_bump_data(self, tmp_path, capsys):
        # probe (2, -1) is the time rule's worst case; the check reads
        # 1.34e-4 against its 1e-3 tolerance
        cfg = write_cfg(tmp_path, "seed = 1\ninitial_condition.tag = gaussian_bump\n"
                                  "probes = 0.5,0.0;1.0,0.3;2.0,-1.0\n"
                                  f"output_dir = {tmp_path / 'out'}\n")
        assert main(["derivative", "--config", str(cfg)]) == 0
        assert "[PASS] dx_quadrature_vs_spectral" in capsys.readouterr().out

    @pytest.mark.parametrize("order", [0, 5])
    def test_regularity_rejects_unsupported_order(self, order, tmp_path, capsys,
                                                  monkeypatch):
        # the parser accepts truncation.N in [0, 40]; the chain engine only
        # handles 1..4, so the run must stop before any engine work
        def no_engine(*args, **kwargs):
            raise AssertionError("engine ran")

        monkeypatch.setattr("wickshe.cli.exact_increment_curve", no_engine)
        cfg = write_cfg(tmp_path, f"seed = 1\ntruncation.N = {order}\n"
                                  f"output_dir = {tmp_path / 'out'}\n")
        assert main(["regularity", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "truncation.N" in err and "1..4" in err
        assert not (tmp_path / "out").exists()

    def test_regularity_rejects_mc_dt_off_the_lag_grid(self, tmp_path, capsys, monkeypatch):
        # the local-time lags 0.05 ... 0.4 are not multiples of dt = 0.02: the
        # run must stop before any chain curve runs
        def no_engine(*args, **kwargs):
            raise AssertionError("engine ran")

        monkeypatch.setattr("wickshe.cli.exact_increment_curve", no_engine)
        cfg = write_cfg(tmp_path, f"seed = 1\nmc.dt = 0.02\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["regularity", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "mc.dt" in err and "positive multiple of dt" in err
        assert not (tmp_path / "out").exists()

    def test_memory_budget_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # a path block of 2000 paths x 1000 steps is 16 MB at the defaults
        monkeypatch.setattr("wickshe.feynman_kac.ARRAY_BUDGET_BYTES", 2 ** 20)
        cfg = write_cfg(tmp_path, f"seed = 1\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["localtime", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "2000 paths x 1000 steps" in err
        assert "GiB" in err and err.count("\n") == 1

    def test_psi_law_budget_refused_before_sampling(self, tmp_path, capsys, monkeypatch):
        # at the defaults psi_law_stats holds one chunk of 128 noise draws x
        # 347 levels (355 kB), over a 256 KiB budget, beside 20000 psi values
        def no_sampling(*args, **kwargs):
            raise AssertionError("the fk loop ran")

        monkeypatch.setattr("wickshe.feynman_kac.ARRAY_BUDGET_BYTES", 2 ** 18)
        monkeypatch.setattr("wickshe.cli.fk_conditional_estimate", no_sampling)
        cfg = write_cfg(tmp_path, f"seed = 1\nprobes = 0.5,0.0\n"
                                  f"output_dir = {tmp_path / 'out'}\n")
        assert main(["fk", "--config", str(cfg)]) == 2
        assert "128 noise draws x 347 levels" in capsys.readouterr().err

    def test_uncovered_probe_is_a_config_error(self, tmp_path, capsys):
        # |x| + 6 sqrt(t) = 15.7 exceeds the default quadrature.L = 12
        cfg = write_cfg(tmp_path, "seed = 1\ntruncation.N = 2\ntruncation.J = 2\n"
                                  f"probes = 0.5,11.5\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["chaos", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "quadrature.L" in err
        assert not (tmp_path / "out").exists()

    def test_probe_outside_spectral_domain_is_a_config_error(self, tmp_path, capsys):
        # quadrature.L = 30 admits (0.5, 20); the spectral engine's periodic
        # domain is [-4 pi, 4 pi), where x = 20 would read its image 20 - 8 pi
        cfg = write_cfg(tmp_path, "seed = 1\nquadrature.L = 30\nquadrature.panels = 120\n"
                                  "truncation.N = 2\ntruncation.J = 6\n"
                                  f"probes = 0.5,20.0\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["chaos", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "periodic domain" in err
        assert not (tmp_path / "out").exists()

    def test_off_step_probe_time_is_a_config_error(self, tmp_path, capsys):
        # t = 0.3 is not a multiple of the spectral engine's step 1/128
        cfg = write_cfg(tmp_path, "seed = 1\ntruncation.N = 2\ntruncation.J = 2\n"
                                  f"probes = 0.3,0.0\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["chaos", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "0.3" in err and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_oversized_truncation_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        # N = 5, J = 40 passes the parser and the enumeration cap
        # (1,221,759 indices), but one spectral state would take 3.5 GiB
        def no_enumeration(*args, **kwargs):
            raise AssertionError("indices enumerated")

        monkeypatch.setattr("wickshe.spectral.enumerate_multiindices", no_enumeration)
        cfg = write_cfg(tmp_path, "seed = 1\ntruncation.N = 5\ntruncation.J = 40\n"
                                  f"output_dir = {tmp_path / 'out'}\n")
        start = time.perf_counter()
        assert main(["chaos", "--config", str(cfg)]) == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "1221759 indices" in err and "GiB" in err
        assert not (tmp_path / "out").exists()

    def test_engine_error_exit_3(self, tmp_path, capsys, monkeypatch):
        # the parser admits x = 5 at t = 0.5 on quadrature.L = 12; a 6-wide
        # semigroup grid then fails the library's own coverage check
        monkeypatch.setattr("wickshe.cli.build_line_grid",
                            lambda half_width, panels: build_line_grid(6.0, panels))
        cfg = write_cfg(tmp_path, "seed = 1\ntruncation.N = 2\ntruncation.J = 2\n"
                                  f"probes = 0.5,5.0\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["chaos", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("engine error:") and "x = 5.0" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_equivalence_run_and_report(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "seed = 11\nprobes = 1.0,0.0\n"
                                  f"output_dir = {tmp_path/'out'}\n")
        code = main(["equivalence", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] fk_equals_mw_exactly" in out
        csv = tmp_path / "out" / "equivalence.csv"
        assert csv.exists() and csv.stat().st_size > 0
        report = (tmp_path / "out" / "report_equivalence.csv").read_text()
        assert "truncation.N" in report           # config echo
        digest = hashlib.sha256(csv.read_bytes()).hexdigest()
        assert digest in report                   # content hash of the artifact

    def test_same_seed_byte_identical(self, tmp_path):
        base = ("seed = 5\nmc.n_paths = 2000\nmc.n_noise = 20\nprobes = 0.5,0.0\n")
        for tag, threads in (("a", 1), ("b", 2), ("c", 8)):
            cfg = write_cfg(tmp_path, base + f"output_dir = {tmp_path/('o'+tag)}\n"
                                             f"threads = {threads}\n")
            assert main(["localtime", "--config", str(cfg)]) == 0
        ref = (tmp_path / "oa" / "localtime.csv").read_bytes()
        assert (tmp_path / "ob" / "localtime.csv").read_bytes() == ref
        assert (tmp_path / "oc" / "localtime.csv").read_bytes() == ref

    def test_regularity_seed_redraws_only_the_local_time_paths(self, tmp_path):
        # the chain rule keeps its library scrambling seed, so two run seeds
        # write the same exact-curve rows and differ in the local-time rows
        tables = []
        for seed in (1, 2):
            out = tmp_path / f"s{seed}"
            cfg = write_cfg(tmp_path, f"seed = {seed}\nmc.n_paths = 200\noutput_dir = {out}\n")
            assert main(["regularity", "--config", str(cfg)]) in (0, 1)
            tables.append({name: (out / name).read_text().splitlines()
                           for name in ("regularity_moments.csv", "regularity_fits.csv")})
        for name in tables[0]:
            exact, local = ([[r for r in t[name] if r.startswith("local_time,") == lt]
                             for t in tables] for lt in (False, True))
            assert exact[0] == exact[1] and len(exact[0]) > 1
            assert local[0] != local[1]

    def test_fk_byte_identical_across_threads(self, tmp_path):
        # the (probe, noise) estimates run one per worker thread; each keeps its
        # own substreams, so every CSV is the same at any worker count
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, "seed = 5\nmc.n_paths = 2000\nmc.n_noise = 10\n"
                                  f"probes = 0.5,0.0; 0.25,0.3\noutput_dir = {out}\n")
        names = ("fk_estimates.csv", "psi_law.csv", "report_fk.csv")
        digests = {name: set() for name in names}
        for threads in (1, 2, 3):
            assert main(["fk", "--config", str(cfg), "--threads", str(threads)]) in (0, 1)
            for name in names:
                digests[name].add((out / name).read_bytes())
        assert all(len(v) == 1 for v in digests.values())
        rows = (out / "fk_estimates.csv").read_text().splitlines()[1:]
        assert [tuple(r.split(",")[:4:3]) for r in rows] == [
            (str(p), str(k)) for p in range(2) for k in range(10)]

    def test_dump_ensembles(self, tmp_path):
        # the opt-in raw dumps: 50 paths at the first probe, each with its
        # skeleton and its local-time profile, both hashed in the report
        out = tmp_path / "out"
        cfg_path = write_cfg(tmp_path, "seed = 5\nmc.n_paths = 100\nmc.n_noise = 10\n"
                                       "mc.dt = 0.01\nmc.dump_ensembles = true\n"
                                       f"probes = 0.25,0.1\noutput_dir = {out}\n")
        assert main(["fk", "--config", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        report = (out / "report_fk.csv").read_text()
        tables = {}
        for name, header in (("fk_paths.csv", "path_id,t_i,B_i"),
                             ("fk_local_times.csv", "path_id,a_k,L_k")):
            raw = (out / name).read_bytes()
            lines = raw.decode().splitlines()
            assert lines[0] == header
            assert hashlib.sha256(raw).hexdigest() in report
            rows = [line.split(",") for line in lines[1:]]
            tables[name] = rows
            assert sorted({int(r[0]) for r in rows}) == list(range(min(50, cfg.mc_n_paths)))
        occupation = {}
        for pid, _, lk in tables["fk_local_times.csv"]:
            occupation[pid] = occupation.get(pid, 0.0) + float(lk) * cfg.delta_a
        assert all(abs(total - 0.25) <= 1e-12 for total in occupation.values())
        starts = [r for r in tables["fk_paths.csv"] if float(r[1]) == 0.0]
        assert len(starts) == 50 and all(float(r[2]) == 0.1 for r in starts)

    def test_localtime_rows_are_the_ensemble_statistics(self, tmp_path):
        # the fused pass writes local_time_ensemble_stats at the same seed
        from wickshe.cli import _fmt
        from wickshe.feynman_kac import local_time_ensemble_stats
        cfg = write_cfg(tmp_path, "seed = 5\nmc.n_paths = 2500\nmc.dt = 0.002\n"
                                  f"output_dir = {tmp_path / 'lt'}\nthreads = 2\n")
        assert main(["localtime", "--config", str(cfg)]) in (0, 1)
        st = local_time_ensemble_stats(1.0, 0.002, 0.79 * 0.002 ** 0.5, 2500, 5)
        want = [("mass_identity_defect", st["mass_identity_defect"], 0.0, 0.0),
                ("mean_L_at_start", st["mean_L_at_start"], st["se_L_at_start"],
                 st["bias_budget_L"]),
                ("mean_int_L2", st["mean_int_L2"], st["se_int_L2"], st["bias_budget_L2"])]
        rows = (tmp_path / "lt" / "localtime.csv").read_text().splitlines()
        assert rows[1:4] == [",".join(_fmt(v) for v in row) for row in want]
        assert [r.split(",")[0][:16] for r in rows[4:]] == ["increment_ratio_"] * 2

    def test_localtime_lags_at_coarse_level_spacing(self, tmp_path):
        # delta_a = 0.05 puts 0.1 / delta_a / 4 at 0.5, which rounds to 0:
        # the lags must still be positive multiples of delta_a, >= 2 delta_a
        cfg = write_cfg(tmp_path, "seed = 1\nmc.dt = 0.01\nmc.delta_a_factor = 0.5\n"
                                  f"mc.n_paths = 4000\noutput_dir = {tmp_path / 'lt'}\n")
        assert main(["localtime", "--config", str(cfg)]) in (0, 1)
        delta_a = 0.5 * 0.01 ** 0.5
        rows = (tmp_path / "lt" / "localtime.csv").read_text().splitlines()
        lags = [float(r.split(",")[0].split("=")[1]) for r in rows
                if r.startswith("increment_ratio_h=")]
        assert len(lags) == 2
        for h in lags:
            k = round(h / delta_a)
            assert k >= 2 and h == pytest.approx(k * delta_a, abs=1e-12)

    def test_lf_line_endings_and_float_format(self, tmp_path):
        p = write_csv(tmp_path / "x.csv", ("a", "b"), [(1.0 / 3.0, 2)])
        raw = p.read_bytes()
        assert b"\r" not in raw
        assert b"0.33333333333333331" in raw  # 17 significant digits

    def test_unknown_subcommand(self):
        from wickshe.config import RunConfig
        with pytest.raises(ConfigError, match="subcommand"):
            run("frobnicate", RunConfig())
