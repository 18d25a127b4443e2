"""Experiment runner: `wickshe <subcommand> --config FILE [--seed N] [--out DIR]
[--threads N]`.

Subcommands drive the correspondingly named module operations and emit CSV
artifacts (UTF-8, LF endings, header row, 17-significant-digit floats) plus a
report.csv embedding the resolved config, a sha256 of every emitted CSV, and
one row per executed check.  Exit code 0 when all checks pass, 1 when any
fails, 2 for configuration errors (a config whose path ensemble would exceed
the per-array memory budget included), 3 for an engine error, reported as one
``engine error:`` line on stderr.  --threads (the config key ``threads``)
sets the worker threads; no worker or BLAS thread count changes an emitted
byte.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .basis import (MultiIndex, TruncationSpec, hermite_function, hermite_function_dx,
                    hermite_function_table, snapshot_steps)
from .chain_moments import CHAIN_ORDERS
from .chaos import s_transform_chaos, s_transform_tail_estimate, second_moment
from .coefficients import CoefficientQuadrature, dx_level_coefficients
from .config import ConfigError, RunConfig, config_items, parse_config
from .feynman_kac import (EnsembleMemoryError, build_level_grid, fk_conditional_estimate,
                          local_time, local_time_ensemble_stats, ordered_map, psi_law_stats,
                          sample_noise, s_transform_ensemble_mc, simulate_path,
                          standard_error)
from .kernels import apply_heat_semigroup, build_line_grid, constant_ic, covers, sine_ic
from .regularity import (exact_increment_curve, fit_exponent,
                         local_time_temporal_increment_check)
from .spectral import SpectralChaosField
from .streams import substream
from .wiener_kernels import fk_kernel, mw_kernel, sym_cs_kernel

SUBCOMMANDS = ("chaos", "derivative", "fk", "stransform-compare", "equivalence",
               "localtime", "regularity")


@dataclass
class RunReport:
    subcommand: str
    wall_time: float = 0.0
    artifacts: list[Path] = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def add_check(self, name: str, passed: bool, detail: str):
        self.checks.append((name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        return all(p for _, p, _ in self.checks)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def encode_alpha(alpha: MultiIndex) -> str:
    """Support encoding 'j:count;j:count' (empty string for the zero index)."""
    return ";".join(f"{j}:{alpha.entry(j)}" for j in alpha.support())


def _spectral_field(cfg: RunConfig) -> SpectralChaosField:
    spec = TruncationSpec(cfg.truncation_order, cfg.truncation_modes)
    times = sorted({t for (t, _) in cfg.probes})
    try:  # non-periodizable initial condition, state over budget, off-step probe time
        f = SpectralChaosField(spec, cfg.initial_condition())
        snapshot_steps(times, f.dt)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for (t, x) in cfg.probes:
        # beyond the periodic domain the engine would answer for an image point
        if not covers(f.L, t, x):
            raise ConfigError(f"probes: ({t}, {x}) needs |x| + 6 sqrt(t) <= {f.L:.6g}, "
                              f"the half-width of the spectral engine's periodic domain")
    f.run(times)
    return f


# ---------------------------------------------------------------------------
# subcommand runners


def run_chaos(cfg: RunConfig, out: Path, report: RunReport):
    fld = _spectral_field(cfg)
    grid = build_line_grid(cfg.quadrature_half_width, cfg.quadrature_panels)
    u0 = cfg.initial_condition()
    rows = []
    worst = 0.0
    for (t, x) in cfg.probes:
        c = fld.coefficients_at(t, x)
        for a in fld.indices:
            rows.append((encode_alpha(a), t, x, c.get(a)))
        sg = float(apply_heat_semigroup(u0, t, x, grid))
        worst = max(worst, abs(c.mean - sg))
    report.artifacts.append(write_csv(out / "chaos_coefficients.csv",
                                      ("alpha_encoded", "t", "x", "value"), rows))
    report.add_check("mean_matches_semigroup", worst <= 1e-6,
                     f"max |u_(0) - semigroup| = {worst:.3e} (tol 1e-6)")


def run_derivative(cfg: RunConfig, out: Path, report: RunReport):
    fld = _spectral_field(cfg)
    spec2 = TruncationSpec(min(cfg.truncation_order, 2), cfg.truncation_modes)
    quad = CoefficientQuadrature(half_width=cfg.quadrature_half_width,
                                 panels=cfg.quadrature_panels)
    u0 = cfg.initial_condition()
    rows = []
    worst = 0.0
    for (t, x) in cfg.probes:
        c = fld.coefficients_at(t, x, deriv=True)
        for a in fld.indices:
            rows.append((encode_alpha(a), t, x, c.get(a)))
        # quadrature-vs-propagation cross-check on the |alpha| <= 2 slice
        scale = max(math.sqrt(second_moment(c)), 1e-6)
        for n in (1, 2):
            if n > cfg.truncation_order:
                continue
            qvals = dx_level_coefficients(n, t, x, u0, spec2, quad)
            for a, v in qvals.items():
                dev = abs(v - c.get(a)) / max(abs(v), 1e-2 * scale)
                worst = max(worst, dev)
    report.artifacts.append(write_csv(out / "dx_coefficients.csv",
                                      ("alpha_encoded", "t", "x", "value"), rows))
    report.add_check("dx_quadrature_vs_spectral", worst <= 1e-3,
                     f"max relative deviation = {worst:.3e} (tol 1e-3)")


def run_fk(cfg: RunConfig, out: Path, report: RunReport):
    # law of the exponent: conditional Gaussian moments and unit mean; run
    # first so that a noise count over the memory budget is refused at once
    t0, x0 = cfg.probes[0]
    pl = psi_law_stats(t0, cfg.mc_dt, cfg.delta_a, min(cfg.mc_n_paths, 50_000),
                       max(cfg.mc_n_noise * 100, 20_000), cfg.seed, x=x0,
                       threads=cfg.threads)
    u0 = cfg.initial_condition()
    grid = build_line_grid(cfg.quadrature_half_width + 8.0, cfg.quadrature_panels)
    levels = [build_level_grid(t, x, cfg.delta_a) for (t, x) in cfg.probes]
    n_paths = max(cfg.mc_n_paths // cfg.mc_n_noise, 100)

    def estimate(task: tuple[int, int]) -> tuple[float, float]:
        # every (probe, noise) estimate draws from its own substreams, so the
        # estimates run one per worker thread
        pi, k = task
        t, x = cfg.probes[pi]
        dW = sample_noise(levels[pi], substream(cfg.seed, "fk-noise", pi, k))
        return fk_conditional_estimate(t, x, u0, levels[pi], dW, n_paths, stream_seed=cfg.seed,
                                       dt=cfg.mc_dt, threads=1,
                                       stream_label=f"fk-paths-{pi}-{k}")

    tasks = [(pi, k) for pi in range(len(cfg.probes)) for k in range(cfg.mc_n_noise)]
    results = ordered_map(estimate, tasks, cfg.threads)
    rows = []
    ok = True
    detail = []
    for pi, (t, x) in enumerate(cfg.probes):
        ests = np.empty(cfg.mc_n_noise)
        for k in range(cfg.mc_n_noise):
            est, se = results[pi * cfg.mc_n_noise + k]
            rows.append((pi, t, x, k, est, se))
            ests[k] = est
        mean = float(ests.mean())
        sem = standard_error(ests)
        target = float(apply_heat_semigroup(u0, t, x, grid))
        z = (mean - target) / sem if sem > 0 else 0.0
        ok &= abs(z) <= 3.0
        detail.append(f"probe {pi}: mean={mean:.5f} target={target:.5f} z={z:+.2f}")
    report.artifacts.append(write_csv(out / "fk_estimates.csv",
                                      ("probe", "t", "x", "noise_id", "estimate", "stderr"),
                                      rows))
    report.add_check("fk_double_average", ok, "; ".join(detail))

    if cfg.mc_dump_ensembles:
        _dump_ensembles(cfg, out, report)

    psi_rows = [(k, v) for k, v in sorted(pl.items())]
    report.artifacts.append(write_csv(out / "psi_law.csv", ("quantity", "value"), psi_rows))
    zc = abs(pl["conditional_mean"] - pl["conditional_mean_target"]) / pl["conditional_se"]
    zv = abs(pl["conditional_var"] - pl["conditional_var_target"]) / pl["conditional_var_se"]
    ze = abs(pl["exp_mean"] - 1.0) / pl["exp_se"]
    report.add_check("psi_conditional_mean", zc <= 3.0, f"z = {zc:.2f}")
    report.add_check("psi_conditional_variance", zv <= 3.0, f"z = {zv:.2f}")
    report.add_check("psi_unit_mean", ze <= 3.0, f"E exp(Psi) = {pl['exp_mean']:.4f}, z = {ze:.2f}")


def _dump_ensembles(cfg: RunConfig, out: Path, report: RunReport):
    """Opt-in raw dumps: (path_id, t_i, B_i) and (path_id, a_k, L_k) for a
    small path ensemble at the first probe (these files grow quickly)."""
    t, x = cfg.probes[0]
    levels = build_level_grid(t, x, cfg.delta_a)
    n_dump = min(50, cfg.mc_n_paths)
    path_rows, lt_rows = [], []
    for pid in range(n_dump):
        t_grid, positions = simulate_path(t, cfg.mc_dt, x, substream(cfg.seed, "dump", pid))
        L = local_time(t_grid, positions, levels)
        path_rows.extend((pid, ti, bi) for ti, bi in zip(t_grid, positions))
        lt_rows.extend((pid, ak, lk) for ak, lk in zip(levels, L))
    report.artifacts.append(write_csv(out / "fk_paths.csv",
                                      ("path_id", "t_i", "B_i"), path_rows))
    report.artifacts.append(write_csv(out / "fk_local_times.csv",
                                      ("path_id", "a_k", "L_k"), lt_rows))


def _phi_cases():
    """Test functions for the S-transform comparison: zero, a scaled first
    Hermite mode, and a Gaussian bump expanded in Hermite modes."""
    zero = ("zero", lambda y: np.zeros_like(y), lambda y: np.zeros_like(y), 0.0)
    e1 = ("half_e1",
          lambda y: 0.5 * hermite_function(1, y),
          lambda y: 0.5 * hermite_function_dx(1, y),
          0.5 * math.pi ** -0.25)
    c, w = 0.3, 0.8

    def bump(y):
        return 0.6 * np.exp(-(y - c) ** 2 / (2 * w * w))

    def bump_dx(y):
        return -0.6 * (y - c) / (w * w) * np.exp(-(y - c) ** 2 / (2 * w * w))

    return [zero, e1, ("gaussian_bump", bump, bump_dx, 0.6)]


def _phi_modes(phi, J: int) -> tuple[np.ndarray, float]:
    """Hermite-mode coordinates of phi and the L2 mass missed beyond mode J."""
    g = build_line_grid(14.0, panels=56)
    vals = np.asarray(phi(g.nodes), dtype=float)
    E = hermite_function_table(J, g.nodes)
    modes = (E * g.weights) @ vals
    total = float(np.dot(vals * vals, g.weights))
    tail = max(total - float(modes @ modes), 0.0)
    return modes, tail


def run_stransform_compare(cfg: RunConfig, out: Path, report: RunReport):
    fld = _spectral_field(cfg)
    u0 = cfg.initial_condition()
    rows = []
    ok = True
    cases = _phi_cases()
    phi_modes = [_phi_modes(phi, cfg.truncation_modes) for _, phi, _, _ in cases]
    for (t, x) in cfg.probes:
        c_u = fld.coefficients_at(t, x)
        c_k = fld.coefficients_at(t, x, deriv=True)
        # one path ensemble per probe serves every phi and both fields
        mc = s_transform_ensemble_mc(t, x, u0, [(phi, phi_dx, sup)
                                                for _, phi, phi_dx, sup in cases],
                                     cfg.mc_n_paths, cfg.seed, dt=cfg.mc_dt,
                                     threads=cfg.threads, stream_label=f"st-{t}-{x}")
        for (name, _, _, _), (modes, mode_tail), mc_pair in zip(cases, phi_modes, mc):
            for field_name, table, (mc_val, se) in (("u", c_u, mc_pair[0]),
                                                     ("dx_u", c_k, mc_pair[1])):
                chaos_val = s_transform_chaos(table, modes)
                tail = s_transform_tail_estimate(table, modes) + mode_tail
                z = (chaos_val - mc_val) / max(3.0 * se + tail, 1e-300) * 3.0
                rows.append((name, field_name, t, x, chaos_val, mc_val, se, tail, z))
                ok &= abs(chaos_val - mc_val) <= 3.0 * se + tail
    report.artifacts.append(write_csv(
        out / "stransform_compare.csv",
        ("phi", "field", "t", "x", "chaos_value", "mc_value", "mc_stderr",
         "truncation_tail", "z_equivalent"), rows))
    report.add_check("stransform_cross_representation", ok,
                     "all |chaos - mc| <= 3 se + tail" if ok else "cross-check exceeded window")


def run_equivalence(cfg: RunConfig, out: Path, report: RunReport):
    quad = CoefficientQuadrature(half_width=cfg.quadrature_half_width,
                                 panels=cfg.quadrature_panels)
    rows = []
    worst_mw = 0.0
    worst_cs = 0.0
    y_grid = np.linspace(-1.0, 1.0, 5)
    for u0_name, u0 in (("constant", constant_ic()), ("sine", sine_ic())):
        for (t, x) in cfg.probes[:1]:
            for n in (1, 2):
                fk = fk_kernel(n, t, x, u0, quad)
                mw = mw_kernel(n, t, x, u0, quad)
                sym = sym_cs_kernel(n, t, x, u0, quad)
                if n == 1:
                    probes = [(float(y),) for y in y_grid]
                else:
                    probes = [(float(a), float(b)) for a in y_grid for b in y_grid]
                for ys in probes:
                    v_fk, v_mw, v_cs = fk(*ys), mw(*ys), sym(*ys)
                    rows.append((u0_name, n, t, x) + ys + ((0.0,) if n == 1 else ())
                                + (v_fk, v_mw, v_cs))
                    worst_mw = max(worst_mw, abs(v_fk - v_mw))
                    worst_cs = max(worst_cs, abs(v_fk - v_cs))
    report.artifacts.append(write_csv(
        out / "equivalence.csv",
        ("u0", "n", "t", "x", "y1", "y2", "fk", "mw", "sym_cs"), rows))
    report.add_check("fk_equals_mw_exactly", worst_mw == 0.0,
                     f"max |fk - mw| = {worst_mw:.3e} (must be exactly 0)")
    report.add_check("fk_matches_sym_cs", worst_cs <= 1e-3,
                     f"max |fk - sym_cs| = {worst_cs:.3e} (tol 1e-3)")


def run_localtime(cfg: RunConfig, out: Path, report: RunReport):
    t = 1.0
    # a lag near 0.1 in whole 4 delta_a steps, at least one; 2 delta_a on coarse levels
    if cfg.delta_a <= 0.05:
        h = 4 * max(1, round(0.1 / cfg.delta_a / 4)) * cfg.delta_a
    else:
        h = 2 * cfg.delta_a
    # the statistics and the increment table come from one path ensemble
    stats = local_time_ensemble_stats(t, cfg.mc_dt, cfg.delta_a, cfg.mc_n_paths, cfg.seed,
                                      threads=cfg.threads, h_values=[h, 2 * h])
    table = stats["increment_table"]
    rows = [("mass_identity_defect", stats["mass_identity_defect"], 0.0, 0.0),
            ("mean_L_at_start", stats["mean_L_at_start"], stats["se_L_at_start"],
             stats["bias_budget_L"]),
            ("mean_int_L2", stats["mean_int_L2"], stats["se_int_L2"],
             stats["bias_budget_L2"])]
    rows.extend((f"increment_ratio_h={hh:g}", ratio, 0.0, 0.0) for hh, ratio in table)
    report.artifacts.append(write_csv(out / "localtime.csv",
                                      ("quantity", "value", "stderr", "bias_budget"), rows))
    el0 = math.sqrt(2.0 / math.pi)
    el2 = 8.0 / (3.0 * math.sqrt(2.0 * math.pi))
    report.add_check("mass_identity_exact", stats["mass_identity_defect"] < 1e-10,
                     f"max defect {stats['mass_identity_defect']:.2e}")
    dev_l = abs(stats["mean_L_at_start"] - el0)
    win_l = 3 * stats["se_L_at_start"] + stats["bias_budget_L"]
    report.add_check("mean_local_time_at_origin", dev_l <= win_l,
                     f"|{stats['mean_L_at_start']:.5f} - {el0:.5f}| = {dev_l:.4f} <= {win_l:.4f}")
    dev_q = abs(stats["mean_int_L2"] - el2)
    win_q = 3 * stats["se_int_L2"] + stats["bias_budget_L2"]
    report.add_check("mean_quadratic_occupation", dev_q <= win_q,
                     f"|{stats['mean_int_L2']:.5f} - {el2:.5f}| = {dev_q:.4f} <= {win_q:.4f}")
    ratio = table[0][1]
    report.add_check("increment_ratio_window", 3.6 <= ratio <= 4.4,
                     f"ratio at h={table[0][0]:g}: {ratio:.3f} in [3.6, 4.4]")


def run_regularity(cfg: RunConfig, out: Path, report: RunReport):
    if cfg.ic_tag != "constant":
        raise ConfigError("regularity subcommand uses the exact chain engine and "
                          "requires initial_condition.tag = constant")
    if cfg.truncation_order not in CHAIN_ORDERS:
        raise ConfigError(f"truncation.N = {cfg.truncation_order}: the regularity "
                          f"subcommand's chain engine handles orders "
                          f"{CHAIN_ORDERS[0]}..{CHAIN_ORDERS[-1]}")
    t = 1.0
    lt_lags = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4]
    try:  # the local-time curve cuts its paths at t - h on the mc.dt grid
        snapshot_steps([t, *lt_lags], cfg.mc_dt)
    except ValueError as exc:
        raise ConfigError(f"mc.dt = {cfg.mc_dt:g}: the regularity subcommand cuts its "
                          f"local-time paths at t - h for h in {lt_lags} ({exc})") from exc
    # the time exponents are attained at the initial time; over lags far
    # below t = 1 both fields are smooth in time (slope ~2)
    base_t = {"space": t, "time": 0.0}
    lags = [2.0 ** -k for k in range(3, 9)]
    rows_m = []
    rows_f = []
    targets = {("u", "time"): (1.5, 0.2), ("dx_u", "space"): (1.0, 0.2),
               ("dx_u", "time"): (0.5, 0.2), ("u", "space"): (1.8, None)}
    results = {}
    for field_name, deriv in (("u", False), ("dx_u", True)):
        for direction in ("space", "time"):
            # the chain rule keeps the library's scrambling seed: the run
            # seed redraws only the local-time paths
            curve = exact_increment_curve(base_t[direction], direction, lags, deriv,
                                          max_order=cfg.truncation_order)
            est = fit_exponent(curve)
            results[(field_name, direction)] = est
            for h, m in zip(curve.lags, curve.moments):
                rows_m.append((field_name, direction, base_t[direction], 0.0, h, m))
            rows_f.append((field_name, direction, est.slope, est.stderr,
                           est.r_squared, est.fit_range[0], est.fit_range[1]))
    # the 3/2 law of the local-time temporal increments (Monte Carlo,
    # supplementary)
    lt_curve = local_time_temporal_increment_check(
        t, lt_lags, n_paths=min(cfg.mc_n_paths, 20000),
        stream_seed=cfg.seed, dt=cfg.mc_dt, delta_a=cfg.delta_a, threads=cfg.threads)
    lt_est = fit_exponent(lt_curve)
    for h, m in zip(lt_curve.lags, lt_curve.moments):
        rows_m.append(("local_time", "time", t, 0.0, h, m))
    rows_f.append(("local_time", "time", lt_est.slope, lt_est.stderr,
                   lt_est.r_squared, lt_est.fit_range[0], lt_est.fit_range[1]))
    report.artifacts.append(write_csv(out / "regularity_moments.csv",
                                      ("field", "direction", "base_t", "base_x",
                                       "h", "moment"), rows_m))
    report.artifacts.append(write_csv(out / "regularity_fits.csv",
                                      ("field", "direction", "slope", "stderr", "r2",
                                       "h_min", "h_max"), rows_f))
    for (fname, direction), (target, tol) in targets.items():
        est = results[(fname, direction)]
        if tol is None:
            passed = est.slope >= target
            detail = f"slope {est.slope:.3f} >= {target}"
        else:
            passed = abs(est.slope - target) <= tol
            detail = f"slope {est.slope:.3f} target {target} +- {tol}"
        passed = passed and not est.low_r2
        report.add_check(f"slope_{fname}_{direction}", passed,
                         detail + f", R2 = {est.r_squared:.4f}")
    report.add_check("local_time_temporal_slope", abs(lt_est.slope - 1.5) <= 0.2,
                     f"local-time temporal slope {lt_est.slope:.3f} target 1.5 +- 0.2")


RUNNERS: dict[str, Callable[[RunConfig, Path, RunReport], None]] = {
    "chaos": run_chaos,
    "derivative": run_derivative,
    "fk": run_fk,
    "stransform-compare": run_stransform_compare,
    "equivalence": run_equivalence,
    "localtime": run_localtime,
    "regularity": run_regularity,
}


def run(subcommand: str, cfg: RunConfig) -> RunReport:
    """Execute one subcommand; deterministic outputs for a fixed seed."""
    if subcommand not in RUNNERS:
        raise ConfigError(f"unknown subcommand '{subcommand}' (choose from {SUBCOMMANDS})")
    out = Path(cfg.output_dir)
    report = RunReport(subcommand=subcommand)
    start = time.perf_counter()
    try:
        RUNNERS[subcommand](cfg, out, report)
    except ConfigError:
        raise
    except EnsembleMemoryError as exc:
        raise ConfigError(str(exc)) from exc
    except Exception as exc:
        raise RuntimeError(f"{subcommand}: {exc}") from exc
    report.wall_time = time.perf_counter() - start
    _write_report(cfg, out, report)
    return report


def _write_report(cfg: RunConfig, out: Path, report: RunReport):
    rows = [("config", k, v) for k, v in config_items(cfg)]
    for p in report.artifacts:
        if not p.exists() or p.stat().st_size == 0:
            raise RuntimeError(f"artifact {p} is missing or empty")
        digest = hashlib.sha256(p.read_bytes()).hexdigest()
        rows.append(("artifact", p.name, digest))
    for name, passed, detail in report.checks:
        rows.append(("check", name, f"{'PASS' if passed else 'FAIL'}: {detail}"))
    path = write_csv(out / f"report_{report.subcommand}.csv",
                     ("kind", "key", "value"), rows)
    report.artifacts.append(path)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="wickshe",
                                     description="Wick stochastic-heat-equation experiments")
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--threads", type=int, default=None,
                        help="override the config's worker threads; no thread "
                             "count changes an emitted byte")
    args = parser.parse_args(argv)

    overrides: dict = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads

    try:
        cfg = parse_config(args.config, overrides)
        report = run(args.subcommand, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print("engine error: " + " ".join(str(exc).split()), file=sys.stderr)
        return 3
    for name, passed, detail in report.checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    print(f"wall time: {report.wall_time:.2f} s; artifacts in {cfg.output_dir}/")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
