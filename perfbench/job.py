"""One benchmark job in a fresh interpreter, as a user would run it.

    python3 perfbench/job.py SPEC.json

SPEC.json (written by run.py) names the job and where to put its stamps:

* ``{"kind": "cli", "argv": [...]}`` runs ``wickshe.cli.main(argv)``, exactly
  what the ``wickshe`` console script does.
* ``{"kind": "library", "library": "oracle" | "chain-regularity", "params": {...}}``
  runs one of the library jobs below, which write CSV artifacts and a
  ``report_<name>.csv`` in the CLI's format and use its exit codes (0 all
  checks pass, 1 some check failed; an engine error escapes as a traceback
  and leaves no report).

The job writes ``{"call": t, "done": t, "import_s": s, "trace": {...}}`` to
``spec["stamps"]``; ``call`` and ``done`` are ``time.monotonic()`` readings
taken just before the runner is called and just after the report is written.
With ``"setup_only": true`` the job stops at the runner call, so only set-up
is paid.  With ``"trace": true`` the layer wrappers of tracing.py are
installed after import.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from pathlib import Path

from tracing import ImportTimer, Tracer, install


class _SetupDone(Exception):
    pass


def _fmt(v) -> str:
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _write_csv(path: Path, header, rows) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def _write_report(out: Path, name: str, params: dict, artifacts, checks) -> bool:
    rows = [("config", k, v) for k, v in sorted(params.items())]
    rows += [("artifact", p.name, hashlib.sha256(p.read_bytes()).hexdigest())
             for p in artifacts]
    rows += [("check", c, f"{'PASS' if ok else 'FAIL'}: {detail}") for c, ok, detail in checks]
    _write_csv(out / f"report_{name}.csv", ("kind", "key", "value"), rows)
    return all(ok for _, ok, _ in checks)


def _encode_alpha(alpha) -> str:
    return ";".join(f"{j}:{alpha.entry(j)}" for j in alpha.support())


def oracle_job(p: dict, out: Path) -> bool:
    """Crank-Nicolson propagator against level quadrature (criterion 4's rule:
    relative deviation <= 1e-3 with a 1e-2 floor) for |alpha| = 1, 2."""
    from wickshe import basis, coefficients, kernels, propagator
    spec = basis.TruncationSpec(p["N"], p["J"])
    grid = propagator.PropagatorGrid(dt=p["dt"], dx=p["dx"])
    quad = coefficients.CoefficientQuadrature(panels=p["panels"])
    t, x = p["t"], p["x"]
    rows, worst = [], 0.0
    for ic_name in ("constant", "sine"):
        ic = kernels.initial_condition_from_tag(ic_name)
        sol = propagator.propagator_oracle(spec, ic, grid, [t])
        cn = sol.coefficients_at(t, x)
        for n in (1, 2):
            for a, v in coefficients.cs_level_coefficients(n, t, x, ic, spec, quad).items():
                worst = max(worst, abs(v - cn.get(a)) / max(abs(v), 1e-2))
                rows.append((ic_name, _encode_alpha(a), t, x, v, cn.get(a)))
    art = _write_csv(out / "oracle.csv",
                     ("u0", "alpha_encoded", "t", "x", "quadrature", "propagator"), rows)
    return _write_report(out, "oracle", p, [art], [
        ("propagator_vs_quadrature", worst <= 1e-3,
         f"max relative deviation = {worst:.3e} (tol 1e-3)")])


def chain_regularity_job(p: dict, out: Path) -> bool:
    """The derivative field's half of the ``regularity`` subcommand: exact
    chain-pairing curves in space and time plus the local-time temporal law."""
    from wickshe import regularity
    t, lags = 1.0, [2.0 ** -k for k in range(3, 9)]
    targets = {"space": 1.0, "time": 0.5}
    rows_m, rows_f, checks = [], [], []
    for direction, target in targets.items():
        curve = regularity.exact_increment_curve(t, direction, lags, True,
                                                 max_order=p["N"], rng_seed=p["seed"])
        est = regularity.fit_exponent(curve)
        rows_m += [("dx_u", direction, h, m) for h, m in zip(curve.lags, curve.moments)]
        rows_f.append(("dx_u", direction, est.slope, est.stderr, est.r_squared))
        checks.append((f"slope_dx_u_{direction}",
                       abs(est.slope - target) <= 0.2 and est.r_squared >= 0.98,
                       f"slope {est.slope:.3f} target {target} +- 0.2, "
                       f"R2 = {est.r_squared:.4f}"))
    dt = p["dt"]
    lt = regularity.local_time_temporal_increment_check(
        t, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4], n_paths=p["n_paths"], stream_seed=p["seed"],
        dt=dt, delta_a=0.79 * math.sqrt(dt), threads=p["threads"])
    est = regularity.fit_exponent(lt)
    rows_m += [("local_time", "time", h, m) for h, m in zip(lt.lags, lt.moments)]
    rows_f.append(("local_time", "time", est.slope, est.stderr, est.r_squared))
    checks.append(("local_time_temporal_slope", abs(est.slope - 1.5) <= 0.2,
                   f"local-time temporal slope {est.slope:.3f} target 1.5 +- 0.2"))
    arts = [_write_csv(out / "regularity_moments.csv",
                       ("field", "direction", "h", "moment"), rows_m),
            _write_csv(out / "regularity_fits.csv",
                       ("field", "direction", "slope", "stderr", "r2"), rows_f)]
    return _write_report(out, "chain-regularity", p, arts, checks)


LIBRARY_JOBS = {"oracle": oracle_job, "chain-regularity": chain_regularity_job}


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    stamps: dict = {}
    timer = ImportTimer({"wickshe.chain_moments": "chain_moments.import_s"})
    if spec["trace"]:
        sys.meta_path.insert(0, timer)
    tracer = Tracer()
    try:
        start = time.perf_counter()
        if spec["kind"] == "cli":
            import wickshe.cli as entry
        else:
            import wickshe as entry
        stamps["import_s"] = time.perf_counter() - start
        if spec["trace"]:
            install(tracer)

        if spec["kind"] == "cli":
            run = entry.run

            def timed_run(subcommand, cfg):
                stamps["call"] = time.monotonic()
                if spec["setup_only"]:
                    raise _SetupDone
                try:
                    return run(subcommand, cfg)
                finally:
                    stamps["done"] = time.monotonic()

            entry.run = timed_run
            try:
                return entry.main(spec["argv"])
            except _SetupDone:
                return 0

        job = LIBRARY_JOBS[spec["library"]]
        stamps["call"] = time.monotonic()
        if spec["setup_only"]:
            return 0
        try:
            return 0 if job(spec["params"], Path(spec["out"])) else 1
        finally:
            stamps["done"] = time.monotonic()
    finally:
        if spec["trace"]:
            stamps["trace"] = tracer.summary()
            stamps["trace"]["imports"] = timer.seconds
        Path(spec["stamps"]).write_text(json.dumps(stamps))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
