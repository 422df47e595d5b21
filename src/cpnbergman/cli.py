"""Batch experiment driver.

Every computation is a subcommand taking flags and an optional JSON
config file (flags win).  Primary payloads go to stdout or --out;
JSON uses stable key order and CSV uses 17-significant-digit floats,
so identical configs give byte-identical outputs.

Exit codes: 0 success, 2 config error, 3 computation error,
4 non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from fractions import Fraction

import numpy as np

from .centering import (TracelessHermitian, center, eigenbasis_potential,
                        gauge_potential, zero_potential)
from .conversion import (conversion_polynomials, fs_monomial_integral,
                         polynomiality_criterion, admissible_eigenvalue_scan,
                         variation_series_eigen)
from .density import RadialMetric, RadialProfile, bergman_density, first_variation
from .errors import ComputationError, NonConvergenceError
from .fitting import fit_expansion, vanishing_report
from .projective import first_eigenbasis
from .quadrature import monomial_kernel_quadrature
from .ratpoly import InverseMSeries


def _frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _series_dict(s: InverseMSeries) -> dict:
    return {"lead": s.lead, "coeffs": [_frac_str(c) for c in s.coeffs]}


def _poly_dict(p) -> dict:
    return {"coeffs": [_frac_str(c) for c in p]}


def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _write_payload(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_payload(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _parse_list(text: str, kind=float):
    values = [kind(tok) for tok in str(text).split(",") if tok.strip() != ""]
    if not values:
        raise ValueError(f"expected a comma separated list of numbers, got {text!r}")
    return values


def _profile_from(family: str, cfg) -> RadialProfile:
    if family == "fs" or family == "zero":
        return RadialProfile.zero()
    if family == "eigenfunction-bump":
        return RadialProfile.eigenfunction_bump(_float(cfg, "eps"))
    if family == "rational-bump":
        return RadialProfile.rational_bump(_float(cfg, "eps"))
    if family == "phi1-poly":
        return RadialProfile(_parse_list(_need(cfg["coeffs"], "coeffs")))
    raise ValueError(f"unknown profile family {family!r}")


def _need(value, name):
    if value is None:
        raise ValueError(f"missing required parameter {name!r}")
    return value


def _int(cfg, key) -> int:
    """cfg[key] as a count: text goes through int(), which rejects "1.7"
    from a flag, and a config number must be integral, not 1.7 or true.
    Every integer parameter counts something, so none may be negative."""
    value = cfg[key]
    if not (isinstance(value, str) or type(value) is int or (
            type(value) is float and value.is_integer())):
        raise ValueError(f"parameter {key!r} must be an integer, got {value!r}")
    if int(value) < 0:
        raise ValueError(f"{key} = {int(value)} is negative")
    return int(value)


def _float(cfg, key) -> float:
    """cfg[key] as a float: text or a number, not true or null."""
    value = _need(cfg[key], key)
    if isinstance(value, str) or type(value) in (int, float):
        return float(value)
    raise ValueError(f"parameter {key!r} must be a number, got {value!r}")


# ------------------------------------------------------------------ commands

def _cmd_convert_poly(cfg) -> str:
    table = conversion_polynomials(_int(cfg, "n"), _int(cfg, "K"))
    return _json_payload({"n": table.n,
                          "rows": [[_frac_str(c) for c in row] for row in table.rows]})


def _cmd_variation(cfg) -> str:
    n = _int(cfg, "n")
    J = _int(cfg, "J") if cfg["J"] is not None else n + 4
    try:
        lam = Fraction(str(cfg["lambda"]))
    except ZeroDivisionError as err:  # Fraction("1/0")
        raise ValueError(f"lambda = {cfg['lambda']} has a zero denominator") from err
    series = variation_series_eigen(n, lam, J,
                                    centered=cfg["centered"],
                                    normalized=not cfg["unnormalized"])
    k_max = _int(cfg, "k_max")
    scan = admissible_eigenvalue_scan(n, k_max, J)
    payload = {
        "n": n,
        "lambda": _frac_str(lam),
        "J": J,
        "centered": cfg["centered"],
        "series": _series_dict(series),
        "scan": {"k_max": k_max, "admissible": sorted(scan)},
    }
    return _json_payload(payload)


def _cmd_polynomiality(cfg) -> str:
    n, k0_max = _int(cfg, "n"), _int(cfg, "k0_max")
    rows = []
    for k0 in range(1, k0_max + 1):
        ok, remainder = polynomiality_criterion(n, k0)
        rows.append({
            "k0": k0,
            "polynomial": bool(ok),
            "remainder": _poly_dict(remainder),
        })
    return _json_payload({"n": n, "k0_max": k0_max, "table": rows})


def _max_abs(err) -> float:
    """max |err|, with a NaN counted as an infinite error so no check passes on it."""
    err = np.abs(np.asarray(err, dtype=float))
    return math.inf if np.isnan(err).any() else float(np.max(err))


def _fs_norm_rel_error(log_norms, m: int) -> float:
    """Largest relative error of section norms against the Beta values j! (m-j)! / (m+1)!.

    Compared through logs: past m of about 1000 the norms are below the
    float range, where a linear ratio is 0/0.
    """
    beta = np.array([math.lgamma(j + 1) + math.lgamma(m - j + 1) for j in range(m + 1)])
    return _max_abs(np.expm1(np.asarray(log_norms) - (beta - math.lgamma(m + 2))))


def _cmd_fs_check(cfg) -> str:
    n = _int(cfg, "n")
    m_max = _int(cfg, "m_max")
    if n == 1:
        grid = [0.0, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 100.0, 1e4]
        fs = RadialMetric.fubini_study()
        worst_density = 0.0
        worst_norm = 0.0
        for m in range(m_max + 1):
            res = bergman_density(fs, m, grid, tol=1e-13)
            worst_density = max(worst_density, _max_abs(res.values - (m + 1)))
            worst_norm = max(worst_norm, _fs_norm_rel_error(res.log_norms, m))
        payload = {
            "n": 1,
            "m_max": m_max,
            "max_density_deviation": worst_density,
            "density_tol": 1e-9,
            "max_norm_rel_error": worst_norm,
            "norm_rtol": 1e-10,
            "pass": bool(worst_density < 1e-9 and worst_norm < 1e-10),
        }
        return _json_payload(payload)
    if n == 2:
        worst = 0.0
        for m in range(m_max + 1):
            for p1 in range(m + 1):
                for p2 in range(m - p1 + 1):
                    got = monomial_kernel_quadrature(2, m, (p1, p2), rtol=1e-10)
                    want = float(fs_monomial_integral(2, m, (p1, p2)))
                    worst = max(worst, abs(got / want - 1.0))
        payload = {
            "n": 2,
            "m_max": m_max,
            "max_rel_error": worst,
            "tol": 1e-8,
            "pass": bool(worst < 1e-8),
        }
        return _json_payload(payload)
    raise ValueError("fs-check supports n = 1 (density) and n = 2 (monomial integrals)")


def _cmd_density(cfg) -> str:
    metric = RadialMetric(_profile_from(cfg["metric"], cfg))
    ms = _parse_list(_need(cfg["m_list"], "m_list"), int)
    grid = _parse_list(_need(cfg["grid"], "grid"))
    tol = _float(cfg, "tol")
    results = [bergman_density(metric, m, grid, tol=tol) for m in ms]
    header = ["s"] + [f"Pi_m{m}" for m in ms]
    rows = [[s] + [res.values[i] for res in results] for i, s in enumerate(grid)]
    return _csv_text(header, rows)


def _cmd_fit(cfg) -> str:
    at_s = None if cfg["at_s"] is None else _float(cfg, "at_s")
    samples = _fit_samples(_need(cfg["samples"], "samples"), at_s)
    fit = fit_expansion(samples, _int(cfg, "n"), _int(cfg, "K"))
    payload = {
        "n": fit.n,
        "K": fit.K,
        "coeffs": [_frac_str(c) if isinstance(c, Fraction) else float(c) for c in fit.coeffs],
        "residual": float(fit.residual),
        "condition": float(fit.condition),
    }
    if cfg["vanishing_tol"] is not None:
        report = vanishing_report(fit, _int(cfg, "n"), _float(cfg, "vanishing_tol"))
        payload["vanishing"] = {
            "entries": [{"k": k, "vanishes": bool(v)} for k, v in report.entries],
            "residual": float(report.residual),
            "tol": float(report.tol),
        }
    return _json_payload(payload)


def _fit_samples(path, at_s):
    """The (m, value) pairs fit reads from path: its rows under the header
    m,value, or for an at_s the row at s = at_s of a density CSV (header
    s,Pi_m...), where an exact s wins, so at_s = inf selects the s = inf
    row, and otherwise the closest s within 1e-9.

    Both formats skip rows of nothing but commas and whitespace, and every
    other row must have as many cells as its header.  An m,value row reads
    m exactly, and its value exactly unless it has a decimal point and no
    "/"; density CSV cells are floats."""
    if at_s is not None and math.isnan(at_s):
        raise ValueError("at_s must not be nan")
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
    if not rows:
        raise ValueError("samples CSV is empty")
    (number, header), rows = rows[0], rows[1:]
    if header != ["m", "value"] if at_s is None else header[0] != "s":
        want = "m,value" if at_s is None else "s,Pi_m..."
        hint = " (a density CSV needs --at-s)" if header[0] == "s" else ""
        raise ValueError(f"samples CSV line {number} is {','.join(header)!r}: "
                         f"expected the header {want}{hint}")
    for number, row in rows:
        if len(row) != len(header):  # zip would fit the m values the row has
            raise ValueError(f"samples CSV line {number} has {len(row)} cells, "
                             f"its header {len(header)}")
    if at_s is None:
        try:
            return [(Fraction(m), Fraction(v) if "/" in v or "." not in v else float(v))
                    for _, (m, v) in rows]
        except ZeroDivisionError as err:  # Fraction("1/0")
            raise ValueError(f"samples CSV has a zero denominator: {err}") from err
    bad = [col for col in header[1:] if not col.startswith("Pi_m")]
    if bad:
        raise ValueError(f"unexpected column {bad[0]!r}")
    cells = [[float(c) for c in row] for _, row in rows]
    # 0 for an exact match, as abs(inf - inf) is nan; a row at s = nan has gap nan
    gaps = [0.0 if row[0] == at_s else abs(row[0] - at_s) for row in cells]
    if any(map(math.isnan, gaps)):  # min would compare it false both ways
        raise ValueError("density CSV has a row with s = nan")
    if not gaps:
        raise ValueError("density CSV has no data rows")
    best = cells[gaps.index(min(gaps))]
    if min(gaps) > 1e-9:
        raise ValueError(f"no grid row at s = {at_s} (closest is {best[0]})")
    return list(zip([int(col[len("Pi_m"):]) for col in header[1:]], best[1:]))


def _cmd_first_variation(cfg) -> str:
    metric = RadialMetric.fubini_study()
    phi = _profile_from(_need(cfg["phi"], "phi"), cfg)
    res = first_variation(metric, phi, _int(cfg, "m"), s=_float(cfg, "s"))
    return _json_payload(dataclasses.asdict(res))


def _cmd_center(cfg) -> str:
    kind = cfg["potential"]
    scale = _float(cfg, "scale")
    if not math.isfinite(scale):  # the payload prints it, and NaN is not JSON
        raise ValueError(f"scale must be finite, got {scale}")
    if kind == "zero":
        phi = zero_potential
    elif kind == "eigenbasis-diag":
        diag = [f for f in first_eigenbasis(1) if f.kind == "diag"][0]
        phi = eigenbasis_potential(diag, scale)
    elif kind == "gauge-diag":
        b = scale / math.sqrt(2.0)
        phi = gauge_potential(TracelessHermitian([[b, 0.0], [0.0, -b]]))
    else:
        raise ValueError(f"unknown potential {kind!r}")
    state = center(phi, tol=_float(cfg, "tol"), max_iter=_int(cfg, "max_iter"),
                   damping=_float(cfg, "damping"))
    if cfg["trace_out"]:
        rows = state.trace_csv_rows()
        _write_payload(_csv_text(rows[0], rows[1:]), cfg["trace_out"])
    payload = {
        "potential": kind,
        "scale": scale,
        "iterations": state.iteration,
        "converged": state.converged,
        "residual_norm": state.residual_norm,
        "step_norm": state.step_norm,
        "A_re": [[float(x) for x in row] for row in state.A.matrix.real],
        "A_im": [[float(x) for x in row] for row in state.A.matrix.imag],
    }
    return _json_payload(payload)


# Each command is declared once: its runner and the defaults of its
# parameters.  A key k is the flag --k (underscores written as dashes)
# and the config key k; a False default makes the flag a switch.
_COMMANDS = {
    "convert-poly": (_cmd_convert_poly, {"n": 1, "K": 3}),
    "variation": (_cmd_variation,
                  {"n": 1, "lambda": "2", "J": None, "centered": False,
                   "unnormalized": False, "k_max": 6}),
    "polynomiality": (_cmd_polynomiality, {"n": 1, "k0_max": 5}),
    "fs-check": (_cmd_fs_check, {"n": 1, "m_max": 30}),
    "density": (_cmd_density,
                {"metric": "fs", "eps": None, "coeffs": None, "m_list": None,
                 "grid": None, "tol": 1e-12}),
    "fit": (_cmd_fit,
            {"samples": None, "n": 1, "K": 2, "at_s": None, "vanishing_tol": None}),
    "first-variation": (_cmd_first_variation,
                        {"phi": None, "eps": None, "coeffs": None, "m": 20,
                         "s": 0.0}),
    "center": (_cmd_center,
               {"potential": "zero", "scale": 0.05, "tol": 1e-8, "max_iter": 50,
                "damping": 0.5, "trace_out": None}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpnbergman",
        description="Bergman density experiments on complex projective space",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, defaults) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        for key, default in defaults.items():
            # flags default to None so that an unset flag leaves the config value
            switch = {"action": "store_true", "default": None} if default is False else {}
            p.add_argument("--" + key.replace("_", "-"), dest=key, **switch)
    return parser


def _effective_config(ns: argparse.Namespace, defaults: dict) -> dict:
    cfg = dict(defaults)
    if ns.config:
        with open(ns.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        for key, value in loaded.items():
            key = key.replace("-", "_")
            if key not in cfg:
                raise ValueError(f"unknown config key {key!r}")
            if defaults[key] is False and not isinstance(value, bool):
                raise ValueError(f"config key {key!r} is a switch: expected true or false, "
                                 f"got {value!r}")
            cfg[key] = value
    for key in cfg:
        flag_value = getattr(ns, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    return cfg


def _error_payload(exc: Exception, command: str, cfg: dict) -> str:
    params = {k: (v if isinstance(v, (int, float, bool, str, type(None))) else str(v))
              for k, v in (cfg or {}).items()}
    detail = {
        "type": type(exc).__name__,
        "operation": command,
        "params": params,
        "message": str(exc),
    }
    state = getattr(exc, "state", None)
    if state is not None:
        detail["iterations"] = state.iteration
        detail["residual_norm"] = state.residual_norm
    return _json_payload({"error": detail})


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    runner, defaults = _COMMANDS[ns.command]
    cfg = None
    try:
        cfg = _effective_config(ns, defaults)
        payload = runner(cfg)
    except NonConvergenceError as exc:
        sys.stdout.write(_error_payload(exc, ns.command, cfg))
        return 4
    except ComputationError as exc:
        sys.stdout.write(_error_payload(exc, ns.command, cfg))
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stdout.write(_error_payload(exc, ns.command, cfg))
        return 2
    _write_payload(payload, ns.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
