"""Command-line frontend.

Every subcommand is a thin dispatcher around one library operation; all
tabular output is CSV with ``#``-prefixed header comments carrying the fully
resolved parameters and the tool version, so a run is reproducible from its
own artifact.  Exit codes: 0 success, 1 computation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    cone_sweep,
    fs_current_sup,
    lp_deviation,
    tyz_a1_estimate,
)
from .gram import GramModel, gram_matrix, rho_gram, rho_gram_field, scaled_gram
from .kernels import cpn_fs_exact, cpn_fs_oracle, rho_revolution
from .models import (
    PerturbedPotential,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    round_sphere,
)
from .orbifold import min_on_ray, rho_closed, rho_oracle, degree_cap_for
from .potential import build_potential
from .resonance import construct_certificate, find_subunity_point

__all__ = ["main", "run", "parse_config", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    command: str
    params: dict


def _parse_weights(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "/" not in chunk:
            raise ValueError(f"weight {chunk!r} must look like p/q")
        p, q = chunk.split("/", 1)
        pairs.append((int(p), int(q)))
    return make_cyclic_weights(pairs)


def _parse_floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _parse_ints(text: str):
    return [int(x) for x in text.split(",") if x.strip()]


def _parse_complexes(text: str):
    return [complex(x.replace(" ", "")) for x in text.split(",") if x.strip()]


def _header(command: str, params: dict):
    resolved = json.dumps(params, sort_keys=True, default=str)
    return [f"bergman {__version__}", f"command: {command}", f"config: {resolved}"]


def _emit(lines, rows, out_path):
    """Write '#' headers plus CSV rows to a file or stdout."""
    text = "".join(f"# {ln}\n" for ln in lines) + "".join(r + "\n" for r in rows)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _profile_from_params(name: str, d: int, k: int | None):
    if name == "round":
        return round_sphere(d)
    if name == "cone":
        if not k:
            raise ValueError("cone profile needs --k")
        return rescale_to_area(make_cone_family(k), d)
    raise ValueError(f"unknown profile {name!r} (choose round or cone)")


# --------------------------------------------------------------------------
# subcommand implementations; each takes the validated parameter dict
# --------------------------------------------------------------------------

def _cmd_orbifold_eval(p):
    w = _parse_weights(p["weights"])
    z = _parse_complexes(p["z"])
    if len(z) != w.n:
        raise ValueError(f"point needs {w.n} coordinates, got {len(z)}")
    rho = rho_closed(w, z)
    lines = _header("orbifold-eval", p)
    rows = ["rho", f"{rho!r}"]
    if p["oracle"]:
        cap = degree_cap_for(w, z, 1e-12)
        orc = rho_oracle(w, z, cap)
        rows = ["rho,oracle,tail_bound,degree_cap",
                f"{rho!r},{orc.value!r},{orc.tail_bound!r},{orc.degree_cap}"]
    _emit(lines, rows, p["out"])
    print(f"rho = {rho:.12f}", file=sys.stderr)
    return 0


def _cmd_orbifold_ray(p):
    w = _parse_weights(p["weights"])
    direction = np.array(_parse_floats(p["direction"]))
    t_max = p["tmax"]
    nodes = p["nodes"]
    t_star, rho_star = min_on_ray(w, direction, t_max, nodes=nodes)
    sq = np.sqrt(direction)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    rhos = rho_closed(w, ts[:, None] * sq)
    rows = ["t,rho"] + [f"{float(t)!r},{float(rho)!r}" for t, rho in zip(ts, rhos)]
    lines = _header("orbifold-ray", p) + [f"min: t={t_star!r} rho={rho_star!r}"]
    _emit(lines, rows, p["out"])
    print(f"ray minimum rho = {rho_star:.12f} at t = {t_star:.9f}", file=sys.stderr)
    return 0


def _cmd_resonance(p):
    w = _parse_weights(p["weights"])
    cert = construct_certificate(w)
    lines = _header("resonance", p)
    rows = ["j,margin,sin_sum,r",
            f"{cert.j},{cert.margin!r},{cert.sin_sum!r},"
            + ";".join(repr(float(x)) for x in cert.r)]
    _emit(lines, rows, p["out"])
    print(f"certificate: j={cert.j} margin={cert.margin:.6e} "
          f"sin_sum={cert.sin_sum:.6e}", file=sys.stderr)
    return 0


def _cmd_subunity(p):
    w = _parse_weights(p["weights"])
    cert = construct_certificate(w)
    wit = find_subunity_point(w, cert, k_max=p["kmax"])
    if not wit.found:
        print(f"no sub-unity point found; best rho = {wit.rho!r}", file=sys.stderr)
        return 1
    lines = _header("subunity", p)
    rows = ["t_sq,rho,k",
            f"{wit.t * wit.t!r},{wit.rho!r},{wit.k}"]
    _emit(lines, rows, p["out"])
    print(f"witness: t^2 = {wit.t**2:.6f}, rho = {wit.rho:.6f}, k = {wit.k}",
          file=sys.stderr)
    return 0


def _cmd_revolution(p):
    d = p["d"]
    m = p["m"]
    prof = _profile_from_params(p["profile"], d, p["k"])
    grid = p["grid"]
    table = build_potential(prof)
    fld = rho_revolution(prof, m, table=table, n_samples=grid)
    lines = _header("revolution", p) + [
        f"inf={fld.inf!r} sup={fld.sup!r} argmin_r={fld.argmin_r!r} "
        f"integral={fld.integral!r}",
        f"health: residual={fld.integral - (m * d + 1)!r} table_error={table.error!r} "
        f"tail_bound={fld.tail_bound!r}"]
    rows = ["r,rho"] + [f"{float(r)!r},{float(v)!r}" for r, v in zip(fld.r, fld.values)]
    _emit(lines, rows, p["out"])
    print(f"rho_{m}: inf={fld.inf:.9f} sup={fld.sup:.9f} "
          f"integral={fld.integral:.9f}", file=sys.stderr)
    return 0


def _scaled_cond(G) -> float:
    """Condition number of the matrix the Gram path factors."""
    lam = np.linalg.eigvalsh(scaled_gram(G))
    return float(lam[-1] / lam[0])


def _cmd_gram(p):
    m = p["m"]
    pk = p["pert"]
    pert = PerturbedPotential(pk) if pk else None
    model = GramModel(m, pert)
    G = gram_matrix(model)
    cond = _scaled_cond(G)
    zs = _parse_complexes(p["z"])
    rhos = rho_gram(G, model, np.array(zs))
    rows = ["z,rho"] + [f"{z!r},{float(rho)!r}" for z, rho in zip(zs, rhos)]
    lines = _header("gram", p) + [f"health: scaled_cond={cond!r}"]
    _emit(lines, rows, p["out"])
    if p["dump_gram"]:
        grows = ["i,j,re,im"]
        for i in range(m + 1):
            for j in range(m + 1):
                grows.append(f"{i},{j},{float(G[i, j].real)!r},{float(G[i, j].imag)!r}")
        _emit(_header("gram-matrix", p), grows, p["dump_gram"])
    print(f"gram: scaled_cond = {cond:.3e}", file=sys.stderr)
    return 0


def _cmd_cpn(p):
    n = p["n"]
    m = p["m"]
    exact = cpn_fs_exact(n, m)
    oracle = cpn_fs_oracle(n, m)
    lines = _header("cpn", p)
    rows = ["n,m,rho_exact,rho_oracle", f"{n},{m},{exact},{oracle}"]
    _emit(lines, rows, p["out"])
    print(f"rho on CP^{n} at m={m}: {exact}", file=sys.stderr)
    return 0


def _cmd_tyz(p):
    n = p["n"]
    m1, m2 = p["m1"], p["m2"]
    if (p["rho1"] is None) != (p["rho2"] is None):
        raise ValueError("--rho1 and --rho2 go together")
    if p["rho1"] is not None:
        r1, r2 = p["rho1"], p["rho2"]
    else:
        r1, r2 = cpn_fs_exact(n, m1), cpn_fs_exact(n, m2)
    a1, resid = tyz_a1_estimate(r1, r2, m1, m2, n)
    lines = _header("tyz", p)
    rows = ["a1,residual", f"{a1!r},{resid!r}"]
    _emit(lines, rows, p["out"])
    print(f"a1 = {a1:.9f} (residual {resid:.3e})", file=sys.stderr)
    return 0


def _cmd_lp(p):
    m = p["m"]
    pexp = math.inf if p["p"] in ("inf", "oo") else float(p["p"])
    pk = p["pert"]
    lines = _header("lp", p)
    if pk:
        model = GramModel(m, PerturbedPotential(pk))
        G = gram_matrix(model)
        fld = rho_gram_field(model, G)
        lines.append(f"health: scaled_cond={_scaled_cond(G)!r} "
                     f"residual={fld.integral - (m + 1)!r}")
    else:
        prof = _profile_from_params(p["profile"], p["d"], p["k"])
        table = build_potential(prof)
        fld = rho_revolution(prof, m, table=table)
        lines.append(f"health: residual={fld.integral - (m * prof.d + 1)!r} "
                     f"table_error={table.error!r} tail_bound={fld.tail_bound!r}")
    dev = lp_deviation(fld, pexp)
    rows = ["p,deviation", f"{pexp},{dev!r}"]
    _emit(lines, rows, p["out"])
    print(f"L^{pexp} deviation = {dev:.9e}", file=sys.stderr)
    return 0


def _cmd_fscurrent(p):
    m_list = _parse_ints(p["m_list"])
    prof = _profile_from_params(p["profile"], p["d"], p["k"])
    table = build_potential(prof)
    rows, resid, tail = ["m,sup_log_rho_over_m"], 0.0, 0.0
    for m in m_list:
        fld = rho_revolution(prof, m, table=table)
        rows.append(f"{m},{fs_current_sup(fld)!r}")
        resid = max(resid, fld.integral - (m * prof.d + 1), key=abs)
        tail = max(tail, fld.tail_bound)
    _emit(_header("fscurrent", p) + [f"health: residual={resid!r} table_error={table.error!r} "
                                     f"tail_bound={tail!r}"], rows, p["out"])
    return 0


def _cmd_cone_sweep(p):
    k_list = _parse_ints(p["k_list"])
    m_list = _parse_ints(p["m_list"])
    rep = cone_sweep(k_list, m_list, n_samples=p["grid"])
    lines = _header("cone-sweep", p) + [f"eps_witness: {rep.eps_witness!r}"]
    _emit(lines, rep.to_csv().splitlines(), p["out"])
    print(rep.summary(), file=sys.stderr)
    return 0


_REQUIRED = object()  # the default of a parameter that has none
_PROFILE = [("profile", str, "round"), ("d", int, 1), ("k", int, None)]

# command -> (handler, [(name, type, default)]); bool marks a flag, and every
# command also takes --out.  Handlers look library functions up at call time.
_COMMANDS = {
    "orbifold-eval": (_cmd_orbifold_eval, [("weights", str, _REQUIRED), ("z", str, _REQUIRED),
                                           ("oracle", bool, False)]),
    "orbifold-ray": (_cmd_orbifold_ray, [("weights", str, _REQUIRED), ("direction", str, _REQUIRED),
                                         ("tmax", float, 5.0), ("nodes", int, 512)]),
    "resonance": (_cmd_resonance, [("weights", str, _REQUIRED)]),
    "subunity": (_cmd_subunity, [("weights", str, _REQUIRED), ("kmax", int, 50)]),
    "revolution": (_cmd_revolution, _PROFILE + [("m", int, _REQUIRED), ("grid", int, 256)]),
    "gram": (_cmd_gram, [("m", int, _REQUIRED), ("pert", int, 0), ("z", str, "0"),
                         ("dump_gram", str, None)]),
    "cpn": (_cmd_cpn, [("n", int, _REQUIRED), ("m", int, _REQUIRED)]),
    "tyz": (_cmd_tyz, [("n", int, 1), ("m1", int, _REQUIRED), ("m2", int, _REQUIRED),
                       ("rho1", float, None), ("rho2", float, None)]),
    "lp": (_cmd_lp, _PROFILE + [("m", int, _REQUIRED), ("p", str, "1"), ("pert", int, 0)]),
    "fscurrent": (_cmd_fscurrent, _PROFILE + [("m_list", str, "10,20,40,80")]),
    "cone-sweep": (_cmd_cone_sweep, [("k_list", str, "10,20,40"), ("m_list", str, "25,100,400"),
                                     ("grid", int, 1024)]),
}


def _params(command: str):
    return _COMMANDS[command][1] + [("out", str, None)]


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _validate(command: str, params: dict) -> dict:
    """Every parameter of the command, defaults filled in and each value
    converted once by the table's type; raises ValueError on bad input."""
    if not isinstance(command, str) or command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    unknown = set(params) - {key for key, _, _ in _params(command)}
    if unknown:
        raise ValueError(f"unknown keys for {command}: {sorted(unknown)}")
    resolved = {}
    for key, kind, default in _params(command):
        value = params.get(key)
        if value is None and default is _REQUIRED:
            raise ValueError(f"{command} requires {_flag(key)}")
        try:
            if value is not None and isinstance(value, bool) != (kind is bool):
                raise TypeError  # bool("false") is True and int(True) is 1
            if kind is int and isinstance(value, float) and not value.is_integer():
                raise TypeError  # int(3.7) is 3
            resolved[key] = default if value is None else kind(value)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"{_flag(key)}: {value!r} is not of type {kind.__name__}") from None
    for key in ("out", "dump_gram"):
        folder = os.path.dirname(os.path.abspath(resolved.get(key) or "."))
        if resolved.get(key) and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"{_flag(key)}: {folder} is not a writable directory")
    return resolved


def parse_config(path: str) -> RunConfig:
    """Load and validate a JSON run configuration."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"malformed config {path}: {e}") from e
    if not isinstance(doc, dict) or "command" not in doc:
        raise ValueError("config must be an object with a 'command' key")
    command = doc["command"]
    params = {k: v for k, v in doc.items() if k != "command"}
    return RunConfig(command=command, params=_validate(command, params))


@functools.cache  # built once per process; parse_args leaves it unchanged
def _build_parser():
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernel laboratory for model polarized surfaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")
    for command in _COMMANDS:
        sp = sub.add_parser(command)
        for key, kind, _ in _params(command):
            if kind is bool:
                sp.add_argument(_flag(key), action="store_true")
            else:
                sp.add_argument(_flag(key), type=kind)
    cp = sub.add_parser("config")
    cp.add_argument("path")
    return ap


def run(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    if ns.command is None:
        ap.print_help()
        return 2
    try:
        if ns.command == "config":
            cfg = parse_config(ns.path)
        else:
            params = {k: v for k, v in vars(ns).items() if k != "command"}
            cfg = RunConfig(ns.command, _validate(ns.command, params))
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[cfg.command][0](cfg.params)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation failure
        print(f"computation failed: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
