"""Command-line frontend.

Every subcommand is a thin dispatcher around one library operation; all
tabular output is CSV with ``#``-prefixed header comments carrying the fully
resolved parameters and the tool version, so a run is reproducible from its
own artifact.  Exit codes: 0 success, 1 computation failure, 2 bad input.
"""

from __future__ import annotations

import argparse
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

_COMMANDS = ("orbifold-eval", "orbifold-ray", "resonance", "subunity",
             "revolution", "gram", "cpn", "tyz", "lp", "fscurrent", "cone-sweep")


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
        return rescale_to_area(make_cone_family(k).profile, d)
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
    if p.get("oracle"):
        cap = degree_cap_for(w, z, 1e-12)
        orc = rho_oracle(w, z, cap)
        rows = ["rho,oracle,tail_bound,degree_cap",
                f"{rho!r},{orc.value!r},{orc.tail_bound!r},{orc.degree_cap}"]
    _emit(lines, rows, p.get("out"))
    print(f"rho = {rho:.12f}", file=sys.stderr)
    return 0


def _cmd_orbifold_ray(p):
    w = _parse_weights(p["weights"])
    direction = np.array(_parse_floats(p["direction"]))
    t_max = float(p.get("tmax", 5.0))
    nodes = int(p.get("nodes", 512))
    t_star, rho_star = min_on_ray(w, direction, t_max, nodes=nodes)
    sq = np.sqrt(direction)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    rhos = rho_closed(w, ts[:, None] * sq)
    rows = ["t,rho"] + [f"{float(t)!r},{float(rho)!r}" for t, rho in zip(ts, rhos)]
    lines = _header("orbifold-ray", p) + [f"min: t={t_star!r} rho={rho_star!r}"]
    _emit(lines, rows, p.get("out"))
    print(f"ray minimum rho = {rho_star:.12f} at t = {t_star:.9f}", file=sys.stderr)
    return 0


def _cmd_resonance(p):
    w = _parse_weights(p["weights"])
    cert = construct_certificate(w)
    lines = _header("resonance", p)
    rows = ["j,margin,sin_sum,r",
            f"{cert.j},{cert.margin!r},{cert.sin_sum!r},"
            + ";".join(repr(float(x)) for x in cert.r)]
    _emit(lines, rows, p.get("out"))
    print(f"certificate: j={cert.j} margin={cert.margin:.6e} "
          f"sin_sum={cert.sin_sum:.6e}", file=sys.stderr)
    return 0


def _cmd_subunity(p):
    w = _parse_weights(p["weights"])
    cert = construct_certificate(w)
    wit = find_subunity_point(w, cert, k_max=int(p.get("kmax", 50)))
    if not wit.found:
        print(f"no sub-unity point found; best rho = {wit.rho!r}", file=sys.stderr)
        return 1
    lines = _header("subunity", p)
    rows = ["t_sq,rho,k",
            f"{wit.t * wit.t!r},{wit.rho!r},{wit.k}"]
    _emit(lines, rows, p.get("out"))
    print(f"witness: t^2 = {wit.t**2:.6f}, rho = {wit.rho:.6f}, k = {wit.k}",
          file=sys.stderr)
    return 0


def _cmd_revolution(p):
    d = int(p.get("d", 1))
    m = int(p["m"])
    prof = _profile_from_params(p.get("profile", "round"), d, p.get("k"))
    grid = int(p.get("grid", 256))
    table = build_potential(prof)
    fld = rho_revolution(prof, m, table=table, n_samples=grid)
    lines = _header("revolution", p) + [
        f"inf={fld.inf!r} sup={fld.sup!r} argmin_r={fld.argmin_r!r} "
        f"integral={fld.integral!r}",
        f"health: residual={fld.integral - (m * d + 1)!r} table_error={table.error!r}"]
    rows = ["r,rho"] + [f"{float(r)!r},{float(v)!r}" for r, v in zip(fld.r, fld.values)]
    _emit(lines, rows, p.get("out"))
    print(f"rho_{m}: inf={fld.inf:.9f} sup={fld.sup:.9f} "
          f"integral={fld.integral:.9f}", file=sys.stderr)
    return 0


def _scaled_cond(G):
    """Health line of the Gram path: the condition of the matrix it factors."""
    lam = np.linalg.eigvalsh(scaled_gram(G))
    return f"health: scaled_cond={float(lam[-1] / lam[0])!r}"


def _cmd_gram(p):
    m = int(p["m"])
    pk = int(p.get("pert", 0))
    pert = PerturbedPotential(pk) if pk else None
    model = GramModel(m, pert)
    G = gram_matrix(model)
    cond = float(np.linalg.cond(G))
    zs = _parse_complexes(p.get("z", "0"))
    rhos = rho_gram(G, model, np.array(zs))
    rows = ["z,rho"] + [f"{z!r},{float(rho)!r}" for z, rho in zip(zs, rhos)]
    lines = _header("gram", p) + [f"condition_number: {cond!r}", _scaled_cond(G)]
    _emit(lines, rows, p.get("out"))
    if p.get("dump_gram"):
        grows = ["i,j,re,im"]
        for i in range(m + 1):
            for j in range(m + 1):
                grows.append(f"{i},{j},{G[i, j].real!r},{G[i, j].imag!r}")
        _emit(_header("gram-matrix", p), grows, p["dump_gram"])
    print(f"gram: cond = {cond:.3e}", file=sys.stderr)
    return 0


def _cmd_cpn(p):
    n = int(p["n"])
    m = int(p["m"])
    exact = cpn_fs_exact(n, m)
    oracle = cpn_fs_oracle(n, m)
    lines = _header("cpn", p)
    rows = ["n,m,rho_exact,rho_oracle", f"{n},{m},{exact},{oracle}"]
    _emit(lines, rows, p.get("out"))
    print(f"rho on CP^{n} at m={m}: {exact}", file=sys.stderr)
    return 0


def _cmd_tyz(p):
    n = int(p.get("n", 1))
    m1, m2 = int(p["m1"]), int(p["m2"])
    if "rho1" in p and p["rho1"] is not None:
        r1, r2 = float(p["rho1"]), float(p["rho2"])
    else:
        r1, r2 = cpn_fs_exact(n, m1), cpn_fs_exact(n, m2)
    a1, resid = tyz_a1_estimate(r1, r2, m1, m2, n)
    lines = _header("tyz", p)
    rows = ["a1,residual", f"{a1!r},{resid!r}"]
    _emit(lines, rows, p.get("out"))
    print(f"a1 = {a1:.9f} (residual {resid:.3e})", file=sys.stderr)
    return 0


def _cmd_lp(p):
    m = int(p["m"])
    pexp = math.inf if p.get("p", "1") in ("inf", "oo") else float(p.get("p", "1"))
    pk = int(p.get("pert", 0))
    lines = _header("lp", p)
    if pk:
        model = GramModel(m, PerturbedPotential(pk))
        G = gram_matrix(model)
        fld = rho_gram_field(model, G)
        n = 1
        lines.append(f"{_scaled_cond(G)} residual={fld.integral - (m + 1)!r}")
    else:
        prof = _profile_from_params(p.get("profile", "round"), int(p.get("d", 1)), p.get("k"))
        table = build_potential(prof)
        fld = rho_revolution(prof, m, table=table)
        n = 1
        lines.append(f"health: table_error={table.error!r}")
    dev = lp_deviation(fld, pexp, n)
    rows = ["p,deviation", f"{pexp},{dev!r}"]
    _emit(lines, rows, p.get("out"))
    print(f"L^{pexp} deviation = {dev:.9e}", file=sys.stderr)
    return 0


def _cmd_fscurrent(p):
    m_list = _parse_ints(p.get("m_list", "10,20,40,80"))
    prof = _profile_from_params(p.get("profile", "round"), int(p.get("d", 1)), p.get("k"))
    table = build_potential(prof)
    rows = ["m,sup_log_rho_over_m"]
    for m in m_list:
        fld = rho_revolution(prof, m, table=table)
        rows.append(f"{m},{fs_current_sup(fld)!r}")
    _emit(_header("fscurrent", p) + [f"health: table_error={table.error!r}"],
          rows, p.get("out"))
    return 0


def _cmd_cone_sweep(p):
    k_list = _parse_ints(p.get("k_list", "10,20,40"))
    m_list = _parse_ints(p.get("m_list", "25,100,400"))
    rep = cone_sweep(k_list, m_list, n_samples=int(p.get("grid", 1024)))
    lines = _header("cone-sweep", p) + [f"eps_witness: {rep.eps_witness!r}"]
    _emit(lines, rep.to_csv().splitlines(), p.get("out"))
    print(rep.summary(), file=sys.stderr)
    return 0


_DISPATCH = {
    "orbifold-eval": _cmd_orbifold_eval,
    "orbifold-ray": _cmd_orbifold_ray,
    "resonance": _cmd_resonance,
    "subunity": _cmd_subunity,
    "revolution": _cmd_revolution,
    "gram": _cmd_gram,
    "cpn": _cmd_cpn,
    "tyz": _cmd_tyz,
    "lp": _cmd_lp,
    "fscurrent": _cmd_fscurrent,
    "cone-sweep": _cmd_cone_sweep,
}

# per-command parameter schema: name -> (required, default)
_SCHEMA = {
    "orbifold-eval": {"weights": (True, None), "z": (True, None),
                      "oracle": (False, False), "out": (False, None)},
    "orbifold-ray": {"weights": (True, None), "direction": (True, None),
                     "tmax": (False, 5.0), "nodes": (False, 512), "out": (False, None)},
    "resonance": {"weights": (True, None), "out": (False, None)},
    "subunity": {"weights": (True, None), "kmax": (False, 50), "out": (False, None)},
    "revolution": {"profile": (False, "round"), "d": (False, 1), "k": (False, None),
                   "m": (True, None), "grid": (False, 256), "out": (False, None)},
    "gram": {"m": (True, None), "pert": (False, 0), "z": (False, "0"),
             "dump_gram": (False, None), "out": (False, None)},
    "cpn": {"n": (True, None), "m": (True, None), "out": (False, None)},
    "tyz": {"n": (False, 1), "m1": (True, None), "m2": (True, None),
            "rho1": (False, None), "rho2": (False, None), "out": (False, None)},
    "lp": {"profile": (False, "round"), "d": (False, 1), "k": (False, None),
           "m": (True, None), "p": (False, "1"), "pert": (False, 0), "out": (False, None)},
    "fscurrent": {"profile": (False, "round"), "d": (False, 1), "k": (False, None),
                  "m_list": (False, "10,20,40,80"), "out": (False, None)},
    "cone-sweep": {"k_list": (False, "10,20,40"), "m_list": (False, "25,100,400"),
                   "grid": (False, 1024), "out": (False, None)},
}


def _validate(command: str, params: dict) -> dict:
    if command not in _SCHEMA:
        raise ValueError(f"unknown command {command!r}")
    schema = _SCHEMA[command]
    unknown = set(params) - set(schema)
    if unknown:
        raise ValueError(f"unknown keys for {command}: {sorted(unknown)}")
    resolved = {}
    for key, (required, default) in schema.items():
        if key in params and params[key] is not None:
            resolved[key] = params[key]
        elif required:
            raise ValueError(f"{command} requires --{key.replace('_', '-')}")
        else:
            resolved[key] = default
    for key in ("out", "dump_gram"):
        folder = os.path.dirname(os.path.abspath(resolved.get(key) or "."))
        if resolved.get(key) and not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ValueError(f"--{key.replace('_', '-')}: {folder} is not a writable directory")
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


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="bergman",
        description="Bergman kernel laboratory for model polarized surfaces")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")
    specs = {
        "orbifold-eval": [("--weights", str), ("--z", str),
                          ("--oracle", "flag"), ("--out", str)],
        "orbifold-ray": [("--weights", str), ("--direction", str),
                         ("--tmax", float), ("--nodes", int), ("--out", str)],
        "resonance": [("--weights", str), ("--out", str)],
        "subunity": [("--weights", str), ("--kmax", int), ("--out", str)],
        "revolution": [("--profile", str), ("--d", int), ("--k", int),
                       ("--m", int), ("--grid", int), ("--out", str)],
        "gram": [("--m", int), ("--pert", int), ("--z", str),
                 ("--dump-gram", str), ("--out", str)],
        "cpn": [("--n", int), ("--m", int), ("--out", str)],
        "tyz": [("--n", int), ("--m1", int), ("--m2", int),
                ("--rho1", float), ("--rho2", float), ("--out", str)],
        "lp": [("--profile", str), ("--d", int), ("--k", int), ("--m", int),
               ("--p", str), ("--pert", int), ("--out", str)],
        "fscurrent": [("--profile", str), ("--d", int), ("--k", int),
                      ("--m-list", str), ("--out", str)],
        "cone-sweep": [("--k-list", str), ("--m-list", str), ("--grid", int),
                       ("--out", str)],
    }
    for name, args in specs.items():
        sp = sub.add_parser(name)
        for flag, kind in args:
            if kind == "flag":
                sp.add_argument(flag, action="store_true")
            else:
                sp.add_argument(flag, type=kind)
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
        return _DISPATCH[cfg.command](cfg.params)
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # computation failure
        print(f"computation failed: {e}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
