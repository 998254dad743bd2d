"""Command-line frontend.

Every subcommand is a thin dispatcher around one library operation that
returns its data; ``run`` alone writes the artifact, prints the summary and
picks the exit code.  All tabular output is CSV with ``#``-prefixed header
comments carrying the fully resolved parameters and the tool version, so a
run is reproducible from its own artifact.  Exit codes: 0 success, 1
computation failure (any exception but ValueError), 2 bad input (ValueError).
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
from .gram import GramModel, _check_points, gram_matrix, rho_gram, rho_gram_field
from .kernels import cpn_fs_exact, cpn_fs_oracle, rho_revolution
from .models import (
    PerturbedPotential,
    make_cone_family,
    make_cyclic_weights,
    rescale_to_area,
    round_sphere,
)
from .orbifold import degree_cap_for, min_on_ray, rho_closed_detailed, rho_oracle
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


def _parse_list(p: dict, key: str, kind):
    """The comma-separated values of parameter key, each read by kind; a
    complex number may contain blanks, as in '1 + 2j'.  An empty list is bad
    input."""
    text = p[key].replace(" ", "") if kind is complex else p[key]
    values = [kind(x) for x in text.split(",") if x.strip()]
    if not values:
        raise ValueError(f"{_flag(key)}: {p[key]!r} lists no value")
    return values


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
# subcommand implementations; each takes the validated parameter dict and
# returns (header lines after the config line, CSV rows, stderr summary or
# None).  run writes the artifact; a failed computation raises.
# --------------------------------------------------------------------------

def _revolution(p, m_list, **kw):
    """rho_revolution's fields at each m of m_list on p's profile, one table for all, and
    their health line: the residual largest in size, table error, largest tail bound."""
    prof = _profile_from_params(p["profile"], p["d"], p["k"])
    table = build_potential(prof)
    fields = [rho_revolution(prof, m, table=table, **kw) for m in m_list]
    resid = max((f.integral - (m * prof.d + 1) for f, m in zip(fields, m_list)), key=abs)
    return fields, (f"health: residual={resid!r} table_error={table.error!r} "
                    f"tail_bound={max(f.tail_bound for f in fields)!r}")


def _cmd_orbifold_eval(p):
    w = _parse_weights(p["weights"])
    z = _parse_list(p, "z", complex)
    if len(z) != w.n:
        raise ValueError(f"point needs {w.n} coordinates, got {len(z)}")
    rho, floor = rho_closed_detailed(w, z)
    rows = ["rho", f"{rho!r}"]
    if p["oracle"]:
        cap = degree_cap_for(w, z, 1e-12)
        orc = rho_oracle(w, z, cap)
        rows = ["rho,oracle,tail_bound,degree_cap",
                f"{rho!r},{orc.value!r},{orc.tail_bound!r},{orc.degree_cap}"]
    return [f"health: floor={floor!r}"], rows, f"rho = {rho:.12f}"


def _cmd_orbifold_ray(p):
    w = _parse_weights(p["weights"])
    direction = np.array(_parse_list(p, "direction", float))
    t_max, nodes = p["tmax"], p["nodes"]
    t_star, rho_star = min_on_ray(w, direction, t_max, nodes=nodes)
    sq = np.sqrt(direction)
    ts = np.linspace(t_max / nodes, t_max, nodes)
    rhos, floors = rho_closed_detailed(w, ts[:, None] * sq)
    floor = max(float(floors.max()), rho_closed_detailed(w, t_star * sq)[1])
    rows = ["t,rho"] + [f"{float(t)!r},{float(rho)!r}" for t, rho in zip(ts, rhos)]
    return ([f"min: t={t_star!r} rho={rho_star!r}", f"health: floor={floor!r}"], rows,
            f"ray minimum rho = {rho_star:.12f} at t = {t_star:.9f}")


def _cmd_resonance(p):
    w = _parse_weights(p["weights"])
    cert = construct_certificate(w)
    rows = ["j,margin,sin_sum,r",
            f"{cert.j},{cert.margin!r},{cert.sin_sum!r},"
            + ";".join(map(repr, cert.r))]
    return [], rows, (f"certificate: j={cert.j} margin={cert.margin:.6e} "
                      f"sin_sum={cert.sin_sum:.6e}")


def _cmd_subunity(p):
    w = _parse_weights(p["weights"])
    if p["kmax"] < 1:  # find_subunity_point's own check, before the certificate search
        raise ValueError("k_max must be >= 1")
    wit = find_subunity_point(w, construct_certificate(w), k_max=p["kmax"])
    rows = ["t_sq,rho,k", f"{wit.t * wit.t!r},{wit.rho!r},{wit.k}"]
    return [], rows, f"witness: t^2 = {wit.t**2:.6f}, rho = {wit.rho:.6f}, k = {wit.k}"


def _cmd_revolution(p):
    m = p["m"]
    (fld,), health = _revolution(p, [m], n_samples=p["grid"])
    lines = [f"inf={fld.inf!r} sup={fld.sup!r} argmin_r={fld.argmin_r!r} "
             f"integral={fld.integral!r}", health]
    rows = ["r,rho"] + [f"{float(r)!r},{float(v)!r}" for r, v in zip(fld.r, fld.values)]
    return lines, rows, (f"rho_{m}: inf={fld.inf:.9f} sup={fld.sup:.9f} "
                         f"integral={fld.integral:.9f}")


def _scaled_cond(G) -> float:
    """Condition number of G, the Gram matrix of e_k that the Cholesky factor sees."""
    lam = np.linalg.eigvalsh(G)
    return float(lam[-1] / lam[0])


def _cmd_gram(p):
    m, zs = p["m"], _parse_list(p, "z", complex)
    _check_points(zs)  # rho_gram's own check, before G is built
    model = GramModel(m, PerturbedPotential(p["pert"]) if p["pert"] else None)
    G = gram_matrix(model)
    cond = _scaled_cond(G)
    rhos = rho_gram(G, model, np.array(zs))
    rows = ["z,rho"] + [f"{z!r},{float(rho)!r}" for z, rho in zip(zs, rhos)]
    if p["dump_gram"]:  # the one second artifact
        grows = ["i,j,re,im"] + [f"{i},{j},{float(G[i, j].real)!r},{float(G[i, j].imag)!r}"
                                 for i in range(m + 1) for j in range(m + 1)]
        _emit(_header("gram-matrix", p), grows, p["dump_gram"])
    return [f"health: scaled_cond={cond!r}"], rows, f"gram: scaled_cond = {cond:.3e}"


def _cmd_cpn(p):
    n, m = p["n"], p["m"]
    exact = cpn_fs_exact(n, m)
    rows = ["n,m,rho_exact,rho_oracle", f"{n},{m},{exact},{cpn_fs_oracle(n, m)}"]
    return [], rows, f"rho on CP^{n} at m={m}: {exact}"


def _cmd_tyz(p):
    n, m1, m2 = p["n"], p["m1"], p["m2"]
    if (p["rho1"] is None) != (p["rho2"] is None):
        raise ValueError("--rho1 and --rho2 go together")
    if p["rho1"] is not None:
        r1, r2 = p["rho1"], p["rho2"]
    else:
        r1, r2 = cpn_fs_exact(n, m1), cpn_fs_exact(n, m2)
    a1, resid = tyz_a1_estimate(r1, r2, m1, m2, n)
    return [], ["a1,residual", f"{a1!r},{resid!r}"], f"a1 = {a1:.9f} (residual {resid:.3e})"


def _cmd_lp(p):
    m = p["m"]
    pexp = math.inf if p["p"] in ("inf", "oo") else float(p["p"])
    if not pexp >= 1:  # lp_deviation's own check, before the field is computed
        raise ValueError("p must be >= 1 (or inf)")
    if p["pert"]:
        model = GramModel(m, PerturbedPotential(p["pert"]))
        G = gram_matrix(model)
        fld = rho_gram_field(model, G)
        health = (f"health: scaled_cond={_scaled_cond(G)!r} "
                  f"residual={fld.integral - (m + 1)!r}")
    else:
        (fld,), health = _revolution(p, [m])
    dev = lp_deviation(fld, pexp)
    return [health], ["p,deviation", f"{pexp},{dev!r}"], f"L^{pexp} deviation = {dev:.9e}"


def _cmd_fscurrent(p):
    m_list = _parse_list(p, "m_list", int)
    fields, health = _revolution(p, m_list)
    rows = ["m,sup_log_rho_over_m"] + [f"{m},{fs_current_sup(f)!r}" for m, f in zip(m_list, fields)]
    return [health], rows, None


def _cmd_cone_sweep(p):
    rep = cone_sweep(_parse_list(p, "k_list", int), _parse_list(p, "m_list", int),
                     n_samples=p["grid"])
    return [f"eps_witness: {rep.eps_witness!r}"], rep.to_csv().splitlines(), rep.summary()


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
        lines, rows, summary = _COMMANDS[cfg.command][0](cfg.params)
        _emit(_header(cfg.command, cfg.params) + lines, rows, cfg.params["out"])
        if summary is not None:
            print(summary, file=sys.stderr)
        return 0
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
