"""The three benchmark workloads: seeded inputs, one round of operations, and
the checks of every output.

A round is a fixed list of operations.  An operation is one sweep cell, one
weight system, or one CLI invocation (plus one library call for the peak
section).  Every round of a run repeats the same operations on the same
inputs, so counts repeat exactly from round to round.

The library is reached through module attributes (``bergman.X``,
``bergman.cli.run``) at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from pathlib import Path

import numpy as np

import bergman
import bergman.analysis
import bergman.cli

import checks

OK, FAILED, WRONG = "ok", "failed", "wrong"

# --------------------------------------------------------------------------
# sweep: cone_sweep over the smoothed cone family
# --------------------------------------------------------------------------

SWEEP_K = (10, 40)
SWEEP_M = (25, 100, 400)
DIP_CELLS = {(40, 25), (40, 100)}  # cells where the cone signature is resolved


def sweep_inputs(seed: int) -> dict:
    """The seed orders the grid; every seed runs the same cells."""
    rng = random.Random(seed)
    k_list, m_list = list(SWEEP_K), list(SWEEP_M)
    rng.shuffle(k_list)
    rng.shuffle(m_list)
    return {"k_list": k_list, "m_list": m_list}


@contextlib.contextmanager
def capture(namespace, attr: str, sink: list):
    """Record the return values of ``namespace.attr`` while the block runs."""
    orig = getattr(namespace, attr)

    def recording(*args, **kwargs):
        result = orig(*args, **kwargs)
        sink.append(result)
        return result

    setattr(namespace, attr, recording)
    try:
        yield sink
    finally:
        setattr(namespace, attr, orig)


def sweep_round(inp: dict, workdir: Path) -> list:
    cells = len(inp["k_list"]) * len(inp["m_list"])
    fields = []
    try:
        with capture(bergman.analysis, "rho_revolution", fields):
            rep = bergman.cone_sweep(inp["k_list"], inp["m_list"])
    except Exception as e:  # every cell of the failed call is lost
        return [(FAILED, "cone_sweep", repr(e))] * cells
    outcomes = []
    for i, row in enumerate(rep.rows):
        label = f"cell k={row.k} m={row.m}"
        try:
            checks.check_eps_witness(rep.eps_witness)
            checks.require(i < len(fields) and fields[i].m == row.m,
                           f"{label}: kernel field not captured")
            checks.check_dimension(fields[i].integral, row.m)
            checks.check_verdict(row, rep.eps_witness)
            if (row.k, row.m) in DIP_CELLS:
                checks.check_dip(row, rep.eps_witness)
        except checks.CheckFailed as e:
            outcomes.append((WRONG, label, str(e)))
        else:
            outcomes.append((OK, label, ""))
    if len(outcomes) != cells:
        outcomes.append((WRONG, "cone_sweep", f"{len(outcomes)} rows for {cells} cells"))
    return outcomes


# --------------------------------------------------------------------------
# orbifold: certificates, witnesses and ray minima on random C^n / Z_q
# --------------------------------------------------------------------------

# (q, n) of every system; the seed draws the q_l dividing q and the p_l
ORBIFOLD_SLOTS = (
    (3, 1), (4, 2), (5, 3), (6, 2), (7, 1), (8, 3), (9, 2), (10, 3),
    (12, 2), (15, 3), (20, 2), (28, 3), (36, 2), (45, 3), (60, 2),
    (84, 3), (120, 2), (168, 3), (210, 2), (252, 3), (360, 2),
)
ORACLE_MAX_Q = 12     # rho_oracle cross-check on systems up to this order
RAY_NODES = 192
RAY_SPAN = 1.5        # ray scanned to 1.5 times the witness radius


def _random_system(rng: random.Random, q: int, n: int):
    divisors = [d for d in range(2, q + 1) if q % d == 0]
    while True:
        qs = [rng.choice(divisors) for _ in range(n)]
        if math.lcm(*qs) == q:
            break
    pairs = []
    for ql in qs:
        while True:
            p = rng.randrange(1, ql)
            if math.gcd(p, ql) == 1:
                break
        pairs.append((p, ql))
    return tuple(pairs)


def orbifold_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {"systems": [_random_system(rng, q, n) for q, n in ORBIFOLD_SLOTS]}


def orbifold_op(pairs) -> None:
    w = bergman.make_cyclic_weights(pairs)
    cert = bergman.construct_certificate(w)
    checks.check_certificate(w.pairs, cert.r, cert.j)
    checks.check_rho_origin(bergman.rho_closed(w, np.zeros(w.n)), w.q)
    wit = bergman.find_subunity_point(w, cert)
    checks.check_witness(w.pairs, wit.z, wit.rho)
    t_max = RAY_SPAN * wit.t
    t_star, rho_star = bergman.min_on_ray(w, cert.r, t_max, nodes=RAY_NODES)
    checks.check_ray_minimum(w.pairs, cert.r, t_max, RAY_NODES, t_star, rho_star)
    if w.q <= ORACLE_MAX_Q:
        cap = bergman.degree_cap_for(w, wit.z, 1e-12)
        orc = bergman.rho_oracle(w, wit.z, cap)
        checks.check_oracle(bergman.rho_closed(w, wit.z), orc.value, orc.tail_bound, w.q)


def orbifold_round(inp: dict, workdir: Path) -> list:
    return [run_op(f"system {pairs}", orbifold_op, pairs) for pairs in inp["systems"]]


# --------------------------------------------------------------------------
# expansion: every shipped config, then larger diagnostics, through cli.run
# --------------------------------------------------------------------------

LP_PERT_M = (8, 16, 32, 64, 128)
REVOLUTION_M = range(1, 9)
GRAM_M = 40
GRAM_POINTS = 200
PEAK_M = 16


def _config_paths(root: Path):
    return sorted((root / "configs").glob("*.json"))


def expansion_inputs(seed: int, root: Path) -> dict:
    """Shipped configs plus seeded larger diagnostics.  The seed draws the
    Gram points, the tyz and cpn powers and the peak-section radius; the
    amount of work is the same for every seed."""
    rng = random.Random(seed)
    ops = []
    for path in _config_paths(root):
        params = json.loads(path.read_text())
        ops.append((path.stem, ["config", str(path)], params))

    def cli_op(label, command, **params):
        argv = [command]
        for key, val in params.items():
            argv.append(f"--{key.replace('_', '-')}={val}")
        argv.append(f"--out=out/{label}.csv")
        ops.append((label, argv, dict(params, command=command, out=f"out/{label}.csv")))

    cli_op("fscurrent_round", "fscurrent", profile="round", m_list="4,8,16")
    cli_op("fscurrent_cone20", "fscurrent", profile="cone", k=20, m_list="4,8,16")
    for m in LP_PERT_M:
        cli_op(f"lp_pert6_m{m}", "lp", m=m, pert=6)
    radii = [rng.uniform(0.2, 3.0) for _ in range(GRAM_POINTS)]
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(GRAM_POINTS)]
    zs = ",".join(repr(complex(r * math.cos(a), r * math.sin(a))).strip("()")
                  for r, a in zip(radii, angles))
    cli_op("gram_round", "gram", m=GRAM_M, z=zs)
    cli_op("gram_pert6", "gram", m=GRAM_M, pert=6, z=zs)
    for m in REVOLUTION_M:
        cli_op(f"revolution_round_m{m}", "revolution", profile="round", m=m)
    cli_op("cpn_n3", "cpn", n=3, m=rng.randint(2, 30))
    m1 = rng.randint(3, 20)
    cli_op("tyz_n1", "tyz", n=1, m1=m1, m2=m1 + rng.randint(1, 20))
    return {"cli": ops, "peak_radius": rng.uniform(0.05, 0.25)}


def read_csv(path: Path):
    """('#' header lines, column names, rows of strings) of a CLI artifact."""
    header, rows = [], []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            header.append(line[2:])
        elif line:
            rows.append(line.split(","))
    return header, rows[0], rows[1:]


def _column(cols, rows, name, kind=float):
    i = cols.index(name)
    return [kind(r[i]) for r in rows]


_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _floats(text: str):
    """Numbers in a field such as '1.0;3.17' (tolerates 'np.float64(1.0)')."""
    return [float(x) for x in _FLOAT.findall(text.replace("float64", ""))]


def _z_list(text: str):
    return [complex(x.replace(" ", "")) for x in str(text).split(",") if x.strip()]


def _weights(text: str):
    return tuple((int(p), int(q)) for p, q in
                 (chunk.strip().split("/") for chunk in str(text).split(",")))


def check_cli_output(params: dict, path: Path, fields: list, gram_fields: list) -> dict:
    """Check one CLI artifact by its command; returns values later checks use.

    ``fields`` and ``gram_fields`` are the kernel fields the command computed
    on the revolution and on the Gram path."""
    command = params["command"]
    header, cols, rows = read_csv(path)
    checks.require(rows, f"{path.name}: no data rows")
    for fld in fields:
        checks.check_dimension(fld.integral, fld.m)
    for fld in gram_fields:
        checks.check_gram_dimension(fld.integral, fld.m)
    round_profile = params.get("profile", "round") == "round"
    if command == "cone-sweep":
        eps = float(next(h for h in header if h.startswith("eps_witness:")).split(":")[1])
        checks.check_eps_witness(eps)
        for r in rows:
            row = bergman.SweepRow(
                k=int(r[0]), m=int(r[1]), inf_norm=float(r[2]), sup_norm=float(r[3]),
                argmin_r=float(r[4]), l1=float(r[5]), l2=float(r[6]),
                linf=float(r[7]), verdict=bool(int(r[8])))
            checks.check_verdict(row, eps)
    elif command == "cpn":
        n, m = int(params["n"]), int(params["m"])
        checks.check_cpn(n, m, _column(cols, rows, "rho_exact", int)[0])
        checks.check_cpn(n, m, _column(cols, rows, "rho_oracle", int)[0])
    elif command == "tyz":
        checks.check_tyz(int(params.get("n", 1)), _column(cols, rows, "a1")[0])
    elif command == "fscurrent":
        ms = _column(cols, rows, "m", int)
        vals = _column(cols, rows, "sup_log_rho_over_m")
        if round_profile:
            for m, v in zip(ms, vals):
                checks.check_fscurrent_round(m, v)
        else:
            checks.check_decreasing(vals, "cone fscurrent")
        checks.require(len(fields) == len(ms), f"{path.name}: {len(fields)} fields for {len(ms)} m")
    elif command == "lp":
        dev = _column(cols, rows, "deviation")[0]
        checks.require(len(fields) + len(gram_fields) == 1,
                       f"{path.name}: kernel field not captured")
        if int(params.get("pert", 0)):
            checks.check_positive([dev], f"{path.name} L1 deviation")
            return {"l1": dev}
        if round_profile:
            checks.check_lp_round(int(params["m"]), dev)
    elif command == "gram":
        rho = _column(cols, rows, "rho")
        checks.require(len(rho) == len(_z_list(params.get("z", "0"))),
                       f"{path.name}: {len(rho)} values")
        if int(params.get("pert", 0)):
            checks.check_positive(rho, f"{path.name} rho")
        else:
            m = int(params["m"])
            for v in rho:
                checks.close(v, m + 1, 1e-8, f"unperturbed Gram rho_{m}")
    elif command == "revolution":
        m = int(params["m"])
        rho = _column(cols, rows, "rho")
        checks.check_positive(rho, f"{path.name} rho")
        if round_profile:
            checks.check_round_constant(rho, m)
        checks.require(len(fields) == 1, f"{path.name}: kernel field not captured")
    elif command == "orbifold-eval":
        pairs = _weights(params["weights"])
        z = _z_list(params["z"])
        rho = _column(cols, rows, "rho")[0]
        checks.close(rho, checks.closed_form_sum(pairs, z), 1e-12, "orbifold-eval rho")
        if params.get("oracle"):
            checks.check_oracle(rho, _column(cols, rows, "oracle")[0],
                                _column(cols, rows, "tail_bound")[0],
                                math.lcm(*(q for _, q in pairs)))
    elif command == "orbifold-ray":
        pairs = _weights(params["weights"])
        direction = np.array(_floats(params["direction"]))
        ts = np.array(_column(cols, rows, "t"))
        rho = np.array(_column(cols, rows, "rho"))
        own = checks.closed_form_sum(pairs, ts[:, None] * np.sqrt(direction)[None, :])
        checks.require(np.allclose(rho, own, rtol=1e-12, atol=1e-13),
                       f"{path.name}: scan values differ from the own sum")
        t_star, rho_star = _floats(next(h for h in header if h.startswith("min:")))
        checks.check_ray_minimum(pairs, direction, float(params.get("tmax", 5.0)),
                                 int(params.get("nodes", 512)), t_star, rho_star)
    elif command == "resonance":
        pairs = _weights(params["weights"])
        j = _column(cols, rows, "j", int)[0]
        checks.check_certificate(pairs, _floats(rows[0][cols.index("r")]), j)
    elif command == "subunity":
        pairs = _weights(params["weights"])
        checks.require(len(pairs) == 1, "subunity check covers C/Z_q only")
        t = math.sqrt(_column(cols, rows, "t_sq")[0])
        checks.check_witness(pairs, [t], _column(cols, rows, "rho")[0])
    else:
        raise checks.CheckFailed(f"no check for command {command!r}")
    return {}


def cli_op(argv, params, workdir: Path) -> dict:
    fields, gram_fields = [], []
    err = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(capture(bergman.cli, "rho_revolution", fields))
        stack.enter_context(capture(bergman.analysis, "rho_revolution", fields))
        stack.enter_context(capture(bergman.cli, "rho_gram_field", gram_fields))
        code = bergman.cli.run(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()[-300:]}")
    return check_cli_output(params, workdir / params["out"], fields, gram_fields)


def peak_op(radius: float) -> None:
    prof = bergman.round_sphere()
    _, tail, rho0 = bergman.peak_section_tail(prof, PEAK_M, 0.0, radius)
    checks.check_peak_tail(PEAK_M, radius, tail, rho0)


def expansion_round(inp: dict, workdir: Path) -> list:
    outcomes, l1 = [], {}
    for label, argv, params in inp["cli"]:
        res = {}
        outcomes.append(run_op(label, lambda: res.update(cli_op(argv, params, workdir))))
        if "l1" in res:
            l1[int(params["m"])] = res["l1"]
    outcomes.append(run_op("peak_section_tail", peak_op, inp["peak_radius"]))
    try:
        checks.check_halving(l1)
    except checks.CheckFailed as e:
        outcomes.append((WRONG, "lp halving", str(e)))
    return outcomes


# --------------------------------------------------------------------------
# common
# --------------------------------------------------------------------------

def run_op(label, fn, *args):
    try:
        fn(*args)
    except checks.CheckFailed as e:
        return (WRONG, label, str(e))
    except Exception as e:
        return (FAILED, label, repr(e))
    return (OK, label, "")


def make_inputs(workload: str, seed: int, root: Path) -> dict:
    if workload == "sweep":
        return sweep_inputs(seed)
    if workload == "orbifold":
        return orbifold_inputs(seed)
    return expansion_inputs(seed, root)


ROUNDS = {"sweep": sweep_round, "orbifold": orbifold_round, "expansion": expansion_round}


def warm(workload: str) -> None:
    """First-call costs a user pays once per process: lazy imports inside
    scipy and numpy and the first solver, quadrature and LP calls."""
    if workload == "sweep":
        bergman.rho_revolution(bergman.round_sphere(), 2, n_samples=16)
        bergman.make_cone_family(10)
        bergman.flat_z3_witness_value()
    elif workload == "orbifold":
        w = bergman.make_cyclic_weights([(1, 2), (1, 3)])  # needs the LP search
        cert = bergman.construct_certificate(w)
        wit = bergman.find_subunity_point(w, cert)
        bergman.min_on_ray(w, cert.r, wit.t, nodes=8)
        bergman.rho_oracle(w, wit.z, 8)
    else:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            bergman.cli.run(["cpn", "--n", "1", "--m", "1"])
        bergman.rho_revolution(bergman.round_sphere(), 2, n_samples=16)
        model = bergman.GramModel(4, bergman.PerturbedPotential(6))
        bergman.rho_gram_field(model)
        bergman.rho_gram(bergman.gram_matrix(model), model, 0.5)
