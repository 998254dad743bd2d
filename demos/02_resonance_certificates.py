"""Resonance certificates and explicit sub-unity witnesses.

For every cyclic weight system with q >= 3 one can pick a ray direction
r >= 0 and a character index j whose cosine sum strictly dominates all
others while its sine sum stays nonzero.  Scaling the ray by
t_k^2 = (2k+1)/|sin sum| then makes the dominant oscillatory pair land on a
negative real axis, forcing rho < 1 at an explicit point.  This demo
constructs and verifies certificates for a random battery and prints the
C/Z_3 witness in closed form.
"""

import math

import numpy as np

from bergman import (
    construct_certificate,
    find_subunity_point,
    make_cyclic_weights,
    verify_certificate,
)


def random_systems(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(1, 4))
        pairs = []
        for _ in range(n):
            q = int(rng.integers(2, 13))
            ps = [p for p in range(1, q) if math.gcd(p, q) == 1]
            pairs.append((int(rng.choice(ps)), q))
        w = make_cyclic_weights(pairs)
        if 3 <= w.q <= 60:
            out.append(w)
    return out


def main():
    w = make_cyclic_weights([(1, 3)])
    cert = construct_certificate(w)
    ok, margin, argmax = verify_certificate(w, cert)
    wit = find_subunity_point(w, cert)
    print(f"C/Z_3 certificate: j = {cert.j}, margin = {margin:.6f}, "
          f"dominant pair {sorted(argmax)}")
    print(f"witness: t^2 = {wit.t**2:.12f}  (= 2/sqrt(3))")
    print(f"rho at witness = {wit.rho:.12f}")
    print(f"closed form 1 - 2 exp(-sqrt(3) pi) "
          f"= {1 - 2 * math.exp(-math.sqrt(3) * math.pi):.12f}\n")

    systems = random_systems(50, seed=20240824)
    worst_margin, worst_rho = math.inf, 1.0
    for sys_w in systems:
        c = construct_certificate(sys_w)
        ok, margin, _ = verify_certificate(sys_w, c)
        assert ok
        res = find_subunity_point(sys_w, c)
        assert res.rho < 1.0
        worst_margin = min(worst_margin, margin)
        worst_rho = max(worst_rho, res.rho)
    print(f"battery of {len(systems)} random systems: all certificates verify")
    print(f"smallest domination margin: {worst_margin:.3e}")
    print(f"largest (closest to 1) witness rho: {worst_rho:.9f}")


if __name__ == "__main__":
    main()
