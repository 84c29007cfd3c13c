"""Closedness of sums of several subspaces.

Shows the spectral-gap criterion, the dilation to a pair problem, the
graph-weighted complement certificate, and the simplex family of n
equiangular lines whose projectors sum to a multiple of the identity.
Run: python3 demos/systems_and_graphs.py
"""

import numpy as np

import sumspaces as ss


def simplex_lines(n):
    E = np.eye(n) - np.ones((n, n)) / n
    U, s, _ = np.linalg.svd(E)
    pts = (U[:, :n - 1] * s[:n - 1]).T
    return ss.SubspaceSystem(n - 1, [ss.from_spanning(pts[:, [k]]) for k in range(n)])


def main():
    rng = np.random.default_rng(11)
    d, n = 5, 3
    S = ss.SubspaceSystem(d, [
        ss.from_spanning(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
        for _ in range(n)])

    gap = ss.sum_gap(S)
    print(f"{n} random planes in C^{d}:")
    print(f"  sum gap    = {gap.margin('sum_gap'):.6f}")
    print(f"  sum dim    = {gap.extras['sum_dim']}, full = {gap.extras['full_sum']}")

    P_delta, P_H = ss.dilation(S)
    prod = P_delta @ P_H @ P_delta
    w = np.linalg.eigvalsh((prod + prod.conj().T) / 2)
    w2 = np.linalg.eigvalsh(sum(S.projectors()) / n)
    print("\ndilation to a pair on C^{nd}: nonzero spectra agree")
    print(f"  dilated : {np.round(w[w > 1e-8], 6)}")
    print(f"  direct  : {np.round(w2[w2 > 1e-8], 6)}")

    G = ss.WeightedGraph.complete(n)
    rep = ss.complement_graph_margin(S, G, modulus=True, seed=3)
    print("\ncomplete-graph complement certificate:")
    for e in rep.entries:
        print(f"  {e.criterion:25s} {e.margin:12.6g}  {e.verdict}  {e.note}")
    print(f"  modulus-form constant in [{rep.margin('modulus_form_lower_bound'):.6g}, "
          f"{rep.margin('modulus_form_epsilon'):.6g}]; the lower end is certified")

    alpha = rng.uniform(0.5, 1.5, size=n)
    lc = ss.linear_combination_check(S, alpha)
    print(f"\nweighted combination with alpha = {np.round(alpha, 3)}:")
    print(f"  lambda_max <= sum alpha - (n-1) eps, slack = "
          f"{lc.margin('combination_bound_slack'):.6f}")

    print("\nsimplex families: dependent systems with an exact identity")
    for m in range(3, 7):
        T = simplex_lines(m)
        resid = np.linalg.norm(sum(T.projectors()) - m / (m - 1) * np.eye(m - 1), 2)
        eps = ss.independence_certificate(T).epsilon
        print(f"  n = {m}: ||sum P - n/(n-1) I|| = {resid:.2e}, "
              f"independence eps = {eps:.2e}")


if __name__ == "__main__":
    main()
