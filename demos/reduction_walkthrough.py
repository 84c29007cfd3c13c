"""Constructive reduction to a linearly independent system.

A system with a positive spectral gap can be shrunk, touching only
H2..Hn, to an independent system with an explicit operator certificate;
a second construction preserves the sum exactly.
Run: python3 demos/reduction_walkthrough.py
"""

import numpy as np

import sumspaces as ss


def main():
    rng = np.random.default_rng(23)
    d = 6
    while True:
        S = ss.SubspaceSystem(d, [
            ss.from_spanning(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
            for _ in range(3)])
        if ss.sum_gap(S).margin("sum_gap") > 0.2:
            break

    print(f"three random planes in C^{d}, gap = "
          f"{ss.sum_gap(S).margin('sum_gap'):.4f}")
    print(f"independent before reduction: "
          f"{ss.independence_certificate(S).independent}")

    res = ss.reduce_system(S)
    print("\nreduce_system:")
    print(f"  reduced dims   = {[m.dim for m in res.reduced.members]}")
    print(f"  c_n            = {res.c_n} (exact rational)")
    print(f"  eps used       = {res.epsilon:.4f}")
    print(f"  rhs            = c_n eps^(n-1) = {res.rhs:.3e}")
    print(f"  cert slack     = {res.certificate_slack:.3e}")
    print(f"  sum preserved  = {res.sum_preserved}")
    print(f"  independent    = "
          f"{ss.independence_certificate(res.reduced).independent}")

    res2 = ss.reduce_preserving_sum(S)
    print("\nreduce_preserving_sum (shrink inside the dilation):")
    print(f"  reduced dims   = {[m.dim for m in res2.reduced.members]}")
    print(f"  sum preserved  = {res2.sum_preserved}")

    print("\noblique projections of an independent decomposition:")
    e = np.eye(3)
    T = ss.SubspaceSystem(3, [ss.from_spanning(e[:, :2]),
                              ss.from_spanning(np.ones((3, 1)))])
    Q = ss.oblique_projections(T)
    A = 2.0 * Q[0] + 5.0 * Q[1]
    print(f"  sigma(2 Q1 + 5 Q2) = "
          f"{np.round(np.sort(np.linalg.eigvals(A).real), 6)}")

    print("\npair shrink lemma at eps = 0.5:")
    H1 = ss.from_spanning(rng.normal(size=(d, 3)))
    H2 = ss.from_spanning(rng.normal(size=(d, 3)))
    M2, rep = ss.reduce_pair(H1, H2, 0.5)
    print(f"  dim H2 = {H2.dim} -> dim M2 = {M2.dim}, "
          f"delta = {rep.extras['delta']}")
    for e_ in rep.entries:
        print(f"  {e_.criterion:20s} {e_.margin:12.6g}  {e_.verdict}")


if __name__ == "__main__":
    main()
