"""Tour of the two-subspace machinery.

Builds a random pair in C^6, walks through its canonical decomposition,
checks the reconstruction, and prints the angle and closedness margins.
Run: python3 demos/pair_geometry.py
"""

import numpy as np

import sumspaces as ss


def main():
    rng = np.random.default_rng(7)
    d = 6
    H1 = ss.from_spanning(rng.normal(size=(d, 3)) + 1j * rng.normal(size=(d, 3)))
    H2 = ss.from_spanning(rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2)))
    print(f"ambient C^{d}: dim H1 = {H1.dim}, dim H2 = {H2.dim}")

    dec = ss.halmos_decompose(H1, H2)
    print("\ncanonical components (dimensions):")
    print(f"  H1 & H2        : {dec.both.dim}")
    print(f"  H1 & H2-perp   : {dec.first_only.dim}")
    print(f"  H1-perp & H2   : {dec.second_only.dim}")
    print(f"  H1-perp&H2-perp: {dec.neither_dim}")
    print(f"  generic K + K  : 2 x {dec.k_dim}")
    print(f"  a eigenvalues  : {np.round(dec.a_eigenvalues, 6)}")

    err1 = np.linalg.norm(dec.reconstruct_p1() - H1.projector(), 2)
    err2 = np.linalg.norm(dec.reconstruct_p2() - H2.projector(), 2)
    print(f"\nreconstruction errors: P1 {err1:.2e}, P2 {err2:.2e}")

    gamma = ss.friedrichs_angle(H1, H2)
    print(f"Friedrichs angle: {gamma:.6f} rad "
          f"(cos^2 = {np.cos(gamma) ** 2:.6f} = max eigenvalue of a)")

    print("\nclosedness margins:")
    for e in ss.pair_criteria(H1, H2).entries:
        print(f"  {e.criterion:30s} {e.margin:12.6g}  {e.verdict}")

    print("\nfunction calculus: b = P1 + P2 (f1 = f2 = 1, f3 = f4 = 0)")
    one = ss.ScalarFunction.constant(1.0)
    zero = ss.ScalarFunction.constant(0.0)
    spec = np.sort(ss.spectrum_of_b(dec, one, one, zero, zero).real)
    dense = np.sort(np.linalg.eigvalsh(H1.projector() + H2.projector()))
    print(f"  analytic spectrum: {np.round(spec, 6)}")
    print(f"  dense eigenvalues: {np.round(dense, 6)}")


if __name__ == "__main__":
    main()
