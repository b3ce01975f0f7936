"""Truncated Fock space: coherent vectors, Weyl operators, and the
second-quantized modular objects of a standard subspace.
"""

import math

import numpy as np

from modlab.fock import (FockSpace, coherent, coherent_inner, gamma,
                         second_quantized_modular_check, sym_power_expand,
                         sym_project, vacuum, weyl_matrix, weyl_on_coherent,
                         weyl_unitarity_defect)
from modlab.hilbert import ComplexVectorSpace
from modlab.standard import fiber_standard_subspace

rng = np.random.default_rng(5)

print("== coherent calculus at cutoff N = 12, d = 2 ==")
fs = FockSpace(2, 12)
h = np.array([0.6 + 0.2j, -0.3 + 0.5j])
k = np.array([0.1 - 0.4j, 0.7 + 0.1j])
lhs = np.vdot(coherent(fs, h), coherent(fs, k))
print(f"<e^h, e^k>              = {lhs:.12f}")
print(f"truncated exp series    = {coherent_inner(h, k, 12):.12f}")
print(f"exp(<h, k>) (untruncated) = {np.exp(np.vdot(h, k)):.12f}\n")

print("== two routes to the symmetrizer ==")
xs = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
a = sym_project(fs, xs)       # permutation average
b = sym_power_expand(fs, xs)  # alternating sums of tensor powers
print(f"|sym_project - sym_power_expand| = {np.linalg.norm(a - b):.2e}\n")

print("== Weyl operators and the commutation phase ==")
fs1 = FockSpace(1, 16)
e1 = np.array([1.0 + 0.0j])
ie1 = np.array([1.0j])
Wh, Wk = weyl_matrix(fs1, e1), weyl_matrix(fs1, ie1)
Whk = weyl_matrix(fs1, e1 + ie1)
lhs = (Wh @ Wk).apply(vacuum(fs1))
rhs = np.exp(-0.5j) * Whk.apply(vacuum(fs1))
low = fs1.level_slices[8].stop
print(f"W(h) W(k) = exp(-i/2) W(h+k) on the vacuum (Im<h,k> = 1): "
      f"deviation {np.linalg.norm(lhs[:low] - rhs[:low]):.2e}")
closed = weyl_on_coherent(fs1, e1, -e1)
print(f"W(h) e^(-ih/sqrt2) coefficient on the vacuum: "
      f"{closed[0].real:.6f} (exp(1/4) = {math.exp(0.25):.6f})")
print("truncation unitarity defect on levels <= 8:")
for N in (8, 12, 16, 20):
    print(f"   cutoff {N:2d}: {weyl_unitarity_defect(1.0, N, 8):.3e}")
print()

print("== second quantization of the pi/3 fiber modular data ==")
V = ComplexVectorSpace(2)
K = fiber_standard_subspace(V, [np.pi / 3])
report = second_quantized_modular_check(K, 10, rng)
for name, value in report.items():
    print(f"   {name}: {value:.2e}")
print("gamma(s), gamma(j), gamma(delta^it) implement S, J, Delta^it on the")
print("truncated Fock space, and Weyl operators over K and K' commute.")
