"""Standard subspaces and their modular machinery, at desk scale.

A real subspace K of C^d is standard when K and iK overlap only in 0
and jointly span everything.  The involution h + ik -> h - ik then has
polar parts s = j delta^(1/2): an antiunitary conjugation j and a
positive modular operator delta.  This script builds a few subspaces,
decomposes them into angle fibers, and watches the modular flow act.
"""

import numpy as np

from modlab.hilbert import (RealSubspace, inner, principal_angles,
                            subspace_distance, symplectic_complement)
from modlab.standard import (fiber_standard_subspace, fiberize, is_standard,
                             modular_data, modular_flow,
                             random_standard_subspace)

rng = np.random.default_rng(2)

print("== R^3 inside C^3: the prototype standard subspace ==")
K = RealSubspace(np.eye(3))         # real basis columns e_1, e_2, e_3
ok, cert = is_standard(K)
print(f"standard: {ok}  (dim K cap iK = {cert.dim_intersection}, "
      f"dim K + iK = {cert.dim_sum})")
md = modular_data(K)
print(f"delta = identity? deviation {np.linalg.norm(md.delta.matrix - np.eye(3)):.2e}")
print("here s is plain conjugation and the modular flow is trivial\n")

print("== an angle-pi/3 fiber in C^2 ==")
K2 = fiber_standard_subspace(2, [np.pi / 3])
fibers = fiberize(K2)               # one SVD of the basis of K2
print("log delta spectrum:",
      [(round(lg, 6), m) for lg, m in fibers.md.log_delta_spectrum])
print(f"(tan^2(pi/6) = 1/3, so log delta = +-log 3 = +-{np.log(3):.6f})")
print(f"fiberize found {len(fibers.theta)} fiber(s), theta = "
      f"{fibers.theta[0]:.6f} (pi/3 = {np.pi/3:.6f}), fixed part dim "
      f"{fibers.fixed.dim}")

t = 0.4
F = modular_flow(fibers.md, t)
yp, ym = fibers.y_plus[:, 0], fibers.y_minus[:, 0]
w = np.log(np.tan(np.pi / 6) ** 2)
pred = np.cos(w * t) * yp + np.sin(w * t) * ym
print(f"flow mixes the fiber frame: |delta^it y+ - prediction| = "
      f"{np.linalg.norm(F.apply(yp) - pred):.2e}\n")

print("== a random standard subspace in C^5 ==")
K5 = random_standard_subspace(5, rng)
md5 = modular_data(K5)
Kp = symplectic_complement(K5)
jK = RealSubspace.span(md5.j.apply(K5.basis))
print(f"j K = K'?  projection distance {subspace_distance(jK, Kp):.2e}")
thetas = fiberize(K5).theta          # ascending
oracle = np.sort(principal_angles(K5, K5.mult_i()))
print(f"fiber angles: {np.round(thetas, 4)}")
print(f"principal angles between K and iK (each angle twice): "
      f"{np.round(oracle, 4)}")
print("the first-quantized commutant: Im<h, k> vanishes across K and K'")
h = Kp.basis[:, 0]
k = K5.basis[:, 0]
print(f"max |Im<h, k>| sample: {abs(inner(h, k).imag):.2e}")
