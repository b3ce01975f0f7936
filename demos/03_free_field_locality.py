"""The 2D massive scalar field: embeddings of bump test functions,
the commutator pairing, and Poincare covariance.

One-particle vectors are complex arrays on the rapidity grid, with the
product <x, y> = h sum conj(x) y, h the grid spacing.
"""

import math

import numpy as np

from modlab.freefield import (FreeFieldModel, PoincareElement,
                              TestFunction2, covariance_residual, embed,
                              embed_with_error, locality_pairing)

model = FreeFieldModel()
print(f"grid: theta in [-{model.grid.theta_max}, {model.grid.theta_max}), "
      f"{model.grid.n_points} points, embedding window at {model.window}\n")

print("== embeddings and their quadrature error ==")
f = TestFunction2.bump((0.0, 2.5), 0.5)
Ef, err = embed_with_error(f, model)
norm = math.sqrt(model.grid.spacing) * np.linalg.norm(Ef)
print(f"|Ef| = {norm:.6f}, Richardson error estimate {err:.2e}\n")

print("== the commutator pairing Im<Ef, Eg> ==")
pairs = [("spacelike, mirror", (0.0, -2.0), (0.0, 2.0)),
         ("spacelike, skew", (0.3, -1.7), (-0.2, 2.1)),
         ("timelike", (1.5, 0.0), (0.0, 0.0))]
for label, c1, c2 in pairs:
    g1 = TestFunction2.bump(c1, 0.5)
    g2 = TestFunction2.bump(c2, 0.5)
    val = locality_pairing(g1, g2, model)
    print(f"   {label:18s}: Im<Ef, Eg> = {val:+.3e}")
print("spacelike pairs vanish to quadrature accuracy; the timelike pair")
print("shows the smeared commutator of the field.\n")

print("== covariance: E(f o g^-1) = u(g) E f ==")
for g, label in [(PoincareElement.translation(0.3, 0.0), "translation (0.3, 0)"),
                 (PoincareElement.translation(0.1, 0.2), "translation (0.1, 0.2)"),
                 (PoincareElement.boost(0.2), "boost 0.2"),
                 (PoincareElement.reflection(), "total reflection")]:
    res = covariance_residual(f, g, model)
    print(f"   {label:24s}: residual {res:.2e}")
print("\nreflection acts as plain conjugation on the rapidity profile:")
Ef = embed(f, model).values
refl = embed(f.transform(PoincareElement.reflection()), model).values
print(f"   |E(f o gamma) - conj(Ef)| / |Ef| = "
      f"{np.linalg.norm(refl - np.conj(Ef)) / np.linalg.norm(Ef):.2e}")
