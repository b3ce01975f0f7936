"""The wedge modular structure of the free field.

The modular group of the right wedge is the boost flow and the modular
conjugation is conjugation of the rapidity profile: right-wedge
embeddings are fixed points of (conjugation) after (half boost).  The
half boost is the multiplier exp(pi omega), applied with a capped
amplification; vectors localized in the wrong wedge fail its domain
certificate and blow up as the cap is raised.  Vectors are complex
arrays on the rapidity grid, which the spectral maps take explicitly.
"""

from modlab.checks import _model
from modlab.config import REFINEMENT_RUNGS, ExperimentConfig
from modlab.freefield import (FreeFieldModel, Region2, TestFunction2,
                              bw_residual, domain_certificate, embed,
                              gaussian_packet, modular_blowup_profile,
                              DomainViolationError, borchers_check)

model = FreeFieldModel()

print("== right-wedge bumps are modular fixed points ==")
for k in (1, 2, 3):
    config = ExperimentConfig(freefield=dict(REFINEMENT_RUNGS[k]))
    m = _model(config)
    f = TestFunction2.bump((0.0, 3.0), 0.5, config.freefield["lattice_step"],
                           region=Region2.right_wedge())
    print(f"   rung {k}: ||s_W Ef - Ef|| / ||Ef|| = {bw_residual(f, m):.3e}")
print()

print("== the wrong wedge fails the domain certificate ==")
g = TestFunction2.bump((0.0, -3.0), 0.5, region=Region2.left_wedge())
grid = model.grid
Eg = embed(g, model).values
f = TestFunction2.bump((0.0, 3.0), 0.5, region=Region2.right_wedge())
Ef = embed(f, model).values
gauss = gaussian_packet(grid, width=1.2)
print(f"   certificate right-wedge bump: {domain_certificate(Ef, grid):.2e}")
print(f"   certificate gaussian packet:  {domain_certificate(gauss, grid):.2e}")
print(f"   certificate left-wedge bump:  {domain_certificate(Eg, grid):.2e}")
try:
    bw_residual(g, model)
except DomainViolationError as exc:
    print(f"   bw_residual raises: {exc}")
print()

print("== blow-up along the amplification-cap ladder ==")
for label, phi in [("right-wedge bump", Ef), ("gaussian", gauss),
                   ("left-wedge bump", Eg)]:
    prof = modular_blowup_profile(phi, grid)
    print(f"   {label:18s}: norms {prof[0]:.3e} -> {prof[1]:.3e} -> "
          f"{prof[2]:.3e}  (x{prof[2]/prof[0]:.1e})")
print("bounded for domain vectors, unbounded growth outside the domain\n")

print("== translation commutation relations ==")
probes = [gaussian_packet(grid, width=0.65, momentum=0.3),
          gaussian_packet(grid, center=0.3, width=0.7, momentum=-0.2)]
rep = borchers_check(0.5, (0.1, 0.25), probes, model)
print(f"   Delta^it U(a) Delta^-it = U(e^(-2 pi t) a): "
      f"deviation {rep['flow_commutation']:.2e}")
print(f"   J U(a) J = U(-a): deviation {rep['reflection_commutation']:.2e}")
print("the lightlike translation generator is positive and the boost")
print("rescales it exactly by e^(-2 pi t).")
