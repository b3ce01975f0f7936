"""Building localized subspaces from the representation alone.

Each wedge gets the prescription: conjugation = the wedge reflection,
modular flow = the wedge boosts, and K_W = fixed points of their polar
composite.  No test-function support information enters the operator;
the dictionary only supplies the finite-dimensional stage.  The
resulting net is isotonous, dual, and covariant.
"""

from modlab.freefield import (FreeFieldModel, PoincareElement, Region2,
                              TestFunction2)
from modlab.modloc import (LocalizedNet, PoincareRep2, doublecone_space,
                           embed_probe, localized_subspace, net_checks)

rep = PoincareRep2([FreeFieldModel()])
net = LocalizedNet(rep, tol=0.05)

base = [TestFunction2.bump((0.0, 3.0), 0.5),
        TestFunction2.bump((0.4, 3.6), 0.55),
        TestFunction2.bump((-0.3, 2.8), 0.45),
        TestFunction2.bump((0.1, 4.0), 0.6)]

print("== populate nested right wedges (matched dictionaries) ==")
shift = PoincareElement.translation(0.0, 1.0)
inner_dict = [f.transform(shift) for f in base]
net.populate_wedge(Region2.right_wedge((0.0, 0.0)),
                   [(f, 0) for f in base + inner_dict])
net.populate_wedge(Region2.right_wedge((0.0, 1.0)),
                   [(f, 0) for f in inner_dict])
gamma = PoincareElement.reflection()
net.populate_wedge(Region2.left_wedge((0.0, 0.0)),
                   [(f.transform(gamma), 0) for f in base])
for entry in net.entries.values():
    g = entry.region.frame          # the wedge is g W_R
    side = "left" if g.reflect else "right"
    sv = entry.report.singular_values
    print(f"   {side:5s} wedge at ({g.a0:.1f}, {g.a1:.1f}): "
          f"dim {entry.subspace.dim}, "
          f"largest fixed-point defect {sv.max():.2e}")
print()

print("== net checks ==")
report = net_checks(net, covariance_elements=[
    PoincareElement.translation(0.0, 0.5), PoincareElement.boost(0.1)])
for cat, rows in report.items():
    worst = max((r["residual"] for r in rows), default=0.0)
    print(f"   {cat:10s}: {len(rows)} pair(s), worst residual {worst:.2e}")
print()

print("== a double cone as a wedge intersection ==")
O = Region2.double_cone((0.0, 0.0), 2.2)
cone_fns = [TestFunction2.bump((0.0, 0.0), 0.5),
            TestFunction2.bump((0.15, 0.2), 0.4)]
WR, WL = O.wedges                   # O is their intersection
net2 = LocalizedNet(rep, tol=0.05)
net2.populate_wedge(WR, [(f, 0) for f in cone_fns
                         + [TestFunction2.bump((0.0, 1.4), 0.5)]])
net2.populate_wedge(WL, [(f, 0) for f in cone_fns
                         + [TestFunction2.bump((0.0, -1.4), 0.5)]])
probes = [embed_probe(rep, f) for f in cone_fns]
K, rep_cone = doublecone_space(net2, O, cone_probes=probes)
print(f"   intersection dimension: {rep_cone['dimension']}")
print(f"   cone-probe residuals: "
      f"{[f'{r:.1e}' for r in rep_cone['probe_residuals']]}")
print()

print("== wrong-wedge dictionaries are rejected ==")
from modlab.modloc import EmptyModelError
bad = [embed_probe(rep, TestFunction2.bump((0.0, -3.0), 0.5))]
try:
    localized_subspace(rep, Region2.right_wedge(), bad)
except EmptyModelError as exc:
    print(f"   EmptyModelError: {exc}")
