"""Acceptance gate: one test per advertised guarantee, pinned tolerances.

Each test prints a single PASS/FAIL line so the suite output doubles as the
release checklist.
"""
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from g2calc import catalog, collapse, ehmetric, flow, scaling
from g2calc.forms import KForm
from g2calc.g2core import (SU2FiberData, hodge_star, is_g2_type,
                           phi_to_vector, standard_phi, su2_assemble,
                           vector_to_phi, NotStableError)
from g2calc.liecdga import d_invariant
from g2calc.rings import FLT, RAT

Q = Fraction
DIM = 7


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    assert ok, f"{name}: {detail}"


def th(*idx, ring=RAT):
    return KForm.basis(DIM, idx, ring)


@pytest.fixture(scope="module")
def eh_profile():
    return ehmetric.build_profile(1.0, 4.0, 1.0)


def test_criterion_1_exact_volume_scaling_law():
    rng = np.random.default_rng(101)
    for _ in range(50):
        lams = [Q(int(rng.integers(1, 9)), int(rng.integers(1, 9))) ** 3
                for _ in range(6)] + [Q(int(rng.integers(1, 5))) ** 3]
        vol = scaling.scaled_volume_factor(lams)  # raises on any mismatch
        prod = math.prod(lams)
        if not (isinstance(vol, Q) and vol ** 3 == prod):
            report("volume-scaling-law", False, f"inexact at {lams}")
    report("volume-scaling-law", True,
           "50 random cube-product tuples, zero tolerance")


def test_criterion_2_su2_closed_forms():
    def fiber(nu, ring):
        return SU2FiberData(nu * (th(4, 5, ring=ring) + th(6, 7, ring=ring)),
                            th(4, 6, ring=ring) - th(5, 7, ring=ring),
                            th(4, 7, ring=ring) + th(5, 6, ring=ring))

    f8 = fiber(Q(8), RAT)
    phi = su2_assemble(th(1), th(2), th(3), f8)
    data = is_g2_type(phi)
    ok = (np.array_equal(data.metric_array(),
                         np.diag([16.0, 0.25, 0.25, 2.0, 2.0, 2.0, 2.0]))
          and data.sqrt_det == Q(4)
          and hodge_star(data, phi) == (Q(4) * th(4, 5, 6, 7)
                                        + Q(1, 16) * th(2, 3).wedge(f8.omega)
                                        + Q(4) * th(1, 3).wedge(f8.omega_re)
                                        + Q(4) * th(1, 2).wedge(f8.omega_im)))
    worst = 0.0
    rng = np.random.default_rng(102)
    for _ in range(20):
        nu = float(rng.uniform(0.2, 6.0))
        fl = fiber(nu, FLT)
        ph = su2_assemble(th(1, ring=FLT), th(2, ring=FLT), th(3, ring=FLT), fl)
        d = is_g2_type(ph)
        expect = np.diag([nu ** (4 / 3)] + [nu ** (-2 / 3)] * 2
                         + [nu ** (1 / 3)] * 4)
        worst = max(worst,
                    float(np.abs(d.metric_array() - expect).max()) / nu ** (4 / 3),
                    abs(float(d.sqrt_det) - nu ** (2 / 3)) / nu ** (2 / 3))
        diff = hodge_star(d, ph) - (nu ** (2 / 3) * th(4, 5, 6, 7, ring=FLT)
                                    + nu ** (-4 / 3) * th(2, 3, ring=FLT).wedge(fl.omega)
                                    + nu ** (2 / 3) * th(1, 3, ring=FLT).wedge(fl.omega_re)
                                    + nu ** (2 / 3) * th(1, 2, ring=FLT).wedge(fl.omega_im))
        worst = max(worst, max((abs(float(c)) for c in diff.coeffs.values()),
                               default=0.0) / nu ** (2 / 3))
    report("su2-closed-forms", ok and worst < 1e-12,
           f"exact at nu=8; worst relative error {worst:.2e} at 20 random nu")


def test_criterion_3_hitchin_exponents():
    ok, msgs = True, []
    # (1+la)^{2/3} and (1+la)^{4/3}: exact at rational cubes, 1e-12 otherwise
    for size, tag in ((2, "2/3"), (4, "4/3")):
        rho = Q(3, 2)
        lams = [rho ** 3 if i < size else Q(1) for i in range(7)]
        ok &= scaling.scaled_volume_factor(lams) == rho ** size
        la = 1.7
        vals = [1 + la if i < size else 1.0 for i in range(7)]
        got = float(scaling.scaled_volume_factor(vals))
        ok &= abs(got - (1 + la) ** (size / 3)) < 1e-12 * got
        msgs.append(f"(1+la)^{tag}")
    # mu^4 on the product family (exact at unit parameters)
    v1 = is_g2_type(catalog.phi_abl(1, 1, 1)).sqrt_det
    ok &= all(is_g2_type(catalog.phi_abl_mu(1, 1, 1, mu)).sqrt_det
              == Q(mu) ** 4 * v1 for mu in (2, 3))
    vg = float(is_g2_type(catalog.phi_abl(2, 3, (1, 2)).in_ring(FLT)).sqrt_det)
    vm = float(is_g2_type(catalog.phi_abl_mu(2, 3, (1, 2), 2).in_ring(FLT)).sqrt_det)
    ok &= abs(vm / vg - 16.0) < 1e-12 * 16.0
    # mu^2 on the nilmanifold family (exact)
    w1 = is_g2_type(catalog.phi_check_mu(1)).sqrt_det
    ok &= all(is_g2_type(catalog.phi_check_mu(mu)).sqrt_det == Q(mu) ** 2 * w1
              for mu in (2, 3))
    report("hitchin-exponents", ok,
           "exact (1+la)^{2/3}, (1+la)^{4/3}, mu^4, mu^2")


def test_criterion_4_closedness_and_class():
    nak = catalog.nakamura_model()
    ok = all(d_invariant(nak.eqs, catalog.phi_abl(a, b, lam)).is_zero()
             for a, b, lam in ((1, 1, 1), (2, 3, (1, 2)),
                               (Q(1, 2), 5, (Q(-1, 3), Q(2, 7)))))
    ffkm = catalog.ffkm_model()
    ok &= all(d_invariant(ffkm.eqs, catalog.phi_check_mu(mu)).is_zero()
              for mu in (1, 2, 3))
    # exactness witnesses: rho for the product family...
    rho, target = nak.witnesses["two_g1_wedge_omega"]
    ok &= d_invariant(nak.eqs, rho) == target
    # ...and the region-by-region primitive ledger on the nilmanifold,
    # including the finite-difference probe through the cutoff (tol 1e-6)
    for mu in (1, 2):
        ok &= all(r["status"] == "pass" for r in catalog.primitive_ledger(mu))
    report("closedness-and-class", ok,
           "d phi = 0 exact on both families; all exactness witnesses verify")


def test_criterion_5_class_map_grid():
    seen = set()
    ok = True
    for a in (1, 2, Q(1, 2), 3):
        for b in (1, Q(1, 3), 2, 5):
            for lam in ((1, 0), (0, 1), (2, 1), (Q(1, 2), Q(-3, 4))):
                re, im = Q(lam[0]), Q(lam[1])
                got = catalog.ch_map(catalog.phi_abl(a, b, lam))
                ok &= got == (Q(a) * b, re, im, b * re, b * im)
                ok &= got not in seen
                seen.add(got)
    report("class-map-grid", ok, "4x4x4 rational grid, exact and injective")


def test_criterion_6_master_gluing_identity():
    ok = catalog.master_identity_check()
    c1 = catalog.measure_quadlem_constant(n=150, seed=0)["C"]
    c2 = catalog.measure_quadlem_constant(n=300, seed=1)["C"]
    stable = abs(c1 - c2) <= 0.2 * max(c1, c2)
    report("master-gluing-identity", ok and stable,
           f"exact polynomial identity; measured C {c1:.3f} vs {c2:.3f} "
           f"under grid refinement")


def test_criterion_7_laplacian_formulas():
    nak = catalog.nakamura_model()
    ok = (flow.laplacian(catalog.phi_abl_mu(1, 1, 1, 1, nak), nak)
          == 4 * nak.named_forms["g1"].wedge(nak.named_forms["omega"]))
    ffkm = catalog.ffkm_model()
    ok &= (flow.laplacian(ffkm.named_forms["phi"], ffkm)
           == 2 * th(1, 2, 3) + 2 * th(1, 4, 5) - th(1, 3, 6) + th(1, 2, 7))
    gap = flow.check_flow_consistency(2, 1, (1, 1), 2.0)
    ok &= gap < 1e-10
    rows = flow.flow_integrate(1, 1, (1, 1), 1.0, 10000)
    traj_err = max(r[3] for r in rows)
    ok &= traj_err < 1e-10
    e1 = flow.flow_integrate(1, 1, (2, 1), 1.0, 40)[-1][3]
    e2 = flow.flow_integrate(1, 1, (2, 1), 1.0, 80)[-1][3]
    order = math.log2(e1 / e2)
    ok &= 3.5 < order < 4.5
    report("laplacian-formulas", ok,
           f"exact tangents; trajectory error {traj_err:.1e} < 1e-10; "
           f"convergence order {order:.2f}")


def test_criterion_8_eh_certificates(eh_profile):
    p = eh_profile
    res = ehmetric.ricci_residual(1.0, np.linspace(0.5, 40.0, 25))
    mass = abs(p.h(p.q) + p.t ** 4) / p.t ** 4
    rep = ehmetric.positivity_and_volume_certificate(p, n_r=400, n_ang=12)
    floor = 2.0 * p.upsilon ** 2
    ups = []
    for t in (0.01, 0.1, 1.0):
        pr = ehmetric.build_profile(t, 4.0, 1.0)
        ups.append(ehmetric.positivity_and_volume_certificate(
            pr, n_r=100, n_ang=8)["upsilon_measured"])
    spread = (max(ups) - min(ups)) / max(ups)
    ok = (res < 1e-8 and mass < 1e-10 and rep["positivity_ok"]
          and rep["min_margin"] < 1.0
          and rep["min_ratio"] >= floor - 1e-9
          and abs(rep["min_ratio"] - floor) < 1e-6
          and spread < 0.01)
    report("eh-certificates", ok,
           f"Ricci {res:.1e}; mass defect {mass:.1e}; margin "
           f"{rep['min_margin']:.3f} < 1; ratio floor attained; "
           f"upsilon spread {spread:.1e}")


def test_criterion_9_collapse_premises():
    base = collapse.nakamura_metric(2, 1, (1, 1), 2, rescaled=True).limit
    samples = [collapse.nakamura_metric(2, 1, (1, 1), mu, rescaled=True)
               for mu in (1, 2, 4, 8, 16, 32)]
    prem = collapse.premise_check(samples, base)
    ok = prem["pass"] and all(abs(l - 1) < 1e-6
                              for l in prem["lambdas"].values())
    rates = collapse.rescaled_decay_exponents(2, 1, (1, 1), 8, 16)
    ok &= abs(rates["omega_block"] + 6) < 0.6
    ok &= abs(rates["transverse_block"] + 12) < 1.2
    pt = {"y1": 0.02, "y2": 0.01, "y4": 0.3, "y5": 0.015, "y6": 0.01,
          "y7": 0.2}
    chart_rate = collapse.region_gap_decay("chart", pt, (4, 8, 16))["rate"]
    ok &= chart_rate <= -2.7
    mc = collapse.measure_metric_comparison(n=150)
    region_samples = [collapse.ffkm_region_metrics("interior", (), 8),
                      collapse.ffkm_region_metrics("w_outer", {"y1": 0.3}, 8),
                      collapse.ffkm_region_metrics("chart", pt, 8)]
    lb = collapse.lower_bound_global(8, region_samples, math.sqrt(0.5),
                                     C=1.0, Delta0=mc["Delta0"])
    ok &= lb["pass"]
    prof = ehmetric.build_profile(ehmetric.default_t_for_epsilon(0.1, 4.0), 4.0)
    fd = collapse.fiber_diameter_probe(profile=prof)
    ok &= fd["exponent"] <= -2.7
    report("collapse-premises", ok,
           f"Lambda = 1 on mu in 1..32; rates ({rates['omega_block']:.2f}, "
           f"{rates['transverse_block']:.2f}); chart rate {chart_rate:.2f}; "
           f"lower bound PSD; fiber exponent {fd['exponent']:.2f}")


def test_criterion_10_structural_property_suites():
    rng = np.random.default_rng(110)

    def rand_form(k):
        coeffs = {}
        for idx in combinations(range(1, DIM + 1), k):
            c = int(rng.integers(-4, 5))
            if c:
                coeffs[idx] = Q(c)
        return KForm(DIM, k, RAT, coeffs)

    eqs = catalog.ffkm_model().eqs
    ok = True
    for _ in range(100):
        k, l = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a, b = rand_form(k), rand_form(l)
        ok &= a.wedge(b) == (-1) ** (k * l) * b.wedge(a)
        da = d_invariant(eqs, a)
        ok &= d_invariant(eqs, da).is_zero()
        ok &= (d_invariant(eqs, a.wedge(b))
               == da.wedge(b) + (-1) ** k * a.wedge(d_invariant(eqs, b)))
    v0 = phi_to_vector(standard_phi().in_ring(FLT))
    count, worst = 0, 0.0
    while count < 100:
        try:
            phi = vector_to_phi(v0 + 0.2 * rng.normal(size=v0.size))
            data = is_g2_type(phi)
        except NotStableError:
            continue
        count += 1
        a = KForm(DIM, 3, FLT, {idx: float(rng.normal())
                                for idx in combinations(range(1, DIM + 1), 3)})
        diff = hodge_star(data, hodge_star(data, a)) - a
        worst = max(worst, max(abs(float(c)) for c in diff.coeffs.values()))
        top = float(phi.wedge(hodge_star(data, phi)).top_coefficient())
        worst = max(worst, abs(top - 7.0 * float(data.sqrt_det)))
    ok &= worst < 1e-9
    report("structural-property-suites", ok,
           f"100 exact randomized cases each; float identities within {worst:.1e}")
