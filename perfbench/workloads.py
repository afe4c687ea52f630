'''The three benchmark workloads and their correctness gates.

Each `*_pass` function runs one pass of a workload in the current process
through g2calc's public entry points, timing with `clock`, and returns a
dict:

  run_s       seconds spent inside g2calc calls (gates are not timed)
  samples     (start, end) clock readings of each sample: a suite of
              checks (verify), a `hitchin_scaling_law` call (exact) or an
              `eh` command (eh)
  attempted   operations tried: checks, items, certificates
  failed      operations that raised, reported their own failure, or
              disagreed with the benchmark's reference
  wrong       the subset of `failed` whose output disagreed with the
              reference (an output that is wrong rather than refused)
  problems    one line per failed operation

The gates do not trust the code under test: cube roots, the Laplacian
closed form, the volume floor and the verify check list are computed or
written out here.  A failed gate or an exception counts as a failed
operation and the pass goes on.
'''
from __future__ import annotations

import csv
import json
import os
import random
from fractions import Fraction
from itertools import product
from time import perf_counter

#: the verify report contract: every check id, by suite
EXPECTED_CHECKS = {
    "forms": ("forms.graded_commutativity", "forms.wedge_associativity",
              "forms.chart_d_squared", "forms.pullback_commutes_with_d"),
    "liecdga": ("liecdga.check_d_squared.product_model",
                "liecdga.check_d_squared.nilmanifold_model", "liecdga.leibniz",
                "liecdga.model_json_roundtrip"),
    "g2core": ("g2core.standard_metric_identity", "g2core.star_star_identity",
               "g2core.phi_wedge_star_phi_7vol", "g2core.su2_closed_forms_nu8",
               "g2core.su2_closed_forms_random_nu"),
    "scaling": ("scaling.volume_law_exact", "scaling.hitchin_exponent_two_thirds",
                "scaling.hitchin_exponent_four_thirds", "scaling.hitchin_mu_fourth",
                "scaling.volume_mu_squared"),
    "catalog": ("catalog.families_closed", "catalog.exactness_witnesses",
                "catalog.class_map_grid", "catalog.master_gluing_identity",
                "catalog.boundary_rescaling_identity", "catalog.primitive_ledger",
                "catalog.gap_constant_stability", "catalog.glued_form_definite",
                "catalog.resolution_margins"),
    "flow": ("flow.laplacian_unit_point", "flow.laplacian_family_point",
             "flow.laplacian_nilmanifold", "flow.flat_torus_harmonic",
             "flow.closed_form_trajectory", "flow.rk4_convergence_order"),
    "eh": ("eh.ricci_flat_profile", "eh.interpolation_mass", "eh.positivity_and_volume",
           "eh.volume_floor_stability", "eh.scale_equivariance", "eh.closedness_residual",
           "eh.feasibility_budget", "eh.infeasible_guard"),
    "collapse": ("collapse.product_lambda_one", "collapse.product_decay_rates",
                 "collapse.region_gap_rates", "collapse.global_lower_bound",
                 "collapse.fiber_diameter_decay", "collapse.limit_length_structure",
                 "collapse.metric_comparison_constants"),
}

# exact workload: 600 scaling tuples in four groups of 150, plus the full
# Laplacian grid.  Three groups have lambda_i = (p/q)^3, so the product is
# a cube and the volume is exact: p, q <= 8; p, q <= 64 (larger Fractions);
# and p, q squares <= 64, the only group where the frame scales mu_i (sixth
# roots) are exact too.  The fourth group has a non-cube product, which
# sends is_g2_type down its exact-to-float fallback.
N_PER_GROUP = 150
LAPLACIAN_GRID = {
    "alpha": (Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2)),
    "beta": (Fraction(1), Fraction(2), Fraction(1, 3)),
    "lam": ((1, 0), (8, 0), (0, 1), (0, 8)),       # 1, 8, i, 8i
    "mu": (Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2)),
}

EH_TS = (0.1, 1.0)
EH_GRID = 400
EH_C = 1.0          # `--c auto`


def _new_result():
    return {"run_s": 0.0, "samples": [], "attempted": 0, "failed": 0,
            "wrong": 0, "problems": []}


def _fail(res, what, wrong=False):
    res["failed"] += 1
    res["wrong"] += wrong
    res["problems"].append(what)


# ---------------------------------------------------------------------------
# independent arithmetic for the gates
# ---------------------------------------------------------------------------

def icbrt(n: int):
    """Exact integer cube root of n >= 0 by Newton's method, or None."""
    if n < 0:
        raise ValueError("icbrt needs n >= 0")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)      # x >= cbrt(n)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    return x if x ** 3 == n else None


def fraction_cbrt(q: Fraction):
    num, den = icbrt(q.numerator), icbrt(q.denominator)
    return None if num is None or den is None else Fraction(num, den)


def _product(values) -> Fraction:
    p = Fraction(1)
    for v in values:
        p *= v
    return p


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def verify_pass(seed: int, workdir, tracer=None, clock=perf_counter,
                suite=None) -> dict:
    """`g2calc verify --seed S --out F` (one suite when `suite` is given).
    A sample is the time of one suite's checks; when tracing, each check
    runs in a `cli.suite.<suite>` span."""
    from g2calc import cli

    res = _new_result()
    out = os.path.join(workdir, "verify.json")
    build_suites = cli.build_suites
    suite_spans = {}

    def timed(suite_name, fn):
        def run():
            t0 = clock()
            try:
                if tracer is None:
                    return fn()
                with tracer.span(f"cli.suite.{suite_name}"):
                    return fn()
            finally:
                suite_spans[suite_name] = (suite_spans.get(suite_name, (t0,))[0], clock())
        return run

    def timed_suites(seed):
        return {name: [(cid, timed(name, fn)) for cid, fn in checks]
                for name, checks in build_suites(seed).items()}

    expected = [cid for name, ids in EXPECTED_CHECKS.items()
                if suite in (None, name) for cid in ids]
    res["attempted"] = len(expected)
    argv = ["verify", "--seed", str(seed), "--out", out]
    if suite is not None:
        argv += ["--suite", suite]
    cli.build_suites = timed_suites
    try:
        t0 = clock()
        rc = cli.main(argv)
        res["run_s"] = clock() - t0
    except Exception as e:
        res["run_s"] = clock() - t0
        for cid in expected:
            _fail(res, f"{cid}: verify raised {type(e).__name__}: {e}")
        return res
    finally:
        cli.build_suites = build_suites
        res["samples"] = list(suite_spans.values())

    try:
        with open(out) as fh:
            rows = json.load(fh)["checks"]
        status = {r["id"]: r["status"] for r in rows}
    except (OSError, ValueError, KeyError, TypeError) as e:
        for cid in expected:
            _fail(res, f"{cid}: unreadable report: {e}", wrong=True)
        return res
    n_fail = 0
    for cid in expected:
        if cid not in status:
            _fail(res, f"{cid}: missing from the report", wrong=True)
        elif status[cid] != "pass":
            n_fail += 1
            _fail(res, f"{cid}: status {status[cid]!r}", wrong=status[cid] != "fail")
    extra = sorted(set(status) - set(expected))
    if extra or len(rows) != len(status):
        _fail(res, f"report has unexpected or repeated check ids {extra}", wrong=True)
    if rc != (1 if n_fail else 0):
        _fail(res, f"exit code {rc} with {n_fail} failing checks", wrong=True)
    return res


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------

def exact_inputs(seed: int) -> dict:
    """Scaling tuples and Laplacian grid points, from the seed alone."""
    rng = random.Random(seed)

    def cube_tuple(bound, power=3):
        return ("cube", [Fraction(rng.randint(1, bound), rng.randint(1, bound)) ** power
                         for _ in range(7)])

    def noncube_tuple():
        while True:
            lams = [Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(7)]
            if fraction_cbrt(_product(lams)) is None:
                return ("noncube", lams)

    tuples = ([cube_tuple(8) for _ in range(N_PER_GROUP)]
              + [cube_tuple(64) for _ in range(N_PER_GROUP)]
              + [cube_tuple(8, power=6) for _ in range(N_PER_GROUP)]
              + [noncube_tuple() for _ in range(N_PER_GROUP)])
    rng.shuffle(tuples)
    grid = list(product(*LAPLACIAN_GRID.values()))
    rng.shuffle(grid)
    return {"tuples": tuples, "grid": grid}


def laplacian_closed_form(alpha, lam, mu) -> dict:
    """Delta phi(alpha, beta, lambda; mu) = 4 L^(2/3) / (alpha mu^2) g^1 ^ omega
    with L = |lambda|^2 and g^1 ^ omega = theta^145 + theta^167; exact when
    L^2 is a rational cube, as on LAPLACIAN_GRID."""
    L = Fraction(lam[0]) ** 2 + Fraction(lam[1]) ** 2
    L23 = fraction_cbrt(L ** 2)
    if L23 is None:
        raise ValueError(f"|lambda|^2 = {L} is not a cube")
    c = 4 * L23 / (alpha * mu ** 2)
    return {(1, 4, 5): c, (1, 6, 7): c}


def exact_pass(seed: int, workdir=None, tracer=None, clock=perf_counter,
               inputs=None) -> dict:
    """Volume law on the seed's scaling tuples, then the Laplacian grid."""
    from g2calc import catalog, flow, scaling
    from g2calc.rings import RAT

    inputs = inputs or exact_inputs(seed)
    res = _new_result()
    res["outputs"] = []
    for kind, lams in inputs["tuples"]:
        res["attempted"] += 1
        t0 = clock()
        try:
            out = scaling.hitchin_scaling_law(lams)
        except Exception as e:
            out = e
        dt = clock() - t0
        res["run_s"] += dt
        res["samples"].append((t0, t0 + dt))
        if isinstance(out, Exception):
            _fail(res, f"hitchin_scaling_law{tuple(map(str, lams))} raised "
                       f"{type(out).__name__}: {out}")
            continue
        vol = out["volume_factor"]
        res["outputs"].append(str(vol))
        prod = _product(lams)
        if kind == "cube":
            ok = isinstance(vol, Fraction) and vol == fraction_cbrt(prod)
        else:
            ref = float(prod) ** (1.0 / 3.0)
            ok = abs(float(vol) - ref) <= 1e-12 * ref
        if not ok:
            _fail(res, f"{kind} tuple {tuple(map(str, lams))}: volume {vol!r}", wrong=True)

    t0 = clock()
    model = catalog.nakamura_model()
    res["run_s"] += clock() - t0
    for alpha, beta, lam, mu in inputs["grid"]:
        res["attempted"] += 1
        point = f"(a, b, lambda, mu) = ({alpha}, {beta}, {lam}, {mu})"
        t0 = clock()
        try:
            lap = flow.laplacian(catalog.phi_abl_mu(alpha, beta, lam, mu, model), model)
        except Exception as e:
            lap = e
        res["run_s"] += clock() - t0
        if isinstance(lap, Exception):
            _fail(res, f"Laplacian at {point} raised {type(lap).__name__}: {lap}")
            continue
        coeffs = {idx: c for idx, c in lap.coeffs.items() if c != 0}
        res["outputs"].append(sorted((idx, str(c)) for idx, c in coeffs.items()))
        exact = lap.ring == RAT and all(isinstance(c, Fraction) for c in coeffs.values())
        if not exact or coeffs != laplacian_closed_form(alpha, lam, mu):
            _fail(res, f"Laplacian at {point} is not the exact closed form", wrong=True)
    return res


# ---------------------------------------------------------------------------
# eh
# ---------------------------------------------------------------------------

def eh_pass(seed: int, workdir, tracer=None, clock=perf_counter) -> dict:
    """`g2calc eh --t T --grid 400 --seed S --out P` for T in EH_TS."""
    from g2calc import cli

    res = _new_result()
    floor = 2.0 * (1.0 - EH_C / 2.0)          # 2 upsilon^2
    for t in EH_TS:
        res["attempted"] += 1
        prefix = os.path.join(workdir, f"eh_t{t}")
        t0 = clock()
        try:
            rc = cli.main(["eh", "--t", str(t), "--grid", str(EH_GRID),
                           "--seed", str(seed), "--out", prefix])
        except Exception as e:
            rc = f"{type(e).__name__}: {e}"
        dt = clock() - t0
        res["run_s"] += dt
        res["samples"].append((t0, t0 + dt))
        if rc != 0:
            _fail(res, f"eh --t {t} failed: {rc}")
            continue
        try:
            with open(f"{prefix}_certificate.json") as fh:
                cert = json.load(fh)
            with open(f"{prefix}_profile.csv", newline="") as fh:
                n_rows = sum(1 for _ in csv.reader(fh))
        except (OSError, ValueError) as e:
            _fail(res, f"eh --t {t}: unreadable output: {e}", wrong=True)
            continue
        # the certificate JSON keeps min_margin and min_ratio; positivity
        # and the volume floor are re-derived from them here
        if not cert.get("min_margin", -1.0) > 0.0:
            _fail(res, f"eh --t {t}: min_margin {cert.get('min_margin')} <= 0",
                  wrong=True)
        elif not cert.get("min_ratio", -1.0) >= floor - 1e-9:
            _fail(res, f"eh --t {t}: min_ratio {cert.get('min_ratio')} < {floor}",
                  wrong=True)
        elif n_rows != EH_GRID + 1:
            _fail(res, f"eh --t {t}: {n_rows} CSV rows, want {EH_GRID + 1}", wrong=True)
    return res


PASSES = {"verify": verify_pass, "exact": exact_pass, "eh": eh_pass}
