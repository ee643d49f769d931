"""Command-line surface.

Every subcommand performs one computation and emits a single RunReport in
json, csv, or human format.  Exit codes: 0 success, 1 tolerance or
assertion failure, 2 usage or domain error, 3 certification failure (with
--require-certificate).  A key=value configuration file named by the
SIMPLEFRAC_CONFIG environment variable, then one named by --config, override
tolerance defaults, and --tol overrides both; the Config built once from them
is passed to every call, and its non-default fields are reported.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import bernstein as bn
from . import cauchy as cy
from . import minimax as mx
from .cheb import EllipseParam, chebyshev_points, ellipse_classify
from .config import ENV_VAR, Config, load_config, non_defaults
from .errors import DomainError, SimplefracError, TheoremRangeError, ToleranceNotMetError
from .extremal import (
    FixedPoleClass,
    LogDerivative,
    _weight,
    alternance_points_weighted,
    build_candidate_unweighted,
    build_extremal_weighted,
    dvp_bracket,
    extremal_weighted_norm,
    lambda_bounds,
    sup_norm,
    verify_pole_annulus,
    weighted_sup_norm,
)
from .report import RunReport, fmt_float
from .targets import parse_pole_list, parse_target

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_UNCERTIFIED = 3


def _values_arg(text: str) -> str:
    """Inline comma list, or the contents of a file if the argument names one."""
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as fh:
            return ",".join(tok for tok in fh.read().replace("\n", ",").split(",") if tok.strip())
    return text


def _cmd_extremal(args, cfg: Config) -> tuple[RunReport, int]:
    cls = FixedPoleClass(args.n, args.a)
    rep = RunReport(command="extremal", inputs={
        "n": args.n, "a": args.a, "weighted": bool(args.weighted), "force": bool(args.force),
    })
    rho = build_extremal_weighted(cls, force=args.force)
    if not rho.within_theorem_range:
        rep.diagnostics.append(
            "a <= sqrt(2): outside theorem hypotheses, construction only"
        )
    ea = EllipseParam(cls.a)
    rep.outputs["poles"] = list(rho.poles)
    rep.outputs["ellipse_residuals"] = [ellipse_classify(ea, z, cfg=cfg).residual
                                        for z in rho.poles]
    if args.weighted:
        alt, zeros = alternance_points_weighted(cls, cfg=cfg)
        rep.outputs["norm"] = extremal_weighted_norm(cls)
        rep.outputs["norm_kind"] = "weighted"
        rep.outputs["alternance"] = dataclasses.asdict(alt)
        rep.outputs["weighted_zeros"] = list(zeros)
        measured = weighted_sup_norm(rho, cfg=cfg)
    else:
        measured = sup_norm(rho, cfg=cfg)
        rep.outputs["norm"] = measured.value
        rep.outputs["norm_kind"] = "unweighted"
    rep.outputs["measured_norm"] = measured.value
    rep.outputs["measured_at"] = measured.location
    return rep, EXIT_OK


def _cmd_candidate(args, cfg: Config) -> tuple[RunReport, int]:
    cls = FixedPoleClass(args.n, args.a)
    rep = RunReport(command="candidate", inputs={"n": args.n, "a": args.a})
    cand = build_candidate_unweighted(cls, cfg=cfg)
    bounds = lambda_bounds(cls)
    annulus = verify_pole_annulus(cls, cand, cfg=cfg)
    rep.outputs["poles"] = list(cand.poles)
    rep.outputs["lambda_lower"] = bounds.lower
    rep.outputs["lambda_upper"] = bounds.upper
    rep.outputs["annulus"] = {
        "t": annulus.t,
        "all_in_closure_ea": annulus.all_in_closure_ea,
        "all_outside_et": annulus.all_outside_et,
        "ea_residuals": list(annulus.ea_residuals),
        "et_residuals": list(annulus.et_residuals) if annulus.et_residuals else None,
        "min_abs_pole": annulus.min_abs_pole,
    }
    try:
        bracket = dvp_bracket(cls, cfg=cfg)
        rep.outputs["bracket"] = {
            "lower": bracket.lower,
            "upper": bracket.upper,
            "weak_equiv_ratio": bracket.weak_equiv_ratio,
        }
    except TheoremRangeError as exc:
        rep.diagnostics.append(f"deviation bracket unavailable: {exc}")
    return rep, EXIT_OK


def _cmd_borchardt(args, cfg: Config) -> tuple[RunReport, int]:
    rep = RunReport(command="borchardt", inputs={"tol": cfg.borchardt_tol})
    if args.nodes is not None or args.poles is not None:
        if args.nodes is None or args.poles is None:
            raise DomainError("--nodes and --poles must be given together")
        node_values = parse_pole_list(_values_arg(args.nodes))
        if any(z.imag for z in node_values):
            raise DomainError("nodes must be real")
        nodes = tuple(z.real for z in node_values)
        poles = parse_pole_list(_values_arg(args.poles))
        pair = cy.CauchyPair(nodes=nodes, poles=poles)
        check = cy.borchardt_check(pair, cfg=cfg)
        witness = cy.nonvanishing_witness(pair)
        rep.inputs.update({"nodes": list(nodes), "poles": list(poles)})
        rep.outputs.update({
            "lhs_det_a": check.lhs,
            "rhs_det_b_times_per_b": check.rhs,
            "rel_residual": check.rel_residual,
            "abs_det_a": witness.abs_det_a,
            "conditions_ok": witness.conditions_ok,
            "violations": list(witness.violations),
            "conditioning_flags": list(pair.conditioning_flags(cfg)),
        })
        code = EXIT_OK if check.rel_residual <= cfg.borchardt_tol else EXIT_TOLERANCE
        return rep, code
    if args.n is None:
        raise DomainError("need either --nodes/--poles or --n with --trials")
    batch = cy.borchardt_batch(sizes=[args.n], trials=args.trials, seed=args.seed, cfg=cfg)
    rep.inputs.update({"n": args.n, "trials": args.trials, "seed": args.seed})
    rep.outputs.update({
        "checked": batch.checked,
        "excluded_by_conditioning": batch.excluded,
        "draws": batch.draws,
        "max_rel_residual": batch.max_rel_residual,
        # NaN when every draw was routed to the conditioning report
        "min_abs_det_a": batch.min_abs_det_a if batch.checked else None,
        "min_normalized_det_a": batch.min_normalized_det_a if batch.checked else None,
        "excluded_by_flag": dict(batch.excluded_by_flag),
        "failures": batch.failures,
    })
    code = EXIT_OK if batch.failures == 0 else EXIT_TOLERANCE
    return rep, code


def _cmd_komarov(args, cfg: Config) -> tuple[RunReport, int]:
    p = parse_pole_list(_values_arg(args.p_poles))
    q = parse_pole_list(_values_arg(args.q_poles)) if args.q_poles else ()
    dec = cy.komarov_coefficients(p, q, validate=False)
    resid = dec.max_residual(cfg=cfg)
    rep = RunReport(command="komarov", inputs={
        "p_poles": list(p), "q_poles": list(q), "tol": cfg.komarov_tol,
    })
    rep.outputs.update({
        "gamma": list(dec.gamma),
        "max_identity_residual": resid,
        "validation_points": len(dec.validation_points(cfg=cfg)),
    })
    return rep, EXIT_OK if resid <= cfg.komarov_tol else EXIT_TOLERANCE


def _cmd_approx(args, cfg: Config) -> tuple[RunReport, int]:
    target = parse_target(args.target)
    opts = mx.ApproxOptions(
        starts=args.starts,
        seed=args.seed,
        weighted=args.weighted,
        fixed_pole=args.fixed_pole,
    )
    result = mx.solve_best_ld(target, args.n, opts, cfg=cfg)
    rep = RunReport(command="approx", inputs={
        "target": args.target, "n": args.n, "seed": args.seed,
        "starts": args.starts, "weighted": args.weighted,
        "fixed_pole": args.fixed_pole,
        "require_certificate": bool(args.require_certificate),
    })
    rep.outputs.update({
        "poles": list(result.rho.poles),
        "error": result.error,
        "certified": result.certified,
        "gap": result.gap,
        "dvp_lower": result.dvp_lower,
        "alternance": dataclasses.asdict(result.alternance),
    })
    rep.diagnostics.extend(result.diagnostics)
    if args.require_certificate and not result.certified:
        return rep, EXIT_UNCERTIFIED
    return rep, EXIT_OK


def _cmd_bernstein(args, cfg: Config) -> tuple[RunReport, int]:
    rep = RunReport(command="bernstein", inputs={
        "n": args.n, "a": args.a, "force": bool(args.force),
    })
    if args.cofactor:
        roots = parse_pole_list(_values_arg(args.cofactor))
        poly = bn.RootedPolynomial(a=args.a, cofactor_roots=roots,
                                   lead=args.lead, force=args.force, cfg=cfg)
        rep.inputs["cofactor"] = list(roots)
    else:
        rng = np.random.default_rng(args.seed)
        poly = bn.random_rooted_polynomial(args.n, args.a, rng, cfg=cfg)
        rep.inputs["seed"] = args.seed
    if poly.n != args.n:
        raise DomainError(f"--n {args.n} does not match 1 + #cofactor = {poly.n}")
    check = bn.check_corollary(poly, cfg=cfg)
    rep.outputs.update({
        "lhs_weighted": check.lhs_w,
        "rhs_weighted": check.rhs_w,
        "lhs_unweighted": check.lhs_u,
        "rhs_unweighted": check.rhs_u,
        "both_hold": check.both_hold,
        "min_abs_p": check.min_abs_p,
    })
    ratios = bn.asymptotic_ratios(args.n, args.a, force=args.force)
    rep.outputs["r1"] = ratios.r1
    rep.outputs["r2_lower"] = ratios.r2_lower
    return rep, EXIT_OK if check.both_hold else EXIT_TOLERANCE


def _cmd_sample(args, cfg: Config) -> tuple[RunReport, int]:
    xs = chebyshev_points(args.grid)
    rep = RunReport(command="sample", inputs={
        "what": args.what, "grid": args.grid, "out": args.out,
    })
    header = "x,value"
    weight_col = None
    if args.what in ("extremal-weighted", "candidate"):
        if args.n is None or args.a is None:
            raise DomainError(f"sample {args.what} needs --n and --a")
        rep.inputs.update({"n": args.n, "a": args.a})
    if args.what == "extremal-weighted":
        rho = build_extremal_weighted(FixedPoleClass(args.n, args.a), force=args.force)
        values = rho.values_on(xs)
        weight_col = _weight(xs) * values
        header = "x,value,weight_value"
    elif args.what == "candidate":
        cand = build_candidate_unweighted(FixedPoleClass(args.n, args.a), cfg=cfg)
        values = cand.values_on(xs)
    elif args.what == "residual":
        if args.target is None or args.poles is None:
            raise DomainError("sample residual needs --target and --poles")
        target = parse_target(args.target)
        rho = LogDerivative(parse_pole_list(_values_arg(args.poles)))
        if rho.has_pole_on_segment(cfg=cfg):
            raise DomainError("fraction has a pole on [-1, 1]")
        values = target.values_on(xs) - rho.values_on(xs)
        if args.weighted:
            weight_col = _weight(xs) * values
            header = "x,value,weight_value"
        rep.inputs.update({"target": args.target, "poles": args.poles})
    else:
        raise DomainError(f"unknown --what {args.what!r}")

    lines = [header]
    for i, x in enumerate(xs):
        row = f"{fmt_float(float(x))},{fmt_float(float(values[i]))}"
        if weight_col is not None:
            row += f",{fmt_float(float(weight_col[i]))}"
        lines.append(row)
    text = "\n".join(lines) + "\n"
    try:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {args.out!r}: {exc}") from exc
    rep.outputs.update({
        "rows": int(args.grid),
        "path": args.out,
        "max_abs_value": float(np.max(np.abs(values))),
    })
    if weight_col is not None:
        rep.outputs["max_abs_weight_value"] = float(np.max(np.abs(weight_col)))
    return rep, EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplefrac",
        description="Extremal logarithmic derivatives on [-1, 1]: closed-form "
        "constructions, norms, alternance certificates, Cauchy/Borchardt "
        "matrix checks, and a certified minimax solver.",
    )
    parser.add_argument("--config", help=f"key=value tolerance file (after ${ENV_VAR})")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, handler, tol_field=None):
        p.add_argument("--format", choices=("json", "csv", "human"), default="human")
        if tol_field:
            p.add_argument("--tol", type=float, default=None, help=f"sets {tol_field}")
        p.set_defaults(handler=handler, tol_field=tol_field)

    p = sub.add_parser("extremal", help="weighted-extremal fraction of the fixed-pole class")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--weighted", action="store_true",
                   help="report the weighted norm and its alternance")
    p.add_argument("--force", action="store_true",
                   help="allow 1 < a <= sqrt(2) (outside theorem hypotheses)")
    common(p, _cmd_extremal, "supnorm_xtol")

    p = sub.add_parser("candidate", help="unweighted-norm candidate fraction and bracket")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    common(p, _cmd_candidate, "supnorm_xtol")

    p = sub.add_parser("borchardt", help="determinant-permanent identity checks")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--nodes", help="comma list or file of real nodes")
    p.add_argument("--poles", help="comma list or file of complex poles")
    common(p, _cmd_borchardt, "borchardt_tol")

    p = sub.add_parser("komarov", help="residue decomposition of a difference of fractions")
    p.add_argument("--p-poles", required=True, dest="p_poles")
    p.add_argument("--q-poles", default="", dest="q_poles")
    common(p, _cmd_komarov, "komarov_tol")

    p = sub.add_parser("approx", help="best uniform approximation by a fraction")
    p.add_argument("--target", required=True,
                   help="CSV file or builtin (zero, abs, cheb:K, ld:POLES, ldcheb:POLES:EPS:K)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="seed of the start perturbations")
    p.add_argument("--starts", type=int, default=8,
                   help="exchange starts: the Lawson fit, then seeded perturbations "
                        "of its poles; each start, one with no alternating window "
                        "included, competes with what its exchange kept (more starts never "
                        "give a worse answer; the starts after one that equioscillates with "
                        "poles outside the closed unit disk are skipped, as that start is "
                        "then the unique optimum)")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--fixed-pole", type=float, default=None, dest="fixed_pole")
    p.add_argument("--require-certificate", action="store_true")
    common(p, _cmd_approx, "supnorm_xtol")

    p = sub.add_parser("bernstein", help="derivative lower bounds on rooted polynomials")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--cofactor", help="comma list or file of cofactor roots")
    p.add_argument("--lead", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")
    common(p, _cmd_bernstein, "supnorm_xtol")

    p = sub.add_parser("sample", help="plot-ready CSV samples")
    p.add_argument("--what", choices=("extremal-weighted", "candidate", "residual"),
                   required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=float)
    p.add_argument("--target")
    p.add_argument("--poles")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--force", action="store_true")
    common(p, _cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        if args.tol_field and args.tol is not None:
            cfg = dataclasses.replace(cfg, **{args.tol_field: args.tol})
        report, code = args.handler(args, cfg)
        if changed := non_defaults(cfg):
            report.inputs["config"] = changed
    except ToleranceNotMetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except (DomainError, SimplefracError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(report.render(args.format))
    return code


if __name__ == "__main__":
    sys.exit(main())
