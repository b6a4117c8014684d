"""Command-line front end.

Hex arguments encode bit vectors as plain integers (coordinate j = bit j
of the value); outputs are zero-padded to the vector width.  Reports are
JSON on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import epsbias, extractor, gf2m, harness, inw, qsim


def _hex(value: int, bits: int) -> str:
    return format(value, f"0{max(1, -(-bits // 4))}x")


def _field_for_m(m: int) -> gf2m.FieldParams:
    for j in range(gf2m.MAX_TOWER_INDEX + 1):
        if m == 2 * 3**j:
            return gf2m.field_new(j)
    raise SystemExit(f"m={m} is not of the form 2 * 3^j")


def _params_from_args(args) -> inw.InwParams:
    if args.raw_N is not None or args.raw_M is not None:
        if args.raw_N is None or args.raw_M is None:
            raise SystemExit("--raw-N and --raw-M must be given together")
        return inw.inw_params_raw(args.raw_N, args.raw_M, args.S)
    if args.T is None or args.eps is None:
        raise SystemExit("give either --T and --eps, or --raw-N and --raw-M")
    return inw.inw_params(args.S, args.T, args.eps)


def _add_params_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--S", type=int, required=True, help="space bound")
    p.add_argument("--T", type=int, help="output length (in-regime mode)")
    p.add_argument("--eps", type=float, help="fooling error target (in-regime mode)")
    p.add_argument("--raw-N", type=int, help="block length override (desk-scale mode)")
    p.add_argument("--raw-M", type=int, help="tree depth override (desk-scale mode)")


def _fail(message: str) -> None:
    """Reject bad input: one line on stderr, exit code 2."""
    print(f"qinw: error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _read_program(path: str, branching: bool = False):
    """A program file: operator sequence ("ops") or branching program
    ("steps"); anything else is rejected through _fail."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if "ops" in doc and not branching:
            return qsim.program_from_dict(doc)
        return qsim.bp_from_dict(doc)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        _fail(f"{path}: not a {'branching ' * branching}program file "
              f"({type(exc).__name__}: {exc})")


def _emit(obj) -> None:
    json.dump(obj, sys.stdout, indent=2)
    sys.stdout.write("\n")


# ---------------------------------------------------------------------------

def _cmd_gf(args) -> None:
    if args.op != "pow" and args.b is None:
        _fail(f"gf {args.op} needs --b")
    try:
        f = gf2m.field_new(args.i)
        a = f.el(int(args.a, 16))
        if args.op == "pow":
            out = gf2m.gf_pow(a, args.k)
        else:
            b = f.el(int(args.b, 16))
            out = gf2m.gf_add(a, b) if args.op == "add" else gf2m.gf_mul(a, b)
    except ValueError as exc:
        _fail(str(exc))
    print(_hex(out.value, f.m))


def _cmd_bias_audit(args) -> None:
    params = epsbias.BiasedSpaceParams(args.n, _field_for_m(args.m))
    _emit(epsbias.audit_bias(params, args.delta).to_dict())


def _cmd_ext_apply(args) -> None:
    field = _field_for_m(args.m)
    params = extractor.ExtParams(n=args.n, d=2 * field.m, field=field, t=args.n, eps=None)
    out = extractor.ext_apply(params, int(args.input_hex, 16), int(args.seed_hex, 16))
    print(_hex(out, args.n))


def _cmd_ext_params(args) -> None:
    p = extractor.ext_params_for(args.n, args.t, args.eps)
    _emit({"n": p.n, "d": p.d, "m": p.field.m, "t": p.t, "eps": p.eps})


def _cmd_prg(args) -> None:
    params = _params_from_args(args)
    if args.prg_cmd == "cost":
        _emit(inw.cost_model(params).to_dict())
        return
    seed = int(args.seed_hex, 16)
    if args.prg_cmd == "expand":
        out = inw.inw_expand(params, seed)
        if args.format == "bits":
            print("".join(str((out >> j) & 1) for j in range(params.T)))
        else:
            print(_hex(out, params.T))
    elif args.prg_cmd == "coord":
        print(inw.inw_coord(params, seed, args.j))
    elif args.prg_cmd == "stream":
        with open(args.out, "w") as fh:
            for bit in inw.inw_stream(params, seed):
                fh.write(str(bit))
            fh.write("\n")
        print(f"wrote {params.T} bits to {args.out}")


def _cmd_sim_run(args) -> None:
    prog = _read_program(args.program)
    if isinstance(prog, qsim.QuantumProgram):
        rho = qsim.qp_run(prog, qsim.dm_new(prog.s))
    else:
        bp = prog
        if args.uniform:
            rho = qsim.bp_run_avg(bp, qsim.dm_new(bp.s), "uniform")
        elif args.coins is not None:
            if set(args.coins) - {"0", "1"}:
                _fail(f"--coins takes only 0 and 1, got {args.coins!r}")
            if len(args.coins) != len(bp.steps):
                raise SystemExit(f"program reads {len(bp.steps)} coins, got {len(args.coins)}")
            r = sum((1 << k) for k, c in enumerate(args.coins) if c == "1")
            rho = qsim.bp_run(bp, qsim.dm_new(bp.s), r)
        else:
            raise SystemExit("branching program needs --coins or --uniform")
    p0, p1 = qsim.output_distribution(rho)
    if args.dump:
        with open(args.dump, "w") as fh:
            fh.write("row,col,re,im\n")
            for i in range(rho.mat.shape[0]):
                for j in range(rho.mat.shape[1]):
                    v = rho.mat[i, j]
                    fh.write(f"{i},{j},{float(v.real)!r},{float(v.imag)!r}\n")
    _emit({"p0": p0, "p1": p1})


def _cmd_fool_run(args) -> None:
    bp = _read_program(args.program, branching=True)
    params = _params_from_args(args)
    report = harness.fool_experiment(bp, params, n_seeds=args.sample, rng_seed=args.rng_seed)
    _emit(report.to_dict())


def _cmd_fool_level(args) -> None:
    bp = _read_program(args.program, branching=True)
    params = _params_from_args(args)
    d1, bound = harness.level_experiment(bp, params, args.i,
                                         n_seeds=args.sample, rng_seed=args.rng_seed)
    _emit({"level": args.i, "trace_norm": d1, "bound": bound})


def _cmd_fool_classical(args) -> None:
    params = _params_from_args(args)
    report = harness.classical_fool_experiment(
        args.width, args.steps, params,
        n_seeds=args.sample, rng_seed=args.rng_seed, program_rng_seed=args.program_seed)
    _emit(report.to_dict())


def _cmd_bench(args) -> None:
    _emit(harness.bench(args.suite))


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="qinw")
    sub = top.add_subparsers(dest="cmd", required=True)

    gf = sub.add_parser("gf", help="field arithmetic on hex-encoded elements")
    gf.add_argument("op", choices=["add", "mul", "pow"])
    gf.add_argument("--i", type=int, required=True, help="tower index (m = 2*3^i)")
    gf.add_argument("--a", required=True)
    gf.add_argument("--b")
    gf.add_argument("--k", type=int, default=0)
    gf.set_defaults(func=_cmd_gf)

    bias = sub.add_parser("bias", help="small-bias space auditing")
    bias_sub = bias.add_subparsers(dest="bias_cmd", required=True)
    audit = bias_sub.add_parser("audit")
    audit.add_argument("--n", type=int, required=True)
    audit.add_argument("--m", type=int, required=True)
    audit.add_argument("--delta", type=float, required=True)
    audit.set_defaults(func=_cmd_bias_audit)

    ext = sub.add_parser("ext", help="XOR extractor")
    ext_sub = ext.add_subparsers(dest="ext_cmd", required=True)
    ea = ext_sub.add_parser("apply")
    ea.add_argument("--n", type=int, required=True)
    ea.add_argument("--m", type=int, required=True)
    ea.add_argument("--seed-hex", required=True)
    ea.add_argument("--input-hex", required=True)
    ea.set_defaults(func=_cmd_ext_apply)
    ep = ext_sub.add_parser("params")
    ep.add_argument("--n", type=int, required=True)
    ep.add_argument("--t", type=int, required=True)
    ep.add_argument("--eps", type=float, required=True)
    ep.set_defaults(func=_cmd_ext_params)

    prg = sub.add_parser("prg", help="generator evaluation")
    prg_sub = prg.add_subparsers(dest="prg_cmd", required=True)
    for name in ("expand", "coord", "stream", "cost"):
        p = prg_sub.add_parser(name)
        _add_params_args(p)
        if name != "cost":
            p.add_argument("--seed-hex", required=True)
        if name == "expand":
            p.add_argument("--format", choices=["hex", "bits"], default="hex")
        if name == "coord":
            p.add_argument("--j", type=int, required=True)
        if name == "stream":
            p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_prg)

    sim = sub.add_parser("sim", help="density-matrix simulation")
    sim_sub = sim.add_subparsers(dest="sim_cmd", required=True)
    run = sim_sub.add_parser("run")
    run.add_argument("--program", required=True)
    run.add_argument("--coins")
    run.add_argument("--uniform", action="store_true")
    run.add_argument("--dump")
    run.set_defaults(func=_cmd_sim_run)

    fool = sub.add_parser("fool", help="fooling experiments")
    fool_sub = fool.add_subparsers(dest="fool_cmd", required=True)
    fr = fool_sub.add_parser("run")
    fr.add_argument("--program", required=True)
    _add_params_args(fr)
    fr.add_argument("--sample", type=int)
    fr.add_argument("--rng-seed", type=int, default=0)
    fr.set_defaults(func=_cmd_fool_run)
    fl = fool_sub.add_parser("level")
    fl.add_argument("--program", required=True)
    fl.add_argument("--i", type=int, required=True)
    _add_params_args(fl)
    fl.add_argument("--sample", type=int)
    fl.add_argument("--rng-seed", type=int, default=0)
    fl.set_defaults(func=_cmd_fool_level)
    fc = fool_sub.add_parser("classical")
    fc.add_argument("--width", type=int, required=True)
    fc.add_argument("--steps", type=int, required=True)
    _add_params_args(fc)
    fc.add_argument("--sample", type=int)
    fc.add_argument("--rng-seed", type=int, default=0)
    fc.add_argument("--program-seed", type=int, default=0)
    fc.set_defaults(func=_cmd_fool_classical)

    bench = sub.add_parser("bench", help="timing suites")
    bench.add_argument("suite", choices=["gf", "bias", "prg-stream", "prg-recursive", "sim"])
    bench.set_defaults(func=_cmd_bench)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
