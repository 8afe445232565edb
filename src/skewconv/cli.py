"""Command-line front end.

Subcommands: encode, decode, analyze, dual, trellis, simulate.  All field
elements in text I/O are integers in the polynomial-basis encoding; --pretty
renders them as powers of the cached primitive element instead.

Exit codes: 0 success, 1 usage or parse error, 2 analysis failure (for
example no syndrome former within the dual-memory bound).
"""

import argparse
import json
import sys

from .analysis import analyze_code, run_simulation
from .codespec import CodeSpecError, format_sequence, load_code, parse_sequence
from .decoder import QSChannel, bcjr, viterbi
from .dual import SyndromeFormerNotFound, syndrome_former
from .trellis import build_trellis, export_dot

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # one line, as every other refusal; the usage is what -h prints
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser():
    parser = _Parser(prog="skewconv", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="encode an information sequence")
    enc.add_argument("code", help="code-spec JSON file")
    enc.add_argument("input", help="information sequence file, or - for stdin")
    enc.add_argument("--terminate", action="store_true", help="append zero tail blocks")
    enc.add_argument("--pretty", action="store_true", help="render powers of the primitive element")

    dec = sub.add_parser("decode", help="decode a received sequence")
    dec.add_argument("code", help="code-spec JSON file")
    dec.add_argument("received", help="received sequence file, or - for stdin")
    dec.add_argument("--terminate", action="store_true", help="frame was zero-tail terminated")
    dec.add_argument("--method", choices=("viterbi", "bcjr"), default="viterbi")
    dec.add_argument("--eps", type=float, default=None, help="channel error probability (bcjr)")
    dec.add_argument("--pretty", action="store_true")

    ana = sub.add_parser(
        "analyze", aliases=["distance"], help="distance and structure report as JSON"
    )
    ana.add_argument("code")
    ana.add_argument("--lmax", type=int, default=None, help="largest loop length tabulated")

    dual = sub.add_parser("dual", help="compute the dual-code syndrome former")
    dual.add_argument("code", nargs="?", default=None)
    dual.add_argument("--code", dest="code_flag", default=None, help="code-spec JSON file")
    dual.add_argument("--mu-perp-max", type=int, default=None, help="dual memory search cap")
    dual.add_argument("--pretty", action="store_true")

    trl = sub.add_parser("trellis", help="emit the unrolled trellis as Graphviz DOT")
    trl.add_argument("code")
    trl.add_argument("--sections", type=int, default=3)
    trl.add_argument("--out", default=None, help="output file (default stdout)")

    sim = sub.add_parser("simulate", help="Monte-Carlo symbol/frame error simulation")
    sim.add_argument("code")
    sim.add_argument("--eps", type=float, required=True)
    sim.add_argument("--trials", type=int, default=1000)
    sim.add_argument("--frame-len", type=int, default=8)
    sim.add_argument("--seed", type=int, default=0)
    return parser


def _read_text(path):
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _cmd_encode(args, out):
    code = load_code(args.code)
    u = parse_sequence(code.field, _read_text(args.input), code.k, what="information block")
    v = code.encode(u, terminate=args.terminate)
    out.write(format_sequence(v, pretty=args.pretty))
    return 0


def _cmd_decode(args, out):
    code = load_code(args.code)
    received = parse_sequence(code.field, _read_text(args.received), code.n, what="code block")
    tr = build_trellis(code)
    if args.method == "bcjr":
        if args.eps is None:
            raise CodeSpecError("--eps is required for bcjr decoding")
        result = bcjr(tr, received, QSChannel(code.field.size, args.eps), terminated=args.terminate)
    else:
        result = viterbi(tr, received, terminated=args.terminate)
    out.write(format_sequence(result.info_est, pretty=args.pretty))
    return 0


def _cmd_analyze(args, out):
    code = load_code(args.code)
    report = analyze_code(code, lmax=args.lmax)
    out.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_dual(args, out):
    path = args.code_flag or args.code
    if path is None:
        raise CodeSpecError("a code-spec file is required (positional or --code)")
    code = load_code(path)
    sf = syndrome_former(code, mu_perp_max=args.mu_perp_max)
    check = sf.check
    doc = {"mu_perp": sf.dual_memory, "H": check.to_ints()}
    if args.pretty:
        doc["H_pretty"] = [[repr(e) for e in row] for row in check.entries]
    out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
    return 0


def _cmd_trellis(args, out):
    code = load_code(args.code)
    dot = export_dot(build_trellis(code), args.sections)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dot)
    else:
        out.write(dot)
    return 0


def _cmd_simulate(args, out):
    code = load_code(args.code)
    report = run_simulation(
        code, eps=args.eps, trials=args.trials, frame_len=args.frame_len, seed=args.seed
    )
    out.write(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n")
    return 0


_COMMANDS = {
    "encode": _cmd_encode,
    "decode": _cmd_decode,
    "analyze": _cmd_analyze,
    "distance": _cmd_analyze,
    "dual": _cmd_dual,
    "trellis": _cmd_trellis,
    "simulate": _cmd_simulate,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except SyndromeFormerNotFound as exc:
        print(f"skewconv: {exc}", file=sys.stderr)
        return 2
    except (CodeSpecError, ValueError, OSError) as exc:
        print(f"skewconv: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
