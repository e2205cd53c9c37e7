"""Command-line entry point: construct maps, run falsifiers, scan
parameter grids, build and verify decompositions, and run the acceptance
suite, with seeded reproducible JSON/CSV artifacts.

Every output embeds the tool version, the seed, the fully resolved
configuration and the wall clock, so a run can be reproduced from its own
artifact. Exit codes: 0 success; 1 for usage errors and any input the
library refuses (a ValueError or subclass), turned into exit 1 in main
alone; 2 when --expect contradicts the computed verdict. A RuntimeError
traceback means a broken internal invariant, not bad input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from datetime import datetime, timezone

from . import __version__, serialize
from .certify import (
    SearchBudget,
    check_phi_k_condition,
    falsify_co_ks,
    falsify_k_positivity,
    falsify_ks,
    scan_threshold,
)
from .decompose import (
    DecompositionInfeasibleError,
    decompose_lambda_plus_T,
    decompose_reduction,
    verify_decomposition,
)
from .maps import QuantumMap
from .suite import format_table, run_suite
from .zoo import FAMILY_NAMES, ParameterDomainError, build_family, reduction, transpose_map, lambda_plus


class CliError(Exception):
    """Usage or domain error; maps to exit code 1."""


class Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes only plain decimals, so that it reads
        # the -1e6 of "--a -1e6" as an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

    # a usage error is a CliError, so that main returns 1 for it as for
    # every other error, rather than argparse raising SystemExit
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


class Subparser(Parser):
    """A subcommand's parser. argparse hands a subcommand's unrecognized
    arguments up to the top-level parser, whose usage line would then be
    printed; this one reports them itself, with its own usage line."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def default_seed() -> int:
    env = os.environ.get("KSLAB_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise CliError(f"KSLAB_SEED must be an integer, got '{env}'")
    return 0


def add_map_source(p: Parser):
    p.add_argument("--family", choices=FAMILY_NAMES, help="named map family")
    p.add_argument("--map", metavar="PATH", help="JSON map file (alternative to --family)")
    p.add_argument("--base", default="identity",
                   help="base family name or JSON map path for lambda-minus/lambda-plus")
    p.add_argument("--d", type=int, help="Hilbert-space dimension")
    p.add_argument("--a", type=float, help="family parameter")
    p.add_argument("--n-kraus", type=int, default=3, help="Kraus rank for random-utp")


def add_budget(p: Parser):
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--max-iters", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-9, help="violation tolerance")


def add_output(p: Parser):
    p.add_argument("--out", metavar="PATH", help="write the artifact here (default: stdout)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: $KSLAB_SEED or 0)")


def read_artifact(path: str, key: str, parse):
    """parse() of the JSON in path, out of the artifact envelope (under key)
    that `construct` ("map") and `decompose --out` ("decomposition") write."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {key} file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in '{path}': {exc}")
    if isinstance(obj, dict) and key in obj:
        obj = obj[key]
    try:
        return parse(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"bad {key} in '{path}': {type(exc).__name__}: {exc}")


def resolve_base(args, seed: int) -> QuantumMap | None:
    """The --base map of a lambda-minus/lambda-plus family, else None."""
    if args.family not in ("lambda-minus", "lambda-plus"):
        return None
    if args.base.endswith(".json") or os.path.sep in args.base:
        return read_artifact(args.base, "map", serialize.map_from_json)
    try:
        return build_family(args.base, args.d, seed=seed, n_kraus=args.n_kraus)
    except ParameterDomainError as exc:
        raise CliError(f"bad --base: {exc}")


def resolve_map(args, seed: int) -> QuantumMap:
    if args.map and args.family:
        raise CliError("give either --family or --map, not both")
    if args.map:
        return read_artifact(args.map, "map", serialize.map_from_json)
    if not args.family:
        raise CliError("a map source is required: --family or --map")
    if args.d is None:
        raise CliError("--d is required with --family")
    return build_family(
        args.family, args.d, a=getattr(args, "a", None), base=resolve_base(args, seed),
        seed=seed, n_kraus=args.n_kraus,
    )


def resolved_config(args) -> dict:
    skip = {"func", "out", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None}


def emit(args, seed: int, payload: dict, t0: float, csv_text: str | None = None):
    """Write the JSON artifact of payload, or csv_text in its place."""
    text = csv_text
    if text is None:
        artifact = {
            "tool": "kslab",
            "version": __version__,
            "seed": seed,
            "config": resolved_config(args),
            "generated_utc": datetime.now(timezone.utc).isoformat(),
            "elapsed_seconds": round(time.perf_counter() - t0, 3),
        }
        artifact.update(payload)
        # one line: without indent json.dumps takes CPython's C encoder, and
        # the hook converts only the leaves that are not JSON types
        text = json.dumps(artifact, default=serialize.json_default) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def check_expect(expect: str | None, verdict: str) -> int:
    if expect is None:
        return 0
    want = "NoViolationFound" if expect == "no-violation" else "Violated"
    if verdict != want:
        sys.stderr.write(f"expectation failed: wanted {want}, got {verdict}\n")
        return 2
    return 0


def budget_from(args, seed: int) -> SearchBudget:
    return SearchBudget(
        restarts=args.restarts, max_iters=args.max_iters,
        seed=seed, violation_tol=args.tol,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_construct(args, seed: int, t0: float) -> int:
    Phi = resolve_map(args, seed)
    emit(args, seed, {"map": serialize.map_to_json(Phi, args.repr)}, t0)
    return 0


def cmd_certify(args, seed: int, t0: float) -> int:
    if args.k < 1 or (args.property == "co-ks" and args.k != 1):
        raise CliError(f"--property {args.property} does not take --k {args.k} (co-ks: k = 1; ks, phi-k: k >= 1)")
    Phi = resolve_map(args, seed)
    budget = budget_from(args, seed)
    if args.property == "ks":
        res = falsify_ks(Phi, args.k, budget)
    elif args.property == "co-ks":
        res = falsify_co_ks(Phi, budget)
    else:
        res = check_phi_k_condition(Phi, args.k, budget)
    emit(args, seed, {"property": args.property, "k": args.k, "label": Phi.label,
                      "result": serialize.verdict_to_json(res)}, t0)
    return check_expect(args.expect, res.verdict)


def cmd_kpos(args, seed: int, t0: float) -> int:
    Phi = resolve_map(args, seed)
    res = falsify_k_positivity(Phi, args.k, budget_from(args, seed))
    emit(args, seed, {"k": args.k, "label": Phi.label,
                      "result": serialize.verdict_to_json(res)}, t0)
    return check_expect(args.expect, res.verdict)


def cmd_scan(args, seed: int, t0: float) -> int:
    base = resolve_base(args, seed)
    scan = scan_threshold(
        args.family, args.d, args.k, args.a_min, args.a_max, args.step,
        budget_from(args, seed), base=base, direction=args.direction,
    )
    emit(args, seed, {"scan": serialize.scan_to_json(scan)}, t0,
         csv_text=serialize.scan_to_csv(scan) if args.format == "csv" else None)
    return 0


def _decompose(args) -> tuple:
    # the decomposition refuses a bad a before the target does arithmetic on it
    if args.family == "reduction":
        return decompose_reduction(args.d, args.a), reduction(args.d, args.a)
    return decompose_lambda_plus_T(args.d, args.a), lambda_plus(transpose_map(args.d), args.a)


def cmd_decompose(args, seed: int, t0: float) -> int:
    try:
        result, target = _decompose(args)
    except DecompositionInfeasibleError as exc:
        emit(args, seed, {"feasible": False, "reason": str(exc)}, t0)
        return 0
    payload = {"feasible": True,
               "decomposition": serialize.decomposition_to_json(result)}
    rc = 0
    if args.verify:
        report = verify_decomposition(result, target, budget_from(args, seed))
        payload["verification"] = serialize.verification_to_json(report)
        if not report.all_ok:
            rc = 2
    emit(args, seed, payload, t0)
    return rc


def cmd_verify(args, seed: int, t0: float) -> int:
    result = read_artifact(args.decomposition, "decomposition", serialize.decomposition_from_json)
    report = verify_decomposition(result, resolve_map(args, seed), budget_from(args, seed))
    emit(args, seed, {"verification": serialize.verification_to_json(report)}, t0)
    if args.expect == "pass" and not report.all_ok:
        sys.stderr.write("expectation failed: verification did not pass\n")
        return 2
    return 0


def cmd_suite(args, seed: int, t0: float) -> int:
    report = run_suite(seed=seed, filter=args.filter)
    sys.stderr.write(format_table(report) + "\n")
    emit(args, seed, {"suite": report}, t0)
    return 0 if report["all_passed"] or not args.expect_pass else 2


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> Parser:
    """The argument parser; it holds no per-call state, so it is built once."""
    parser = Parser(prog="kslab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=Subparser)

    p = sub.add_parser("construct", help="build a named map and write its JSON")
    add_map_source(p)
    p.add_argument("--repr", choices=("transfer", "choi", "kraus"), default="transfer")
    add_output(p)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="falsifier run for KS-type inequalities")
    add_map_source(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--property", choices=("ks", "co-ks", "phi-k"), default="ks",
                   help="co-ks takes k = 1 only; phi-k is decided in closed form: it ignores "
                        "--restarts and --max-iters, and still reads and records --tol and --seed")
    add_budget(p)
    p.add_argument("--expect", choices=("no-violation", "violation"))
    add_output(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("kpos", help="k-positivity falsifier (Schmidt-rank search)")
    add_map_source(p)
    p.add_argument("--k", type=int, required=True)
    add_budget(p)
    p.add_argument("--expect", choices=("no-violation", "violation"))
    add_output(p)
    p.set_defaults(func=cmd_kpos)

    p = sub.add_parser("scan", help="grid scan of a family's k-KS boundary")
    p.add_argument("--family", choices=FAMILY_NAMES, required=True)
    p.add_argument("--base", default="identity")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--a-min", type=float, required=True)
    p.add_argument("--a-max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--direction", choices=("ascending", "descending"), default="ascending")
    p.add_argument("--n-kraus", type=int, default=3)
    add_budget(p)
    add_output(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("decompose", help="constructive KS/co-KS decomposition")
    p.add_argument("--family", choices=("reduction", "lambda-plus-t"), required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--verify", action="store_true", help="run the verification checks")
    add_budget(p)
    add_output(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("verify", help="verify a serialized decomposition against a target")
    p.add_argument("--decomposition", metavar="PATH", required=True)
    add_map_source(p)
    add_budget(p)
    p.add_argument("--expect", choices=("pass",))
    add_output(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("suite", help="run the acceptance battery")
    p.add_argument("--filter", help="substring filter on criterion tags or number")
    p.add_argument("--expect-pass", action="store_true",
                   help="exit 2 unless every selected criterion passes")
    add_output(p)
    p.set_defaults(func=cmd_suite)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        t0 = time.perf_counter()
        if getattr(args, "d", None) is not None and args.d < 1:
            raise CliError(f"--d must be >= 1, got {args.d}")
        seed = args.seed if getattr(args, "seed", None) is not None else default_seed()
        if seed < 0:
            raise CliError(f"the seed (--seed or KSLAB_SEED) must be >= 0, got {seed}")
        return args.func(args, seed, t0)
    # refused input is a ValueError; a broken invariant (RuntimeError) is not
    except (CliError, ValueError) as exc:
        sys.stderr.write(f"kslab: error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
