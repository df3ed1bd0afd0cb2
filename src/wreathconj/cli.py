"""Command-line front end.

Exit codes: 0 computed (a "nonconjugate" answer is a computation, not an
error), 1 usage or parse problem, 2 budget exhausted (an index budget,
or a sweep's ball ceiling), 3 internal contract violation (a verified
construction failed its own re-check).

Elements of F_p wr Z and Z wr Z are written in Laurent notation
"(P, m)", e.g. "(x^3-1, 3)". Elements of any other A wr B are written
as JSON objects with fields A, B, f, b, as produced by every command
that prints one. The word "identity" is accepted anywhere an element
is expected.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .abelian import AbelianGroup, format_element, parse_group
from .depth import (
    EXCEEDS_BUDGET,
    BudgetExceeded,
    depth_sweep,
    describe_subgroup,
    family_depth,
    family_lamplighter,
    family_zwrz,
    family_report,
    split_conjugacy_depth,
    sweep_to_csv,
)
from .laurent import (
    ContractError,
    format_semidirect,
    from_wreath,
    parse_ring,
    parse_semidirect,
    ring_of_wreath_group,
    to_wreath,
)
from .verify import run_all, scorecard
from .witness import WitnessContractError, full_witness
from .wreath import (
    WreathElement,
    WreathGroup,
    conjugate,
    conjugate_test,
    element_from_json,
    element_to_json,
    reduce,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def parse_wreath_group(text: str) -> WreathGroup:
    parts = text.split(" wr ")
    if len(parts) != 2:
        raise ValueError(f"expected 'A wr B', got {text!r}")
    return WreathGroup(parse_group(parts[0].strip()), parse_group(parts[1].strip()))


def _ring_or_none(W: WreathGroup):
    try:
        return ring_of_wreath_group(W)
    except ValueError:
        return None


def _parse_element(W: WreathGroup, ring, text: str) -> WreathElement:
    text = text.strip()
    if text == "identity":
        return W.identity()
    if ring is not None:
        return to_wreath(parse_semidirect(text, ring))
    g = element_from_json(text)
    if g.group != W:
        raise ValueError("element belongs to a different group than --group")
    return g


def _format_element(g: WreathElement, ring) -> str:
    if g == g.group.identity():
        return "identity"
    if ring is not None:
        return format_semidirect(from_wreath(g))
    return element_to_json(g)


def _default_budget(ring: int) -> int:
    # a Z query at 24 reads at most the full Z listing at 24, about 2.4
    # ms in one process (the enum_z rows of BENCH_depth.json); a larger
    # Z default would change the answer of queries that 24 reports as
    # exceeding the budget
    return 24 if ring == 0 else 64


def _emit(text: str, out) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _jdump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# --- subcommands -----------------------------------------------------------


def _cmd_conj_test(args) -> int:
    W = parse_wreath_group(args.group)
    ring = _ring_or_none(W)
    g1 = _parse_element(W, ring, args.x)
    g2 = _parse_element(W, ring, args.y)
    z = conjugate_test(g1, g2)
    if z is not None and conjugate(z, g1) != g2:
        raise WitnessContractError("returned conjugator fails its own check")
    if args.format == "json":
        doc = {
            "result": "conjugate" if z is not None else "nonconjugate",
            "witness": _format_element(z, ring) if z is not None else None,
        }
        _emit(_jdump(doc), args.out)
    else:
        lines = ["nonconjugate"] if z is None else [
            "conjugate",
            f"witness: {_format_element(z, ring)}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_reduce(args) -> int:
    W = parse_wreath_group(args.group)
    ring = _ring_or_none(W)
    g = _parse_element(W, ring, args.x)
    r, z = reduce(g)
    if args.format == "json":
        doc = {
            "reduced": _format_element(r, ring),
            "conjugator": _format_element(z, ring),
        }
        _emit(_jdump(doc), args.out)
    else:
        _emit(
            f"{_format_element(r, ring)}\nconjugator: {_format_element(z, ring)}\n",
            args.out,
        )
    return 0


def _cmd_witness(args) -> int:
    W = parse_wreath_group(args.group)
    ring = _ring_or_none(W)
    g1 = _parse_element(W, ring, args.x)
    g2 = _parse_element(W, ring, args.y)
    if conjugate_test(g1, g2) is not None:
        raise _UsageError("inputs are conjugate; no separating quotient exists")
    w = full_witness(g1, g2)
    if isinstance(w.target, AbelianGroup):
        separated = w.image1 != w.image2
        images = [format_element(w.image1), format_element(w.image2)]
    else:
        separated = conjugate_test(w.image1, w.image2) is None
        images = [element_to_json(w.image1), element_to_json(w.image2)]
    if not separated:
        raise WitnessContractError("witness images are not separated in the target")
    doc = w.report()
    doc["image1"], doc["image2"] = images
    doc["separated"] = True
    if args.format == "json":
        _emit(_jdump(doc), args.out)
    else:
        lines = [
            f"certificate: {doc['certificate']}",
            f"target: {doc['target']}",
            f"order: {doc['target_order']}",
            f"image1: {images[0]}",
            f"image2: {images[1]}",
        ]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_depth(args) -> int:
    W = parse_wreath_group(args.group)
    ring = _ring_or_none(W)
    if ring is None:
        raise _UsageError("depth needs a group of the form Fp wr Z or Z wr Z")
    s1 = from_wreath(_parse_element(W, ring, args.x))
    s2 = from_wreath(_parse_element(W, ring, args.y))
    budget = args.budget if args.budget is not None else _default_budget(ring)
    try:
        res = split_conjugacy_depth(s1, s2, budget=budget)
    except ValueError as exc:
        raise _UsageError(str(exc))
    doc = {
        "split_depth": res.split_depth,
        "subgroup": describe_subgroup(res.subgroup) if res.found() else None,
    }
    if args.format == "json":
        _emit(_jdump(doc), args.out)
    else:
        lines = [f"split_depth: {res.split_depth}"]
        if res.found():
            lines.append(f"subgroup: {doc['subgroup']}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if res.found() else 2


def _cmd_family(args) -> int:
    if args.tag == "lamplighter":
        if args.p is None:
            raise _UsageError("lamplighter needs --p")
        pair = family_lamplighter(args.p, args.i)
    else:
        if args.p is not None:
            raise _UsageError("zwrz takes no --p; the lamp group is Z")
        pair = family_zwrz(args.i)
    res = family_depth(pair, budget=args.budget)
    rep = family_report(pair, res)
    if args.format == "text":
        text = "\n".join(f"{k}: {v}" for k, v in rep.items()) + "\n"
    else:
        text = _jdump(rep)
    _emit(text, args.out)
    return 0 if res.found() else 2


def _cmd_sweep(args) -> int:
    ring = parse_ring(args.ring)
    budget = args.budget if args.budget is not None else _default_budget(ring)
    rows = depth_sweep(ring, args.n, budget=budget, jobs=args.jobs)
    # wall-clock timing is not part of the deterministic output contract
    rows = [dataclasses.replace(r, elapsed_ms=0) for r in rows]
    if args.format == "json":
        text = _jdump([dataclasses.asdict(r) for r in rows])
    elif args.format == "text":
        text = (
            "\n".join(
                f"n={r.n} max={r.max_split_depth} pair={r.witness_pair_id!r}"
                f" subgroup={r.subgroup_descriptor!r}"
                for r in rows
            )
            + "\n"
        )
    else:
        text = sweep_to_csv(rows)
    _emit(text, args.out)
    exceeded = any(r.max_split_depth == EXCEEDS_BUDGET for r in rows)
    return 2 if exceeded else 0


def _cmd_verify(args) -> int:
    results = run_all(seed=args.seed)
    _emit(scorecard(results) + "\n", args.out)
    return 0 if all(r.passed for r in results) else 3


# --- argument wiring -------------------------------------------------------


def _build_parser() -> _Parser:
    top = _Parser(prog="wreathconj", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, fmt_default="text", formats=("json", "text")):
        p.add_argument("--out", help="write output to this file instead of stdout")
        if formats:
            p.add_argument(
                "--format",
                choices=formats,
                default=fmt_default,
                help=f"output format (default {fmt_default})",
            )

    p = sub.add_parser("conj-test", help="decide conjugacy of two elements")
    p.add_argument("--group", required=True, help="wreath product, e.g. 'F2 wr Z'")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p)
    p.set_defaults(fn=_cmd_conj_test)

    p = sub.add_parser("reduce", help="print the reduced form of an element")
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    common(p)
    p.set_defaults(fn=_cmd_reduce)

    p = sub.add_parser("witness", help="finite quotient separating a nonconjugate pair")
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("depth", help="least index of a separating split quotient")
    p.add_argument("--group", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument(
        "--budget",
        type=int,
        help="largest index to try (default 64 over Fp, 24 over Z)",
    )
    common(p)
    p.set_defaults(fn=_cmd_depth)

    p = sub.add_parser("family", help="depth report for a named example family")
    p.add_argument("--tag", required=True, choices=("lamplighter", "zwrz"))
    p.add_argument("--p", type=int, help="lamp characteristic (lamplighter only)")
    p.add_argument("--i", type=int, required=True, help="index within the family")
    p.add_argument("--budget", type=int, help="largest index to try (default: upper bound)")
    common(p, fmt_default="json")
    p.set_defaults(fn=_cmd_family)

    p = sub.add_parser("sweep", help="max split depth over balls of radius 1..n")
    p.add_argument("--ring", required=True, help="'Z' or 'F<p>', p prime, any case")
    p.add_argument("--n", type=int, required=True, help="largest radius")
    p.add_argument(
        "--budget",
        type=int,
        help="largest index to try (default 64 over Fp, 24 over Z)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    common(p, fmt_default="csv", formats=("json", "csv", "text"))
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run the acceptance scorecard")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common(p, formats=())
    p.set_defaults(fn=_cmd_verify)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ContractError, WitnessContractError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
