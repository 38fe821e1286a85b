"""Command-line front end: counts, orbit listings, posets, diagrams, checks.

Deterministic by construction: identical invocations produce byte-identical
output.  Errors go to stderr with an ``error[<code>]:`` prefix; exit codes
are 0 (ok), 1 (verification failure), 2 (usage), 3 (resource cap).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .catalog import BUILTIN_NAMES, SkeletonSpec, assign_letters, builtin, emit_dot, genetic_diagram, orbit_name
from .counting import build_report
from .orbits import check_tabloid_cap, classify_chiral, comparable_pairs, orbit_cover, orbit_space
from .partitions import Partition, all_partitions, format_partition, parse_partition
from .perms import CapExceeded, LinearCharacter, PermGroup, generate, linear_characters, parse_cycles, sign_product_character
from .verify import verify_skeleton

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_group_file(path: str, cap: int) -> PermGroup:
    """Group-spec text: ``degree <d>`` then one generator per line; # comments."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read group file {path}: {exc}") from None
    content = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not content or not content[0].lower().startswith("degree"):
        raise UsageError(f"{path}: first line must be 'degree <d>'")
    try:
        d = int(content[0].split()[1])
    except (IndexError, ValueError):
        raise UsageError(f"{path}: malformed degree line {content[0]!r}") from None
    try:
        gens = [parse_cycles(ln, d) for ln in content[1:]]
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return generate(gens, degree=d, cap=cap)


def resolve_skeleton(args, cap: int) -> SkeletonSpec:
    if bool(args.builtin) == bool(args.group_file):
        raise UsageError("exactly one of --builtin or --group-file is required")
    if args.builtin:
        if args.builtin not in BUILTIN_NAMES:
            raise UsageError(f"unknown builtin {args.builtin!r}; choose from {', '.join(BUILTIN_NAMES)}")
        return builtin(args.builtin)
    group = load_group_file(args.group_file, cap)
    return SkeletonSpec(name=Path(args.group_file).stem, degree=group.degree, group=group)


def resolve_shapes(args, d: int) -> list[Partition]:
    if getattr(args, "all_shapes", False) or not args.shape:
        shapes = all_partitions(d)
    else:
        try:
            shapes = [parse_partition(args.shape, d)]
        except ValueError as exc:
            raise UsageError(f"bad shape {args.shape!r}: {exc}") from None
    check_tabloid_cap(shapes)
    return shapes


def resolve_chi(args, group: PermGroup) -> tuple[LinearCharacter | None, str]:
    sel = args.chi
    if sel is None:
        return None, "1"
    if sel.startswith("kernel:"):
        try:
            gens = [parse_cycles(t, group.degree) for t in sel[len("kernel:") :].split(";") if t.strip()]
        except ValueError as exc:
            raise UsageError(f"bad kernel spec: {exc}") from None
        kernel = generate(gens, degree=group.degree, cap=args.cap)
        matches = [c for c in linear_characters(group) if set(c.kernel_elements()) == set(kernel.elements)]
        if not matches:
            raise UsageError(f"no linear character has kernel {sel[len('kernel:'):]!r}")
        return matches[0], sel
    try:
        idx = int(sel)
    except ValueError:
        raise UsageError(f"--chi must be an index or 'kernel:<perms>', got {sel!r}") from None
    chars = linear_characters(group)
    if not (0 <= idx < len(chars)):
        raise UsageError(f"character index {idx} out of range (group has {len(chars)})")
    return chars[idx], str(idx)


def resolve_theta(args, lam: Partition) -> tuple[LinearCharacter | None, str]:
    mask_text = args.theta
    if mask_text is None:
        return None, "1"
    if not set(mask_text) <= {"0", "1"}:
        raise UsageError(f"--theta must be a 0/1 mask, got {mask_text!r}")
    t = len(lam.trimmed())
    if len(mask_text) != t:
        raise UsageError(f"--theta mask length {len(mask_text)} differs from part count {t} of {lam}")
    mask = tuple(ch == "1" for ch in mask_text)
    return sign_product_character(lam, mask, lam.d), mask_text


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _reject_dot(args):
    if args.format == "dot":
        raise UsageError("dot output is only available for the diagram command")


def cmd_count(args) -> int:
    _reject_dot(args)
    spec = resolve_skeleton(args, args.cap)
    group = spec.group
    chi, chi_label = resolve_chi(args, group)
    reports = []
    for lam in resolve_shapes(args, group.degree):
        theta, theta_label = resolve_theta(args, lam)
        reports.append(build_report(group, lam, chi, theta, chi_label, theta_label))
    if args.format == "json":
        _emit(json.dumps([r.to_json_dict() for r in reports], indent=2, sort_keys=True) + "\n", args.out)
    else:
        lines = []
        for r in reports:
            routes = f"scalar={r.via_scalar} classes={r.via_classes}"
            if r.via_types is not None:
                routes += f" types={r.via_types} ruch={r.via_ruch}"
            routes += f" brute={r.via_brute}"
            lines.append(f"{format_partition(r.shape):>12}  n={r.via_scalar}  [{routes}]  {'ok' if r.agree else 'MISMATCH'}")
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if all(r.agree for r in reports) else EXIT_VERIFY


def cmd_orbits(args) -> int:
    _reject_dot(args)
    spec = resolve_skeleton(args, args.cap)
    lines = []
    payload = []
    for lam in resolve_shapes(args, spec.degree):
        space = orbit_space(spec.group, lam)
        names = _diagram_names(spec, lam, space)
        for orbit in space:
            nm = names[orbit]
            lines.append(f"{nm:>14}  size={orbit.size:<4} rep={orbit.representative}")
            payload.append(
                {
                    "name": nm,
                    "shape": str(lam),
                    "size": orbit.size,
                    "representative": str(orbit.representative),
                    "members": [str(m) for m in orbit.members],
                }
            )
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _diagram_names(spec: SkeletonSpec, lam: Partition, space) -> dict:
    pinned = spec.letters.get(lam) if spec.letters else None
    letters = assign_letters(space, pinned)
    return {orbit: orbit_name(letters[orbit], lam) for orbit in space}


def cmd_poset(args) -> int:
    _reject_dot(args)
    spec = resolve_skeleton(args, args.cap)
    d = spec.degree
    try:
        if args.shape and ":" in args.shape:
            lo_text, hi_text = args.shape.split(":", 1)
            shapes = [parse_partition(lo_text, d), parse_partition(hi_text, d)]
        elif args.shape:
            shapes = [parse_partition(args.shape, d)]
        else:
            shapes = all_partitions(d)
    except ValueError as exc:
        raise UsageError(f"bad shape {args.shape!r}: {exc}") from None
    pairs = comparable_pairs(spec.group, shapes)
    names = {}
    for lam in {orbit.shape for pair in pairs for orbit in pair}:
        names.update(_diagram_names(spec, lam, orbit_space(spec.group, lam)))
    lines = sorted(f"{names[a]} < {names[b]}  [{'cover' if orbit_cover(a, b) else 'comparable'}]" for a, b in pairs)
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_diagram(args) -> int:
    spec = resolve_skeleton(args, args.cap)
    try:
        shapes = None if not args.shape else [parse_partition(t, spec.degree) for t in args.shape.split(":")]
    except ValueError as exc:
        raise UsageError(f"bad shape {args.shape!r}: {exc}") from None
    diagram = genetic_diagram(spec, shapes)
    if args.format == "json":
        _emit(diagram.to_json(), args.out)
    else:
        _emit(emit_dot(diagram), args.out)
    return EXIT_OK


def cmd_chiral(args) -> int:
    _reject_dot(args)
    spec = resolve_skeleton(args, args.cap)
    if spec.extended is None:
        raise UsageError(f"skeleton {spec.name!r} has no stereoisomerism group")
    lines = []
    payload = []
    for lam in resolve_shapes(args, spec.degree):
        report = classify_chiral(spec.group, spec.extended, lam)
        for entry in report.entries:
            kind = "pair" if entry.is_pair else "single"
            reps = ", ".join(str(o.representative) for o in entry.fine_orbits)
            lines.append(f"{format_partition(lam):>12}  {kind:<6} chi_e={'1' if entry.chi_e_orbit else '0'}  [{reps}]")
            payload.append(
                {
                    "shape": str(lam),
                    "kind": kind,
                    "chi_e_orbit": entry.chi_e_orbit,
                    "orbits": [str(o.representative) for o in entry.fine_orbits],
                }
            )
    if args.format == "json":
        _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    _reject_dot(args)
    spec = resolve_skeleton(args, args.cap)
    result = verify_skeleton(spec)
    _emit("\n".join(result.lines) + "\n", args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="isomers", description="substitution-isomer enumeration from skeleton symmetry groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, extra in [
        ("count", cmd_count, "count orbits per shape along every route"),
        ("orbits", cmd_orbits, "list orbit representatives and sizes"),
        ("poset", cmd_poset, "print comparabilities and covers between orbits"),
        ("diagram", cmd_diagram, "emit the genetic diagram as DOT or JSON"),
        ("chiral", cmd_chiral, "split extended-group orbits into pairs and singles"),
        ("verify", cmd_verify, "run the agreement, monotonicity, and cover suites"),
    ]:
        p = sub.add_parser(name, help=extra)
        p.set_defaults(fn=fn)
        p.add_argument("--builtin", help=f"builtin skeleton: {', '.join(BUILTIN_NAMES)}")
        p.add_argument("--group-file", help="path to a group-spec text file")
        p.add_argument("--shape", help="partition such as 4,2 or 2^2,1^2 (poset also accepts low:high)")
        p.add_argument("--chi", help="character index (0 is the unit) or kernel:<cycles;cycles>")
        p.add_argument("--theta", help="0/1 sign mask over the shape's parts")
        p.add_argument("--format", default="text", choices=["text", "json", "dot"])
        p.add_argument("--out", help="write output to this path instead of stdout")
        p.add_argument("--cap", type=int, default=100_000, help="group-size cap for closure")
        if name == "count":
            p.add_argument("--all-shapes", action="store_true", help="report every partition of the degree")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error[cap]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:  # defensive: surface library rejections uniformly
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
