"""Command-line front end: counts, orbit listings, posets, diagrams, checks.

Deterministic by construction: identical invocations produce byte-identical
output.  Each subcommand takes only the flags it reads.  Errors go to stderr
with an ``error[<code>]:`` prefix; exit codes are 0 (ok), 1 (verification
failure), 2 (usage), 3 (resource cap) and 4 (internal error: a bug, never
bad input).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .catalog import BUILTIN_NAMES, SkeletonSpec, builtin, emit_dot, genetic_diagram, json_text
from .catalog import orbit_listing_json, orbit_names
from .counting import build_report, check_scalar_cap
from .dissections import tabloid_formatter
from .orbits import check_degree_cap, check_tabloid_cap, classify_chiral, orbit_poset, orbit_space
from .partitions import Partition, all_partitions, format_partition, parse_partition
from .perms import CapExceeded, LinearCharacter, PermGroup, generate, linear_characters, parse_cycles
from .verify import verify_skeleton

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_group_file(path: str, cap: int, check_degree=None) -> PermGroup:
    """Group-spec text: ``degree <d>`` then one generator per line; # comments.

    ``check_degree`` sees the degree before any generator is parsed; the
    CLI resolves and caps the requested shapes there.  So for a malformed,
    oversized file a bad header exits 2, then a bad shape 2, then a shape
    past a cap 3, then a bad generator 2, then a closure past ``cap`` 3.
    """
    try:
        lines = Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read group file {path}: {exc}") from None
    content = [ln.strip() for ln in lines if ln.strip() and not ln.strip().startswith("#")]
    if not content or not content[0].lower().startswith("degree"):
        raise UsageError(f"{path}: first line must be 'degree <d>'")
    try:
        d = int(content[0].split()[1])
    except (IndexError, ValueError):
        raise UsageError(f"{path}: malformed degree line {content[0]!r}") from None
    if d < 1:
        raise UsageError(f"{path}: degree must be positive, got {d}")
    if check_degree is not None:
        check_degree(d)
    try:
        gens = [parse_cycles(ln, d) for ln in content[1:]]
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    return generate(gens, degree=d, cap=cap)


def resolve_skeleton(args, cap: int, scalar: bool = False) -> tuple[SkeletonSpec, list[Partition]]:
    """The skeleton and its shapes, resolved from the degree before a group file's generators are read."""
    if bool(args.builtin) == bool(args.group_file):
        raise UsageError("exactly one of --builtin or --group-file is required")
    text = getattr(args, "shape", None)  # verify, which has no --shape, reads every shape
    if args.builtin:
        if args.builtin not in BUILTIN_NAMES:
            raise UsageError(f"unknown builtin {args.builtin!r}; choose from {', '.join(BUILTIN_NAMES)}")
        spec = builtin(args.builtin)
        if spec.group.order > cap:
            raise CapExceeded(f"builtin {spec.name} has a group of order {spec.group.order}, above the cap of {cap}")
        return spec, resolve_shapes(text, spec.degree, scalar)
    shapes: list[Partition] = []
    group = load_group_file(args.group_file, cap, lambda d: shapes.extend(resolve_shapes(text, d, scalar)))
    return SkeletonSpec(name=Path(args.group_file).stem, degree=group.degree, group=group), shapes


def resolve_shapes(text: str | None, d: int, scalar: bool = False) -> list[Partition]:
    """The shapes of ``--shape SHAPE[:SHAPE...]`` in the order given, or every shape of degree d.

    The tabloid cap (for every shape, on the finest, 1^d, which has the
    most tabloids) and for ``scalar`` requests the scalar-route cap are
    checked before any shape is used.
    """
    if text is None:
        check_degree_cap(d)
    try:
        shapes = all_partitions(d) if text is None else list(dict.fromkeys(parse_partition(t, d) for t in text.split(":")))
    except ValueError as exc:
        raise UsageError(f"bad shape {text!r}: {exc}") from None
    check_tabloid_cap(shapes)
    if scalar:
        check_scalar_cap(shapes)
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


def resolve_theta(args, lam: Partition) -> tuple[tuple[bool, ...] | None, str]:
    mask_text = args.theta
    if mask_text is None:
        return None, "1"
    if not set(mask_text) <= {"0", "1"}:
        raise UsageError(f"--theta must be a 0/1 mask, got {mask_text!r}")
    t = len(lam.trimmed())
    if len(mask_text) != t:
        raise UsageError(f"--theta mask length {len(mask_text)} differs from part count {t} of {lam}")
    return tuple(ch == "1" for ch in mask_text), mask_text


def _emit(text: str, out: str | None):
    if not out:
        sys.stdout.write(text)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out}: {exc}") from None


def cmd_count(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap, scalar=True)
    group = spec.group
    chi, chi_label = resolve_chi(args, group)
    reports = []
    for lam in shapes:
        theta, theta_label = resolve_theta(args, lam)
        reports.append(build_report(group, lam, chi, theta, chi_label, theta_label))
    if args.format == "json":
        _emit(json_text([r.to_json_dict() for r in reports]), args.out)
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
    spec, shapes = resolve_skeleton(args, args.cap)
    named = []
    for lam in shapes:
        space = orbit_space(spec.group, lam)
        names = orbit_names(space, spec.letters)
        named.extend((names[orbit], orbit) for orbit in space)
    if args.format == "json":
        _emit(orbit_listing_json(named), args.out)
    else:
        lines = [f"{nm:>14}  size={orbit.size:<4} rep={tabloid_formatter(orbit.shape)(orbit.words[0])}" for nm, orbit in named]
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_poset(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap)
    poset = orbit_poset(spec.group, shapes)
    names = {}
    for lam in {orbit.shape for a, b, _ in poset for orbit in (a, b)}:
        names.update(orbit_names(orbit_space(spec.group, lam), spec.letters))
    lines = sorted(f"{names[a]} < {names[b]}  [{'cover' if cover else 'comparable'}]" for a, b, cover in poset)
    _emit("\n".join(lines) + ("\n" if lines else ""), args.out)
    return EXIT_OK


def cmd_diagram(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap)
    diagram = genetic_diagram(spec, shapes)
    _emit(diagram.to_json() if args.format == "json" else emit_dot(diagram), args.out)
    return EXIT_OK


def cmd_chiral(args) -> int:
    if args.group_file and not args.builtin:  # a group file gives no extended group, so it is not read
        raise UsageError(f"skeleton {Path(args.group_file).stem!r} has no stereoisomerism group")
    spec, shapes = resolve_skeleton(args, args.cap)
    if spec.extended is None:
        raise UsageError(f"skeleton {spec.name!r} has no stereoisomerism group")
    lines = []
    payload = []
    for lam in shapes:
        report = classify_chiral(spec.group, spec.extended, lam)
        text = tabloid_formatter(lam)
        for entry in report.entries:
            kind = "pair" if entry.is_pair else "single"
            reps = [text(o.words[0]) for o in entry.fine_orbits]
            lines.append(f"{format_partition(lam):>12}  {kind:<6} chi_e={'1' if entry.chi_e_orbit else '0'}  [{', '.join(reps)}]")
            payload.append({"shape": str(lam), "kind": kind, "chi_e_orbit": entry.chi_e_orbit, "orbits": reps})
    if args.format == "json":
        _emit(json_text(payload), args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, _ = resolve_skeleton(args, args.cap)
    result = verify_skeleton(spec)
    _emit("\n".join(result.lines) + "\n", args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


SHAPE_HELP = "SHAPE[:SHAPE...], each a partition such as 4,2 or 2^2,1^2 (default: every shape of the degree)"


def build_parser() -> _Parser:
    """Each subcommand gets only the flags its command reads; any other flag is a usage error."""
    source = _Parser(add_help=False)
    source.add_argument("--builtin", help=f"builtin skeleton: {', '.join(BUILTIN_NAMES)}")
    source.add_argument("--group-file", help="path to a group-spec text file")
    source.add_argument("--cap", type=int, default=100_000, help="largest group order allowed (closure, builtins)")
    source.add_argument("--out", help="write output to this path instead of stdout")
    shape = _Parser(add_help=False)
    shape.add_argument("--shape", help=SHAPE_HELP)

    parser = _Parser(prog="isomers", description="substitution-isomer enumeration from skeleton symmetry groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, parents, formats=()):
        p = sub.add_parser(name, help=summary, parents=parents)
        p.set_defaults(run=fn)
        if formats:
            p.add_argument("--format", default=formats[0], choices=formats)
        return p

    count = command("count", cmd_count, "count orbits per shape along every route", [source], ("text", "json"))
    shapes = count.add_mutually_exclusive_group()
    shapes.add_argument("--shape", help=SHAPE_HELP)
    shapes.add_argument("--all-shapes", action="store_true", help="report every partition of the degree (the default)")
    count.add_argument("--chi", help="character index (0 is the unit) or kernel:<cycles;cycles>")
    count.add_argument("--theta", help="0/1 sign mask over the shape's parts")
    command("orbits", cmd_orbits, "list orbit representatives and sizes", [source, shape], ("text", "json"))
    command("poset", cmd_poset, "print comparabilities and covers between orbits", [source, shape])
    command("diagram", cmd_diagram, "emit the genetic diagram as DOT or JSON", [source, shape], ("dot", "json"))
    command("chiral", cmd_chiral, "split extended-group orbits into pairs and singles", [source, shape], ("text", "json"))
    command("verify", cmd_verify, "run the agreement, monotonicity, and cover suites", [source])
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error[cap]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a bug, not bad input: user input is checked where it enters
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
