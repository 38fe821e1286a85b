"""Command-line front end: counts, orbit listings, posets, diagrams, checks.

Deterministic by construction: identical invocations produce byte-identical
output.  Each subcommand takes only the flags it reads.  Errors go to stderr
with an ``error[<code>]:`` prefix; exit codes are 0 (ok), 1 (verification
failure), 2 (usage, a failed write of the output included), 3 (resource
cap) and 4 (internal error: a bug, never bad input).

``main(argv)`` runs one request and returns its exit code; tests and library
callers call it in process.  ``run()`` is the process entry of ``python -m
isomers.cli`` and of the ``isomers`` script.  A request is one short-lived
process, so ``run()`` turns the cyclic collector off, calls ``main()``, runs
the exit handlers, flushes stdout and stderr and ends the process with
``os._exit``, skipping module teardown and the final collections.  Under a
tracer or profiler (cProfile, trace, coverage) it exits the normal way, so
their reports still print.
"""

from __future__ import annotations

import atexit
import errno
import gc
import os
import sys
from collections.abc import Iterable
from types import SimpleNamespace

from .catalog import BUILTIN_NAMES, SkeletonSpec, builtin, emit_dot, genetic_diagram, json_chunks, json_text
from .catalog import orbit_listing_json, orbit_listing_text, orbit_names
from .counting import build_report, check_scalar_cap
from .dissections import word_formatter
from .orbits import check_degree_cap, check_tabloid_cap, classify_chiral, orbit_poset, orbit_space
from .partitions import Partition, all_partitions, format_partition, parse_partition
from .perms import DEFAULT_CAP, CapExceeded, LinearCharacter, PermGroup, generate, linear_characters, parse_cycles
from .verify import verify_skeleton

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


def _stem(path: str) -> str:
    """The file name without its last suffix: the skeleton name of a group file."""
    return os.path.splitext(os.path.basename(path))[0]


def load_group_file(path: str, cap: int, check_degree=None) -> PermGroup:
    """Group-spec text: ``degree <d>`` then one generator per line; # comments.

    ``check_degree`` sees the degree before any generator is parsed; the
    CLI resolves and caps the requested shapes there.  So for a malformed,
    oversized file a bad header exits 2, then a bad shape 2, then a shape
    past a cap 3, then a bad generator 2, then a closure past ``cap`` 3.
    """
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
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
    return SkeletonSpec(name=_stem(args.group_file), degree=group.degree, group=group), shapes


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
        kernel = generate(gens, degree=group.degree, cap=args.cap).images  # sorted, as the group's are
        kernels = ((c, tuple(x for x, e in zip(group.images, c.exponents) if e % c.order == 0)) for c in linear_characters(group))
        matches = [c for c, images in kernels if images == kernel]
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


def _check_out(out: str):
    """Refuse, in ``_emit``'s words and creating or truncating nothing, an --out path that cannot be opened for writing."""
    parent = os.path.dirname(out) or "."
    if os.path.isdir(out):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(out if os.path.exists(out) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise UsageError(f"cannot write {out}: {OSError(code, os.strerror(code), out)}")


def _emit(chunks: Iterable[str], out: str | None):
    """Write the chunks, each as it is made, to the file out, or to stdout and flush it.

    A failed write, or a closed stdout, is a usage error raised here.  The
    chunks are made only while they are written, so every refusal of a
    request comes before its first chunk.
    """
    try:
        if out:
            with open(out, "w") as fh:
                fh.writelines(chunks)
            return
        if sys.stdout is None:
            raise UsageError("cannot write <stdout>: stdout is closed")
        write = sys.stdout.write
        for chunk in chunks:
            write(chunk)
        sys.stdout.flush()
    except OSError as exc:
        raise UsageError(f"cannot write {out or '<stdout>'}: {exc}") from None


def cmd_count(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap, scalar=True)
    group = spec.group
    chi, chi_label = resolve_chi(args, group)
    reports = []
    for lam in shapes:
        theta, theta_label = resolve_theta(args, lam)
        reports.append(build_report(group, lam, chi, theta, chi_label, theta_label))
    if args.format == "json":
        _emit((json_text([r.to_json_dict() for r in reports]),), args.out)
    else:
        lines = []
        for r in reports:
            routes = f"scalar={r.via_scalar} classes={r.via_classes}"
            if r.via_types is not None:
                routes += f" types={r.via_types} ruch={r.via_ruch}"
            routes += f" brute={r.via_brute}"
            lines.append(f"{format_partition(r.shape):>12}  n={r.via_scalar}  [{routes}]  {'ok' if r.agree else 'MISMATCH'}")
        _emit(("\n".join(lines) + "\n",), args.out)
    return EXIT_OK if all(r.agree for r in reports) else EXIT_VERIFY


def cmd_orbits(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap)
    named = []
    for lam in shapes:
        space = orbit_space(spec.group, lam)
        names = orbit_names(space, spec.letters)
        named.extend((names[orbit], orbit) for orbit in space)
    _emit(orbit_listing_json(named) if args.format == "json" else orbit_listing_text(named), args.out)
    return EXIT_OK


def cmd_poset(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap)
    poset = orbit_poset(spec.group, shapes)
    names = {}
    for lam in {orbit.shape for a, b, _ in poset for orbit in (a, b)}:
        names.update(orbit_names(orbit_space(spec.group, lam), spec.letters))
    lines = sorted(f"{names[a]} < {names[b]}  [{'cover' if cover else 'comparable'}]" for a, b, cover in poset)
    _emit(("\n".join(lines) + ("\n" if lines else ""),), args.out)
    return EXIT_OK


def cmd_diagram(args) -> int:
    spec, shapes = resolve_skeleton(args, args.cap)
    diagram = genetic_diagram(spec, shapes)
    _emit((diagram.to_json() if args.format == "json" else emit_dot(diagram),), args.out)
    return EXIT_OK


def cmd_chiral(args) -> int:
    if args.group_file and not args.builtin:  # a group file gives no extended group, so it is not read
        raise UsageError(f"skeleton {_stem(args.group_file)!r} has no stereoisomerism group")
    spec, shapes = resolve_skeleton(args, args.cap)
    if spec.extended is None:
        raise UsageError(f"skeleton {spec.name!r} has no stereoisomerism group")

    def entries():  # per coarse orbit, shape by shape: its shape, kind, chi_e flag and fine representatives
        for lam in shapes:
            text = word_formatter(lam)
            for entry in classify_chiral(spec.group, spec.extended, lam).entries:
                yield lam, "pair" if entry.is_pair else "single", entry.chi_e_orbit, [text(o.words[0]) for o in entry.fine_orbits]

    if args.format == "json":
        rows = ({"shape": str(lam), "kind": kind, "chi_e_orbit": chi_e, "orbits": reps} for lam, kind, chi_e, reps in entries())
        _emit(json_chunks(rows), args.out)
    else:
        rows = (
            f"{format_partition(lam):>12}  {kind:<6} chi_e={'1' if chi_e else '0'}  [{', '.join(reps)}]\n"
            for lam, kind, chi_e, reps in entries()
        )
        _emit(rows, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, _ = resolve_skeleton(args, args.cap)
    result = verify_skeleton(spec)
    _emit(("\n".join(result.lines) + "\n",), args.out)
    return EXIT_OK if result.ok else EXIT_VERIFY


SHAPE_HELP = "SHAPE[:SHAPE...], each a partition such as 4,2 or 2^2,1^2 (default: every shape of the degree)"

# A flag is (kind, default, metavar, help): kind is str or int for a value,
# a tuple of choices (the first the default), or bool for a switch.
SOURCE_FLAGS = {
    "--builtin": (str, None, "NAME", f"builtin skeleton: {', '.join(BUILTIN_NAMES)}"),
    "--group-file": (str, None, "PATH", "path to a group-spec text file"),
    "--cap": (int, DEFAULT_CAP, "N", f"largest group order allowed (closure, builtins; default: {DEFAULT_CAP})"),
    "--out": (str, None, "PATH", "write output to this path instead of stdout"),
}
SHAPE_FLAG = {"--shape": (str, None, "SHAPE", SHAPE_HELP)}
TEXT_OR_JSON = {"--format": (("text", "json"), "text", "", "output format (default: text)")}

# Each subcommand: its run function, its summary and the only flags it takes.
COMMANDS = {
    "count": (
        cmd_count,
        "count orbits per shape along every route",
        {
            **SOURCE_FLAGS,
            **SHAPE_FLAG,
            "--all-shapes": (bool, False, "", "report every partition of the degree (the default; not with --shape)"),
            "--chi": (str, None, "CHI", "character index (0 is the unit) or kernel:<cycles;cycles>"),
            "--theta": (str, None, "MASK", "0/1 sign mask over the shape's parts"),
            **TEXT_OR_JSON,
        },
    ),
    "orbits": (cmd_orbits, "list orbit representatives and sizes", {**SOURCE_FLAGS, **SHAPE_FLAG, **TEXT_OR_JSON}),
    "poset": (cmd_poset, "print comparabilities and covers between orbits", {**SOURCE_FLAGS, **SHAPE_FLAG}),
    "diagram": (
        cmd_diagram,
        "emit the genetic diagram as DOT or JSON",
        {**SOURCE_FLAGS, **SHAPE_FLAG, "--format": (("dot", "json"), "dot", "", "output format (default: dot)")},
    ),
    "chiral": (cmd_chiral, "split extended-group orbits into pairs and singles", {**SOURCE_FLAGS, **SHAPE_FLAG, **TEXT_OR_JSON}),
    "verify": (cmd_verify, "run the agreement, monotonicity, and cover suites", SOURCE_FLAGS),
}
EXCLUSIVE = {"--shape", "--all-shapes"}  # count takes at most one of them


def _read_option(token: str, names: tuple[str, ...]) -> tuple[str, str | None] | None:
    """token as (flag, its ``=`` value or None), ("", None) if it is an unknown option, None if it is a value.

    A long flag may be given by any unique prefix, and ``-h`` is
    ``--help``.  A token starting with '-' is still a value when it is
    '-' or '--', a negative number or holds a space.
    """
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token.startswith("--"):
        head, eq, value = token.partition("=")
        hits = [head] if head in names else [name for name in names if name.startswith(head)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {head} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif token.startswith("-h"):
        return "--help", token[2:] or None
    whole, dot, fraction = token[1:].partition(".")
    if (whole + fraction).isdecimal() and (fraction or not dot) or " " in token:  # -5, -.5, -2.5
        return None
    return "", None


def _switch(flag: str, value: str | None, command: str | None):
    """Refuse a value given to a switch; print the help of command (None: the top level) for --help."""
    if value is not None:
        raise UsageError(f"{flag} takes no value, got {value!r}")
    if flag == "--help":
        _emit((help_text(command),), None)
        raise SystemExit(EXIT_OK)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command and its flag values, each flag defaulted when not given; the last of a repeated flag wins.

    ``--help`` prints help and exits 0 where it is read, so a mistake
    before it still wins; any other mistake raises UsageError.  Every
    token is classified first, so an ambiguous prefix is refused wherever
    it stands; a token no flag reads is refused only at the end; ``--``
    ends the flags.  These are argparse's rules: every argv argparse
    accepted parses to the values it gave (``TestParser``).
    """
    stray: list[str] = []
    for k, token in enumerate(argv):
        option = _read_option(token, ("--help",))
        if option is None:
            command, argv = token, argv[k + 1 :]
            break
        if option[0]:
            _switch(*option, None)
        stray.append(token)
    else:
        raise UsageError(f"a command is required: {', '.join(COMMANDS)}")
    if command not in COMMANDS:
        raise UsageError(f"unknown command {command!r}; choose from {', '.join(COMMANDS)}")
    flags = COMMANDS[command][2]
    if "--" in argv:
        cut = argv.index("--")
        argv, stray = argv[:cut], stray + argv[cut:]
    options = [_read_option(token, (*flags, "--help")) for token in argv]
    values = {flag: spec[1] for flag, spec in flags.items()}
    given = set()
    k = 0
    while k < len(argv):
        option, k = options[k], k + 1
        if option is None or not option[0]:
            stray.append(argv[k - 1])
            continue
        flag, value = option
        kind = flags[flag][0] if flag in flags else bool
        if kind is bool:
            _switch(flag, value, command)
            value = True
        else:
            if value is None:
                if k == len(argv) or options[k] is not None:
                    raise UsageError(f"{flag} expects a value")
                value, k = argv[k], k + 1
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(f"{flag} expects an integer, got {value!r}") from None
            elif kind is not str and value not in kind:
                raise UsageError(f"{flag} must be one of {', '.join(kind)}, got {value!r}")
        given.add(flag)
        if flag in EXCLUSIVE and EXCLUSIVE <= given:
            raise UsageError(f"{' and '.join(sorted(EXCLUSIVE))} exclude each other")
        values[flag] = value
    if stray:
        raise UsageError(f"unrecognized arguments: {' '.join(stray)}")
    return SimpleNamespace(command=command, **{flag[2:].replace("-", "_"): value for flag, value in values.items()})


def help_text(command: str | None) -> str:
    """The help of one subcommand, or of the top level when command is None, from COMMANDS."""
    if command is None:
        rows = [(name, summary) for name, (_, summary, _) in COMMANDS.items()]
        head = "usage: isomers COMMAND [FLAGS]\n\nsubstitution-isomer enumeration from skeleton symmetry groups\n\ncommands:"
        tail = "\n\n'isomers COMMAND -h' lists the flags of a command.\n"
    else:
        _, summary, flags = COMMANDS[command]
        rows = [("-h, --help", "show this help and exit")]
        for flag, (kind, _, metavar, text) in flags.items():
            if isinstance(kind, tuple):
                metavar = "{" + ",".join(kind) + "}"
            rows.append((f"{flag} {metavar}".rstrip(), text))
        head = f"usage: isomers {command} [FLAGS]\n\n{summary}\n\nflags:"
        tail = "\n"
    width = max(len(left) for left, _ in rows) + 2
    return head + "".join(f"\n  {left:<{width}}{text}" for left, text in rows) + tail


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        if args.out:
            _check_out(args.out)
        return COMMANDS[args.command][0](args)
    except UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"error[cap]: {exc}", file=sys.stderr)
        return EXIT_CAP
    except Exception as exc:  # a bug, not bad input: user input is checked where it enters
        print(f"error[internal]: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def run():
    """Run main() as a one-shot process and end it, without interpreter teardown unless traced.

    A SystemExit from main() (``--help``) gives the exit code and stderr
    that ``sys.exit`` would.  The exit handlers run and the streams are
    flushed in the order the interpreter's own shutdown uses.  When that
    flush fails after main() returned 0, the failure is news: the process
    exits the normal way, and the interpreter's flush reports it.  After a
    non-zero code main() has already said what went wrong.
    """
    gc.disable()
    try:
        code = main()
    except SystemExit as stop:
        code = stop.code
    if not isinstance(code, int) or sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a stream that is None, failing or closed
        if code == EXIT_OK:
            sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
