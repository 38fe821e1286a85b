"""Per-request output checks, and the stdout digests they compare against.

``check`` returns None for a good response and a one-line reason
otherwise.  Every request of the finite builtin universe (all of
``enumerate`` and ``order``, and the ethene probes) must match the sha256
of its stdout recorded in ``digests.json``; ``verify`` output is checked
by its lines only.  Run this file to record the digests again:

    python3 perfbench/checks.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from collections import defaultdict
from pathlib import Path

from workloads import BUILTIN_DEGREE, PROBES, build, multinomial, partitions

DIGESTS = Path(__file__).resolve().parent / "digests.json"

_ROUTES = re.compile(r"\[([^\]]*)\]")
_BLOCK = re.compile(r"\{([0-9,]*)\}")


def request_key(argv) -> str:
    return " ".join(argv)


def load_digests() -> dict[str, str]:
    return json.loads(DIGESTS.read_text())


def _option(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _degree(argv) -> int:
    name = _option(argv, "--builtin")
    if name is not None:
        return BUILTIN_DEGREE[name]
    first = Path(_option(argv, "--group-file")).read_text().split("\n", 1)[0]
    return int(first.split()[1])


def _parse_shape(text: str) -> tuple[int, ...]:
    return tuple(sorted((int(x) for x in text.split(",")), reverse=True))


def _shape_of(rep: str) -> tuple[int, ...]:
    blocks = _BLOCK.findall(rep)
    return tuple(len([x for x in b.split(",") if x]) for b in blocks if b)


def _check_count(argv, text: str, kauffmann) -> str | None:
    lines = text.splitlines()
    d = _degree(argv)
    shape = _option(argv, "--shape")
    expected = 1 if shape else len(partitions(d))
    if len(lines) != expected:
        return f"{len(lines)} count lines, expected {expected}"
    for line in lines:
        if not line.endswith("  ok"):
            return f"routes disagree: {line.strip()}"
        routes = _ROUTES.search(line)
        values = {kv.split("=")[1] for kv in routes.group(1).split()} if routes else set()
        if len(values) != 1:
            return f"routes disagree: {line.strip()}"
    if _option(argv, "--builtin") == "naphthalene" and _option(argv, "--chi") is None:
        for line in lines:
            lam_text, n_text = line.split()[:2]
            n = int(n_text[2:])
            if n != kauffmann(lam_text):
                return f"{lam_text}: n={n}, closed form gives {kauffmann(lam_text)}"
    return None


def _check_orbits(argv, text: str) -> str | None:
    d = _degree(argv)
    sizes: dict[tuple[int, ...], int] = defaultdict(int)
    if _option(argv, "--format") == "json":
        for entry in json.loads(text):
            if entry["size"] != len(entry["members"]):
                return f"orbit {entry['name']}: size {entry['size']} but {len(entry['members'])} members"
            sizes[_shape_of(entry["representative"])] += entry["size"]
    else:
        for line in text.splitlines():
            size = int(re.search(r"size=(\d+)", line).group(1))
            sizes[_shape_of(line.split("rep=", 1)[1])] += size
    shape = _option(argv, "--shape")
    wanted = {_parse_shape(shape)} if shape else set(partitions(d))
    if set(sizes) != wanted:
        return f"orbit shapes {sorted(sizes)} differ from the requested {sorted(wanted)}"
    for lam, total in sizes.items():
        if total != multinomial(lam):
            return f"orbit sizes at {lam} sum to {total}, not {multinomial(lam)}"
    return None


def _check_verify(text: str) -> str | None:
    lines = text.splitlines()
    failed = [ln for ln in lines if ln.startswith("FAIL")]
    if failed:
        return f"verify: {failed[0]}"
    if not any(ln.startswith("ok") for ln in lines):
        return "verify ran no check"
    return None


def check(argv, returncode: int, stdout: bytes, digests: dict[str, str], kauffmann) -> str | None:
    """Why the response to ``argv`` is wrong, or None when it is right.

    ``kauffmann`` maps a naphthalene shape text to its closed-form count.
    """
    if returncode != 0:
        return f"exit code {returncode}"
    text = stdout.decode()
    command = argv[0]
    if command == "verify":
        return _check_verify(text)
    if "--builtin" in argv:
        want = digests.get(request_key(argv))
        if want is None:
            return "no recorded digest for this request"
        if hashlib.sha256(stdout).hexdigest() != want:
            return "stdout digest differs from the recorded one"
    if command == "count":
        return _check_count(argv, text, kauffmann)
    if command == "orbits":
        return _check_orbits(argv, text)
    return None


def builtin_universe() -> list[tuple[str, ...]]:
    """Every builtin request any seed can send, verify excluded."""
    reqs = []
    for workload in ("enumerate", "order"):
        reqs += build(workload, 0, Path(".")).requests
    reqs += PROBES
    return sorted({r for r in reqs if r[0] != "verify"})


def record(root: Path) -> dict[str, str]:
    import subprocess

    env = {"PYTHONPATH": str(root / "src"), "PATH": "/usr/bin:/bin"}
    out = {}
    for argv in builtin_universe():
        proc = subprocess.run(
            [sys.executable, "-m", "isomers.cli", *argv], cwd=root, env=env, capture_output=True, check=True
        )
        out[request_key(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    return out


if __name__ == "__main__":
    digests = record(Path(__file__).resolve().parent.parent)
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")
