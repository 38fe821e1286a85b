"""A seeded fuzz of the command line, run in process through ``cli.main``.

Requests are drawn uniformly over subcommands, sources, shapes and flags,
and on purpose from the families that pass the per-shape caps: two-part
shapes near the degree at degrees 200-1000, one-part and malformed shapes
at degree 10^6, and all-shape requests on groups of degree 7-8.  Every
request runs twice.  Its exit code must be 0-3 (4 is an internal error),
its stdout the same both times, and its stderr no longer than its argv
plus a constant: no message may print an input the request was not given.
"""

import contextlib
import hashlib
import io
import random

import pytest

from isomers.cli import COMMANDS, main
from isomers.dissections import _shape_words, tabloid_positions

SEED = 1
STDERR_SLACK = 200  # the longest fixed text of a message, with room to spare
SUBCOMMANDS = ("count", "orbits", "poset", "diagram", "chiral", "verify")
MALFORMED_FILES = {
    "unclosed.grp": "degree 4\n(12\n",
    "repeated.grp": "degree 4\n(12)(23)\n",
    "outside.grp": "degree 3\n(1 4)\n",
    "header.grp": "order 4\n(12)\n",
    "zero.grp": "degree 0\n",
    "word.grp": "degree x\n",
    "empty.grp": "",
}


def _shape(rng: random.Random, d: int) -> str:
    """A random partition of d, largest part first."""
    parts, left = [], d
    while left:
        parts.append(rng.randint(1, min(left, parts[-1] if parts else left)))
        left -= parts[-1]
    return ",".join(map(str, parts))


def _malformed_shape(rng: random.Random, d: int) -> str:
    return rng.choice(["", "0", "-1", "2,4", "a", "1^x", "1,,1", "1^0", f"{d},{d}", f"{d + 1}", f"1^{d + 1}", f"{d - 1},2", "5,2", f"{d}:{d - 1}"])


def _cycle(points) -> str:
    return "(" + " ".join(map(str, points)) + ")"


def _group_text(rng: random.Random, d: int) -> str:
    """A group file of degree d: trivial, cyclic, dihedral, symmetric or on random generators."""
    rotation = _cycle(range(1, d + 1))
    reflection = "".join(_cycle((k, d + 1 - k)) for k in range(1, d // 2 + 1))
    gens = rng.choice([[], [rotation], [rotation, reflection], [rotation, "(1 2)"], None])
    if gens is None:
        gens = []
        for _ in range(rng.randint(1, 2)):
            images = rng.sample(range(1, d + 1), d)
            gens.append(_cycle(images) if d > 1 else "")
    return f"degree {d}\n" + "".join(g + "\n" for g in gens)


# optional flags and the values drawn for them; --format draws the choices of
# the subcommand, and a flag a subcommand does not take is drawn now and then
FLAGS = {
    "--chi": ["0", "1", "2", "3", "9", "x", "kernel:(12)", "kernel:"],
    "--theta": ["1", "01", "10", "110", "2"],
    "--cap": ["0", "10", "100000", "-5", "z"],
    "--format": ["xml"],
    "--out": ["missing/out.txt"],
    "--all-shapes": [],
}


class _Draw:
    """Requests, each with the family it was drawn from, and the group files they read."""

    def __init__(self, rng: random.Random):
        self.rng, self.files, self.requests = rng, dict(MALFORMED_FILES), []

    def file(self, text: str) -> str:
        name = f"g{len(self.files)}.grp"
        self.files[name] = text
        return name

    def add(self, family: str, command: str, source: tuple[str, ...], shape: str | None = None):
        rng, takes = self.rng, COMMANDS[command][2]
        argv = [command, *source]
        if shape is not None and ("--shape" in takes or rng.random() < 0.1):
            argv += ["--shape", shape]
        for flag, values in FLAGS.items():
            if flag in takes:
                kind = takes[flag][0]
                values = [*kind, *values] if isinstance(kind, tuple) else values
            elif rng.random() > 0.05:
                continue
            if rng.random() < (0.1 if flag in ("--cap", "--out") else 0.3):
                argv += [flag, rng.choice(values)] if values else [flag]
        self.requests.append((family, argv))


def _draw(seed: int) -> _Draw:
    rng = random.Random(seed)
    draw = _Draw(rng)
    for _ in range(80):  # uniform: builtins, small group files and malformed ones
        kind = rng.random()
        if kind < 0.35:
            name = rng.choice(["ethene", "benzene", "naphthalene", "propane"])
            d = {"ethene": 4, "benzene": 6}.get(name, 8)
            source = ("--builtin", name)
        elif kind < 0.85:
            d = rng.randint(1, 6)
            source = ("--group-file", draw.file(_group_text(rng, d)))
        else:
            d = 4
            source = ("--group-file", rng.choice(sorted(MALFORMED_FILES)))
        command = rng.choice(SUBCOMMANDS)
        if command == "verify" and source == ("--builtin", "naphthalene"):
            command = "count"  # its cover suite takes a second; the cover suite tests run it
        roll = rng.random()
        shape = None if roll < 0.3 else _malformed_shape(rng, d) if roll < 0.45 else ":".join(_shape(rng, d) for _ in range(rng.randint(1, 2)))
        draw.add("uniform", command, source, shape)
    for _ in range(10):  # two-part shapes near the degree, on the trivial group
        d = rng.randint(200, 1000)
        k = rng.randint(1, 3)
        shape = rng.choice([f"{d - k},{k}", f"{d - k},{k}:{d}", f"{d - 1},1:{d}"])
        draw.add("near the degree", rng.choice(SUBCOMMANDS[:4]), ("--group-file", draw.file(f"degree {d}\n")), shape)
    million = draw.file("degree 1000000\n")
    for _ in range(12):  # one-part and malformed shapes at degree 10^6
        shape = "1000000" if rng.random() < 0.3 else _malformed_shape(rng, 1_000_000)
        draw.add("degree 10^6", rng.choice(SUBCOMMANDS), ("--group-file", million), shape)
    for _ in range(6):  # every shape of a group of degree 7 or 8
        d = rng.randint(7, 8)
        draw.add("all shapes at degree 7-8", rng.choice(SUBCOMMANDS[:4]), ("--group-file", draw.file(_group_text(rng, d))))
    return draw


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest(), err.getvalue()


@pytest.fixture
def fresh_word_caches():
    """Drop the shape words this test enumerates at large degrees, so later tests do not carry them."""
    yield
    _shape_words.cache_clear()
    tabloid_positions.cache_clear()


def test_seeded_requests_stay_in_contract(tmp_path, monkeypatch, fresh_word_caches):
    draw = _draw(SEED)
    for name, text in draw.files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    broken, accepted = [], set()
    for family, argv in draw.requests:
        (code, out, err), again = _run(argv), _run(argv)
        if code not in (0, 1, 2, 3) or out != again[1] or len(err) > len(" ".join(argv)) + STDERR_SLACK:
            broken.append((argv, code, err[:300]))
        if code == 0:
            accepted.add(family)
    assert broken == []
    assert accepted == {family for family, _ in draw.requests}  # every family reaches past the checks
