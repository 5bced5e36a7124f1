#!/usr/bin/env python3
"""Byte-compare what two radsim trees write for one standard set of commands.

Usage::

    python3 tools/byte_compare.py PARENT_REF [CHANGE_REF]

PARENT_REF is extracted with ``git archive``; CHANGE_REF likewise, or, when
it is left out, the working tree: every file git tracks or would track
(``git ls-files --cached --others --exclude-standard``), as it is on disk.
The two trees go into one new temporary directory, at paths of equal
length, so nothing a tree writes differs by where it lies. Each tree runs
its own ``src/`` (``python -m radsim``), in its own work directory, with
relative paths only. The standard set:

* the ``--help`` texts: ``radsim --help``, and that of each subcommand the
  tree's own parser declares, so a subcommand added or removed shows as an
  item in one tree only;
* the tree's README ``sh`` examples: every line that starts with
  ``radsim``, run in order, and the files they write;
* ``library-add`` of fsk, psk and ask templates (payload seed 99) into a
  new library L; ``library-add`` onto a copy of L of mode 0640, and onto a
  copy of mode 0604 through a symlink;
* ``run --defaults --payload-bits 1024 --snr-db 10 --channel-seed 3
  --library L`` for fsk, psk and ask, each with ``--compose`` and with
  ``--no-compose``; and the default fsk run at ``--attenuation-db 6
  --snr-db 0`` and at ``--noise-power 0.5`` (channel seed 3, library L),
  so that attenuation and noise sized by power are compared too: every
  file of each run dir;
* ``propagate`` closed-form, recurrence and Monte Carlo (100 trials,
  seed 7) CSVs at the six points of ``bench/workload.py``'s
  ``PropagationSweep.POINTS``.

Every command's exit code, stdout and stderr is compared, and every file's
bytes and permission bits. The script prints each item that differs (a
unified diff for text) and then the number of differences, and exits 1 if
there is any.
"""

from __future__ import annotations

import argparse
import difflib
import os
import shlex
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

SCHEMES = ["fsk", "psk", "ask"]
# (N, M, X0, steps), as bench/workload.py's PropagationSweep.POINTS.
PROPAGATION_POINTS = ((100, 15, 1, 100), (50, 10, 1, 60), (200, 40, 1, 80),
                      (100, 100, 1, 20), (20, 4, 1, 60), (300, 30, 3, 120))
# Lines of a text diff printed per differing item.
MAX_DIFF_LINES = 40


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def extract(repo: Path, ref: str | None, dest: Path) -> None:
    """Put ``ref``'s tree, or the working tree if ``ref`` is None, at ``dest``."""
    dest.mkdir()
    if ref is not None:
        subprocess.run(["tar", "-x", "-C", str(dest)], check=True,
                       input=git(repo, "archive", "--format=tar", ref))
        return
    names = git(repo, "ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, names.decode().split("\0")):
        source = repo / name
        if source.is_file():  # a tracked file deleted from the working tree is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


class Tree:
    """One extracted tree, running its own ``src/`` and recording what it writes."""

    def __init__(self, root: Path):
        self.root = root
        self.work = root.with_name(root.name + "-work")
        self.work.mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1",
                        COLUMNS="80")  # argparse wraps --help to the terminal width
        self.items: dict[str, bytes] = {}

    def radsim(self, section: str, argv: list[str]) -> None:
        cwd = self.work / section
        cwd.mkdir(exist_ok=True)
        result = subprocess.run([sys.executable, "-m", "radsim", *argv], cwd=cwd, env=self.env,
                                capture_output=True)
        self.items[f"{section}: radsim {shlex.join(argv)}"] = (
            b"exit %d\n--- stdout\n%s--- stderr\n%s" % (result.returncode, result.stdout,
                                                         result.stderr))

    def subcommands(self) -> list[str]:
        """The subcommand names that this tree's ``cli.build_parser()`` declares."""
        code = ("import argparse\nfrom radsim.cli import build_parser\n"
                "print(*next(a for a in build_parser()._actions\n"
                "            if isinstance(a, argparse._SubParsersAction)).choices)")
        return subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                              capture_output=True, text=True).stdout.split()

    def record_files(self, skip: set[Path]) -> None:
        for path in sorted(self.work.rglob("*")):
            if path in skip or any(parent in skip for parent in path.parents):
                continue
            name = f"file {path.relative_to(self.work)}"
            if path.is_symlink():
                self.items[name] = b"symlink to " + os.fsencode(os.readlink(path))
            elif path.is_file():
                mode = stat.S_IMODE(path.stat().st_mode)
                self.items[name] = b"mode %o\n" % mode + path.read_bytes()


def readme_commands(root: Path) -> list[list[str]]:
    """The ``radsim`` lines of the README's ``sh`` blocks, as argument lists."""
    commands, in_sh = [], False
    for line in (root / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_sh = line.strip() == "```sh"
        elif in_sh and line.startswith("radsim "):
            commands.append(shlex.split(line, comments=True)[1:])
    return commands


def run_standard_set(tree: Tree) -> None:
    tree.radsim("help", ["--help"])
    for name in tree.subcommands():
        tree.radsim("help", [name, "--help"])

    readme = tree.work / "readme"
    readme.mkdir()
    shutil.copytree(tree.root / "configs", readme / "configs")
    for argv in readme_commands(tree.root):
        tree.radsim("readme", argv)

    lib = tree.work / "lib"
    tree.radsim("lib", ["payload", "--seed", "99", "--bits", "1024", "--out", "t.txt"])
    for scheme in SCHEMES:
        tree.radsim("lib", ["modulate", "--in", "t.txt", "--scheme", scheme,
                            "--out", f"{scheme}.f64"])
        tree.radsim("lib", ["library-add", "--library", "L.json", "--label", scheme,
                            "--in", f"{scheme}.f64"])
    for name, mode in (("m640.json", 0o640), ("real604.json", 0o604)):
        shutil.copyfile(lib / "L.json", lib / name)
        (lib / name).chmod(mode)
    (lib / "link.json").symlink_to("real604.json")
    tree.radsim("lib", ["library-add", "--library", "m640.json", "--label", "extra",
                        "--in", "fsk.f64"])
    tree.radsim("lib", ["library-add", "--library", "link.json", "--label", "extra",
                        "--in", "psk.f64"])

    for scheme in SCHEMES:
        for compose in ("--compose", "--no-compose"):
            tree.radsim("lib", ["run", "--defaults", "--modulation", scheme,
                                "--payload-bits", "1024", "--snr-db", "10", "--channel-seed", "3",
                                "--library", "L.json", compose,
                                "--out", f"runs/{scheme}{compose}"])
    for name, channel in (("attenuated", ["--attenuation-db", "6", "--snr-db", "0"]),
                          ("noise-power", ["--noise-power", "0.5"])):
        tree.radsim("lib", ["run", "--defaults", "--payload-bits", "1024", *channel,
                            "--channel-seed", "3", "--library", "L.json", "--out", f"runs/{name}"])

    for n, m, x0, steps in PROPAGATION_POINTS:
        for method, extra in (("closed", []), ("recurrence", []),
                              ("montecarlo", ["--trials", "100", "--seed", "7"])):
            tree.radsim("propagate", ["propagate", "--n", str(n), "--m", str(m), "--x0", str(x0),
                                      "--steps", str(steps), "--method", method, *extra,
                                      "--out", f"{n}-{m}-{x0}-{steps}-{method}.csv"])

    tree.record_files(skip={readme / "configs"})


def describe(a: bytes, b: bytes) -> list[str]:
    """A unified diff of two texts, or the sizes of two binary values."""
    try:
        texts = [value.decode() for value in (a, b) if b"\0" not in value]
    except UnicodeDecodeError:
        texts = []
    if len(texts) < 2:
        return [f"  binary: {len(a)} bytes -> {len(b)} bytes"]
    lines = list(difflib.unified_diff(texts[0].splitlines(), texts[1].splitlines(),
                                      "parent", "change", lineterm="", n=1))
    shown = lines[2:2 + MAX_DIFF_LINES]  # without the two file-name lines
    more = len(lines) - 2 - len(shown)
    return ["  " + line for line in shown] + ([f"  ... {more} more lines"] if more > 0 else [])


def compare(parent: dict[str, bytes], change: dict[str, bytes]) -> int:
    differences = 0
    for key in sorted(parent.keys() | change.keys()):
        if key not in change or key not in parent:
            print(f"only in {'parent' if key in parent else 'change'}: {key}")
        elif parent[key] != change[key]:
            print(f"differs: {key}")
            print("\n".join(describe(parent[key], change[key])))
        else:
            continue
        differences += 1
    print(f"{len(parent.keys() | change.keys())} items compared, {differences} differences")
    return differences


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("change_ref", nargs="?", help="default: the working tree")
    args = parser.parse_args(argv)
    repo = Path(git(Path(__file__).resolve().parent, "rev-parse", "--show-toplevel")
                .decode().strip())
    with tempfile.TemporaryDirectory(prefix="radsim-byte-compare-") as tmp:
        trees = []
        for name, ref in (("a", args.parent_ref), ("b", args.change_ref)):
            extract(repo, ref, Path(tmp) / name)
            trees.append(Tree(Path(tmp) / name))
            run_standard_set(trees[-1])
        return int(compare(trees[0].items, trees[1].items) > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
