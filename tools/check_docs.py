#!/usr/bin/env python
"""Documentation checker: links, anchors, and executable examples.

Two passes over the living documentation (README.md, DESIGN.md,
EXPERIMENTS.md, docs/*.md):

1. **Links and anchors** — every relative markdown link must point at an
   existing file, and every ``#fragment`` (in-file or cross-file) must
   match a heading's GitHub-style slug.  External ``http(s)`` links are
   not fetched (CI has no network guarantee); their syntax is all that is
   checked.
2. **Executable examples** — every fenced ```python block in
   docs/OBSERVABILITY.md and docs/SERVICE.md, plus the block(s) in
   README.md's "Observability quickstart" section, is run in a subprocess with
   ``PYTHONPATH=src``; the fenced ```bash blocks in docs/INTERNALS.md
   §10's "Running it" subsection (the ``python -m repro fuzz`` examples)
   run through ``bash -e`` the same way.  Docs that stop working stop
   merging.

Exit status 0 when everything passes; each failure is printed with
``file:line``.  Run from the repository root (CI) or anywhere inside it::

    python tools/check_docs.py
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: The living documentation set (generated artifacts like PAPERS.md /
#: SNIPPETS.md are excluded — they quote external material verbatim).
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

#: file (relative to ROOT) -> heading restricting which fenced python
#: blocks run; None runs every block in the file.
EXECUTE = {
    "docs/COMPILER.md": None,
    "docs/DURABILITY.md": None,
    "docs/OBSERVABILITY.md": None,
    "docs/SERVICE.md": None,
    "README.md": "Observability quickstart",
}

#: Same, for fenced ```bash blocks (run via ``bash -e`` in a temporary
#: directory — command examples must be self-contained and CWD-free).
EXECUTE_SHELL = {
    "docs/INTERNALS.md": "Running it",  # §10 Differential fuzzing
}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*$", re.MULTILINE)
FENCE_RE = re.compile(r"^```(\w*)\s*$")


def doc_paths() -> list[pathlib.Path]:
    paths = [ROOT / name for name in DOC_FILES]
    paths += sorted((ROOT / "docs").glob("*.md"))
    return [p for p in paths if p.exists()]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug: lowercase, drop punctuation, spaces→dashes."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # code spans keep content
    text = text.lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"\s", "-", text.strip())


def slugs_of(path: pathlib.Path, cache: dict) -> set[str]:
    if path not in cache:
        cache[path] = {
            github_slug(m.group(1))
            for m in HEADING_RE.finditer(path.read_text())
        }
    return cache[path]


def check_links() -> list[str]:
    errors: list[str] = []
    slug_cache: dict = {}
    for path in doc_paths():
        text = path.read_text()
        for m in LINK_RE.finditer(text):
            target = m.group(1)
            line = text.count("\n", 0, m.start()) + 1
            where = f"{path.relative_to(ROOT)}:{line}"
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            base, _, fragment = target.partition("#")
            dest = path if not base else (path.parent / base).resolve()
            if not dest.exists():
                errors.append(f"{where}: broken link -> {target}")
                continue
            if fragment and dest.suffix == ".md":
                if fragment not in slugs_of(dest, slug_cache):
                    errors.append(
                        f"{where}: anchor #{fragment} not found in "
                        f"{dest.relative_to(ROOT)}"
                    )
    return errors


def fenced_blocks(path: pathlib.Path, section: str | None,
                  language: str = "python") -> list[tuple[int, str]]:
    """(start line, code) for each fenced block of ``language``, optionally
    only those under the given heading (until the next heading of any
    level)."""
    blocks: list[tuple[int, str]] = []
    in_section = section is None
    lang = None
    buf: list[str] = []
    start = 0
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if lang is None and line.startswith("#"):
            hm = HEADING_RE.match(line)
            if hm and section is not None:
                in_section = section.lower() in hm.group(1).lower()
        fm = FENCE_RE.match(line)
        if lang is None and fm:
            lang, buf, start = fm.group(1), [], lineno
        elif lang is not None and line.strip() == "```":
            if lang == language and in_section:
                blocks.append((start, "\n".join(buf) + "\n"))
            lang = None
        elif lang is not None:
            buf.append(line)
    return blocks


def run_blocks() -> list[str]:
    errors: list[str] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # bash blocks say `python`: make sure it resolves to this interpreter
    env["PATH"] = os.path.dirname(sys.executable) + os.pathsep + env["PATH"]
    plans = [
        (rel, section, "python", [sys.executable, "-c"])
        for rel, section in EXECUTE.items()
    ] + [
        (rel, section, "bash", ["bash", "-e", "-c"])
        for rel, section in EXECUTE_SHELL.items()
    ]
    for rel, section, language, runner in plans:
        path = ROOT / rel
        if not path.exists():
            errors.append(f"{rel}: file listed in EXECUTE is missing")
            continue
        blocks = fenced_blocks(path, section, language)
        if not blocks:
            errors.append(
                f"{rel}: no fenced {language} blocks found to execute"
            )
        for lineno, code in blocks:
            with tempfile.TemporaryDirectory() as tmp:
                proc = subprocess.run(
                    runner + [code],
                    capture_output=True, text=True, timeout=300,
                    env=env, cwd=tmp,  # blocks must not depend on the CWD
                )
            if proc.returncode != 0:
                tail = proc.stderr.strip().splitlines()[-8:]
                errors.append(
                    f"{rel}:{lineno}: example block failed "
                    f"(exit {proc.returncode})\n    " + "\n    ".join(tail)
                )
            else:
                print(f"ok: {rel}:{lineno} example block ran clean")
    return errors


def main() -> int:
    errors = check_links()
    print(f"links: {len(doc_paths())} files checked, "
          f"{len(errors)} broken")
    errors += run_blocks()
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
