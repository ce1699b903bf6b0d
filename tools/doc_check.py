#!/usr/bin/env python3
"""doc-check: documentation consistency checks for the mNoC tree.

Documentation that drifts from the code is worse than no
documentation, so this checker enforces the three invariants the
docs overhaul relies on:

  md-link        every relative markdown link in a tracked .md file
                 must resolve to an existing file, and a `#anchor`
                 fragment must match a heading in the target page
                 (GitHub slug rules: lowercase, punctuation dropped,
                 spaces to dashes).
  knob-table     the knob table in src/common/knobs.cc and the README
                 environment-knob table agree in both directions:
                 every table row has a README row and every README
                 row names a table row.  Code under src/, tools/,
                 bench/ and examples/ reads MNOC_* variables only
                 through the table, so a `getenv("MNOC_...")`
                 anywhere but knobs.cc is a finding.
  orphan-doc     every page under docs/ is reachable by following
                 relative links from README.md and DESIGN.md, so no
                 page can silently fall out of the documentation
                 tree.

Usage:
  tools/doc_check.py [--root DIR]

Exits 0 when clean, 1 when any finding is reported, 2 on usage
errors.  Findings print as `path:line: [rule] message`, matching
mnoc-lint's output shape.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# Markdown files checked for links, relative to the repo root.
DOC_FILES = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md",
             "CHANGES.md")
DOC_DIRS = ("docs",)

# Roots of the reachability walk for the orphan-doc rule.
LINK_ROOTS = ("README.md", "DESIGN.md")

# Directories scanned for MNOC_* environment reads, and the one file
# allowed to make them.
CODE_DIRS = ("src", "tools", "bench", "examples")
KNOB_TABLE = Path("src/common/knobs.cc")

MD_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
GETENV_RE = re.compile(r"getenv\(\"(MNOC_[A-Z_]+)\"\)")
KNOB_ROW_RE = re.compile(r"\{\"(MNOC_[A-Z_]+)\",\s*KnobKind::")
README_ROW_RE = re.compile(r"^\|\s*`(MNOC_[A-Z_]+)`\s*\|")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading line."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root: Path) -> list[Path]:
    files = [root / name for name in DOC_FILES
             if (root / name).is_file()]
    for sub in DOC_DIRS:
        files.extend(sorted((root / sub).glob("*.md")))
    return files


def page_anchors(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        match = HEADING_RE.match(line)
        if match:
            anchors.add(github_slug(match.group(1)))
    return anchors


def extract_links(path: Path) -> list[tuple[int, str]]:
    links = []
    in_fence = False
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in MD_LINK_RE.finditer(line):
            links.append((lineno, match.group(1)))
    return links


def check_links(root: Path, findings: list[str]) -> dict[Path, set]:
    """Validate every relative link; return the link graph."""
    graph: dict[Path, set] = {}
    anchor_cache: dict[Path, set] = {}
    for page in markdown_files(root):
        rel = page.relative_to(root)
        graph[rel] = set()
        for lineno, target in extract_links(page):
            if re.match(r"^[a-z][a-z0-9+.-]*:", target):
                continue  # absolute URL (https:, mailto:, ...)
            raw, _, anchor = target.partition("#")
            if not raw:
                dest = page  # pure in-page anchor
            else:
                dest = (page.parent / raw).resolve()
                if not dest.is_file():
                    findings.append(
                        f"{rel}:{lineno}: [md-link] broken link "
                        f"'{target}': no such file")
                    continue
            if dest.suffix == ".md" and dest.is_relative_to(root):
                graph[rel].add(dest.relative_to(root))
            if anchor:
                if dest not in anchor_cache:
                    anchor_cache[dest] = page_anchors(dest)
                if anchor not in anchor_cache[dest]:
                    findings.append(
                        f"{rel}:{lineno}: [md-link] broken anchor "
                        f"'{target}': no heading slugs to "
                        f"'#{anchor}'")
    return graph


def line_matches(path: Path, regex: re.Pattern) -> list[tuple]:
    """(line number, first group) of every match in a file."""
    text = path.read_text(encoding="utf-8", errors="replace")
    return [(lineno, match.group(1))
            for lineno, line in enumerate(text.splitlines(), 1)
            for match in regex.finditer(line)]


def check_knobs(root: Path, findings: list[str]) -> None:
    in_table = {name: lineno for lineno, name
                in line_matches(root / KNOB_TABLE, KNOB_ROW_RE)}
    in_readme = {name: lineno for lineno, name
                 in line_matches(root / "README.md", README_ROW_RE)}
    for name, lineno in sorted(in_table.items()):
        if name not in in_readme:
            findings.append(
                f"{KNOB_TABLE}:{lineno}: [knob-table] {name} is in "
                f"the knob table but has no row in the README "
                f"environment-knob table")
    for name, lineno in sorted(in_readme.items()):
        if name not in in_table:
            findings.append(
                f"README.md:{lineno}: [knob-table] {name} is "
                f"documented but has no row in {KNOB_TABLE}")
    for sub in CODE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            rel = path.relative_to(root)
            if (path.suffix not in (".cc", ".hh", ".cpp")
                    or "fixtures" in path.parts or rel == KNOB_TABLE):
                continue
            for lineno, name in line_matches(path, GETENV_RE):
                findings.append(
                    f"{rel}:{lineno}: [knob-table] reads {name} with "
                    f"getenv; read it through the knob table in "
                    f"{KNOB_TABLE}")


def check_orphans(root: Path, graph: dict[Path, set],
                  findings: list[str]) -> None:
    reachable = set()
    stack = [Path(name) for name in LINK_ROOTS]
    while stack:
        page = stack.pop()
        if page in reachable:
            continue
        reachable.add(page)
        stack.extend(graph.get(page, ()))
    for page in graph:
        if page.parts[0] in DOC_DIRS and page not in reachable:
            findings.append(
                f"{page}:1: [orphan-doc] not reachable by links "
                f"from {' or '.join(LINK_ROOTS)}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="documentation consistency checks")
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    args = parser.parse_args()
    root = Path(args.root).resolve()
    if not (root / "README.md").is_file():
        print(f"doc_check: no README.md under {root}",
              file=sys.stderr)
        return 2

    findings: list[str] = []
    graph = check_links(root, findings)
    check_knobs(root, findings)
    check_orphans(root, graph, findings)

    for finding in sorted(findings):
        print(finding)
    if findings:
        print(f"doc_check: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"doc_check: {len(graph)} pages clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
