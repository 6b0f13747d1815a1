#!/usr/bin/env python3
"""Relative-link checker for the repo's markdown tree (stdlib only).

Usage: check_docs_links.py [REPO_ROOT]

Scans every tracked *.md file (README.md, docs/, and friends) for
markdown links and fails (exit 1) when a *relative* link points at a
file that does not exist, or an intra-document `#fragment` names a
heading the target file does not contain. External links (http/https/
mailto) are deliberately not fetched — CI must not depend on the
network — and bare URLs outside link syntax are ignored.

It also scans the *.cpp and *.hpp files under src/, tests/, bench/ and
examples/ for *.md names (comments citing a document) and fails when a
name resolves to no file, either from the repo root or from the citing
file's directory.

Heading anchors follow the GitHub convention: lowercase, spaces to
hyphens, punctuation (except hyphens/underscores) stripped.
"""

import os
import re
import sys

# [text](target) — stops at the first unescaped ')'; images share the
# syntax via the leading '!', which the pattern happily includes.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
CODE_FENCE_RE = re.compile(r"```.*?```", re.DOTALL)
# A *.md name in source text; ':' is included so URLs match whole and
# can be skipped.
MD_NAME_RE = re.compile(r"[\w./:-]*\.md\b")
CODE_DIRS = ("src", "tests", "bench", "examples")

SKIP_DIRS = {".git", "build", "build-rel", "build-san", "build-tsan",
             "build-warn", "build-clang", ".github"}


def anchor_of(heading):
    """GitHub-style anchor for a heading line's text."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def markdown_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in filenames:
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def anchors_in(path, cache={}):
    if path not in cache:
        with open(path, encoding="utf-8") as f:
            body = CODE_FENCE_RE.sub("", f.read())
        cache[path] = {anchor_of(h) for h in HEADING_RE.findall(body)}
    return cache[path]


def check_file(md_path, root):
    """Returns a list of 'file:target: why' problem strings."""
    with open(md_path, encoding="utf-8") as f:
        body = CODE_FENCE_RE.sub("", f.read())
    problems = []
    rel_md = os.path.relpath(md_path, root)
    for match in LINK_RE.finditer(body):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        # The badge row's ../../actions/... links resolve on GitHub's
        # web UI (relative to the repo page), not in the worktree.
        if target.startswith("../../actions/"):
            continue
        path_part, _, fragment = target.partition("#")
        dest = (md_path if not path_part
                else os.path.normpath(
                    os.path.join(os.path.dirname(md_path), path_part)))
        if not os.path.exists(dest):
            problems.append(f"{rel_md}: broken link -> {target}")
            continue
        if fragment and dest.endswith(".md"):
            if fragment not in anchors_in(dest):
                problems.append(
                    f"{rel_md}: missing anchor -> {target}")
    return problems


def code_files(root):
    for top in CODE_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
            for name in filenames:
                if name.endswith((".cpp", ".hpp")):
                    yield os.path.join(dirpath, name)


def check_code_file(path, root):
    """Returns a 'file:line: cites missing name' string per dangling
    *.md name in a source file."""
    problems = []
    rel = os.path.relpath(path, root)
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            for name in MD_NAME_RE.findall(line):
                if "://" in name:
                    continue
                candidates = (os.path.join(root, name),
                              os.path.join(os.path.dirname(path), name))
                if not any(os.path.isfile(c) for c in candidates):
                    problems.append(f"{rel}:{lineno}: cites missing {name}")
    return problems


def main(argv):
    root = os.path.abspath(argv[1]) if len(argv) > 1 else os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
    problems = []
    count = 0
    for md_path in sorted(markdown_files(root)):
        count += 1
        problems.extend(check_file(md_path, root))
    code_count = 0
    for code_path in sorted(code_files(root)):
        code_count += 1
        problems.extend(check_code_file(code_path, root))
    for problem in problems:
        print(f"BROKEN: {problem}", file=sys.stderr)
    print(f"checked {count} markdown and {code_count} source file(s): "
          f"{len(problems)} broken link(s) or citation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
