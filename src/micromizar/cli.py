"""``mizv ARTICLE --requirements FILE``: check one article.

Each error is printed as ``line:col code message``, sorted by position.
The cause of each code 99, a fault of the checker, goes to standard
error as ``mizv: internal error at line:col: description``.
The exit status is 0 when the article has no errors, 1 when it has
some, and 2 when a file cannot be read, is not UTF-8 text or is not a
well-formed requirement file, or when the requirement file lacks a
group that the article's environment names.
"""

from __future__ import annotations

import argparse
import sys

from .analyzer import Analyzer
from .errors import RequirementFileError
from .parser import parse_article
from .requirements import enable_groups, load_requirements


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="mizv", description=__doc__.split("\n\n")[0])
    ap.add_argument("article")
    ap.add_argument("--requirements", required=True, metavar="FILE")
    args = ap.parse_args(argv)
    path = args.article
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        path = args.requirements
        req = load_requirements(path)
    except OSError as e:
        print(f"mizv: {e}", file=sys.stderr)
        return 2
    except (UnicodeDecodeError, RequirementFileError) as e:
        print(f"mizv: {path}: {e}", file=sys.stderr)
        return 2
    article, parse_errors = parse_article(text)
    table, note = enable_groups(req, list(article.requirements))
    if note is not None:
        print(f"mizv: {note}", file=sys.stderr)
        return 2
    analyzer = Analyzer(table)
    errors = [e.to_error() for e in parse_errors] + analyzer.run(article)
    for e in sorted(errors, key=lambda e: (e.pos, e.code)):
        print(f"{e.pos} {e.code} {e.message}")
    for pos, what in analyzer.internal:
        print(f"mizv: internal error at {pos}: {what}", file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
