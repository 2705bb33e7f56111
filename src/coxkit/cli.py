"""Command-line surface: polynomial tables, invariant check suites,
canonical-basis decompositions, and a content-keyed result cache.

Exit codes: 0 pass, 1 check failure, 2 usage error, 3 resource/cap error.
Stdout carries data; stderr carries diagnostics (machine-readable JSON for
errors).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
import tempfile

from .coxeter import CoxeterMatrix, build_ball
from .errors import (CapError, NotFinitaryError, ResourceError,
                     UnsupportedBraidError, UnsupportedCharacteristicError,
                     UsageError)
from .leaves import char_of_word
from .localization import LocalCalculus, relation_oracle
from .parabolic import (Element_shortlex, NElt, ParabolicKLTable,
                        check_deodhar, check_finitary, check_monotonicity)

ALGORITHM_VERSION = "coxkit-tables-1"

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# -- input plumbing -----------------------------------------------------------

def _matrix_from_args(args):
    if args.type and args.matrix:
        raise UsageError("give either --type or --matrix, not both")
    if args.type:
        return CoxeterMatrix.from_type(args.type)
    if args.matrix:
        try:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:    # ValueError: not UTF-8
            raise UsageError("cannot read --matrix: %s" % exc) from None
        return CoxeterMatrix.from_json(text)
    raise UsageError("one of --type or --matrix is required")


def _parse_gen(token, rank):
    text = token[1:] if token.startswith("s") else token
    try:
        k = int(text)
    except ValueError:
        raise UsageError("bad generator token %r (use s1 ... s%d)" % (token, rank))
    if not 1 <= k <= rank:
        raise UsageError("generator %r out of range 1..%d" % (token, rank))
    return k - 1


def _parse_I(tokens, rank):
    return frozenset(_parse_gen(t, rank) for t in tokens)


def _parse_word(tokens, rank):
    return tuple(_parse_gen(t, rank) for t in tokens)


def _gen_name(s):
    return "s%d" % (s + 1)


def _word_name(word):
    return "*".join(_gen_name(s) for s in word) if word else "e"


def _elt_name(x):
    return _word_name(x.word)


# -- output rendering ----------------------------------------------------------

def _render(rows, header, fmt):
    """rows: list of lists of strings."""
    if fmt == "csv":
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    elif fmt == "json":
        print(json.dumps({"columns": list(header), "rows": rows},
                         sort_keys=True, indent=2))
    else:  # pretty
        widths = [max([len(h)] + [len(r[i]) for r in rows])
                  for i, h in enumerate(header)]
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        print(line)
        print("-" * len(line))
        for row in rows:
            print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


# -- cache ---------------------------------------------------------------------

def _cache_key(payload):
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cache_load(cache_dir, key):
    """The cached table rows, or None on a miss.  A missing, unreadable,
    undecodable or wrong-shaped entry is a miss, which the caller recomputes
    and overwrites."""
    path = os.path.join(cache_dir, key + ".json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("version") != ALGORITHM_VERSION:
        return None
    rows = data.get("rows")
    if not isinstance(rows, list) or not all(
            isinstance(row, list) and len(row) == 3
            and all(isinstance(c, str) for c in row) for row in rows):
        return None
    return rows


def _cache_store(cache_dir, key, payload, rows):
    os.makedirs(cache_dir, exist_ok=True)
    data = {"version": ALGORITHM_VERSION, "key": payload, "rows": rows}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        os.replace(tmp, os.path.join(cache_dir, key + ".json"))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- table commands ---------------------------------------------------------------

def _table_rows(command, matrix, I, cap):
    table = ParabolicKLTable(build_ball(matrix, cap), I,
                             spherical=(command == "mpoly"))
    return [[_elt_name(y), _elt_name(x), str(p)] for y, x, p in table.table_rows()]


def cmd_table(command, args):
    matrix = _matrix_from_args(args)
    # klpoly takes no --I: the Hecke algebra is N at I = {}
    I = _parse_I(getattr(args, "I", ()), matrix.rank)
    payload = {
        "command": command,
        "matrix": matrix.to_json(),
        "I": sorted(I),
        "cap": args.cap,
        "version": ALGORITHM_VERSION,
    }
    rows = None
    key = _cache_key(payload)
    if args.cache_dir:
        rows = _cache_load(args.cache_dir, key)
    if rows is None:
        rows = _table_rows(command, matrix, I, args.cap)
        if args.cache_dir:
            try:
                _cache_store(args.cache_dir, key, payload, rows)
            except OSError as exc:
                raise UsageError("cannot write --cache-dir: %s" % exc) from None
    _render(rows, ("y", "x", "poly"), args.format)
    return EXIT_PASS


# -- check suites ------------------------------------------------------------------
#
# Each suite returns its counterexample rows [label, label, note]; none is a pass.

def _mismatches(reps, holds, note):
    """Rows for the pairs y, x of reps with l(y) <= l(x) where holds fails."""
    return [[_elt_name(y), _elt_name(x), note] for x in reps for y in reps
            if y.length <= x.length and not holds(y, x)]


def _check_positivity(ball, I, args):
    table = ParabolicKLTable(ball, I)
    return [[_elt_name(y), _elt_name(x), str(p)]
            for y, x, p in table.table_rows() if not p.is_nonneg()]


def _check_deodhar(ball, I, args):
    kl = ParabolicKLTable(ball, frozenset())
    ntable = ParabolicKLTable(ball, I)
    return _mismatches(ball.min_reps(I),
                       lambda y, x: check_deodhar(kl, ntable, y, x),
                       "deodhar mismatch")


def _check_finitary(ball, I, args):
    kl = ParabolicKLTable(ball, frozenset())
    mtable = ParabolicKLTable(ball, I, spherical=True)
    w0 = ball.longest_element(I)  # raises if W_I is not finitary
    reps = [x for x in ball.min_reps(I)
            if x.length + w0.length <= ball.length_cap]
    return _mismatches(reps, lambda y, x: check_finitary(kl, mtable, y, x),
                       "finitary mismatch")


def _check_monotonicity(ball, I, args):
    # chain {} <= {i1} <= {i1,i2} <= ... following the order of --I
    chain = [frozenset()]
    for s in sorted(I):
        chain.append(chain[-1] | {s})
    tables = [ParabolicKLTable(ball, J) for J in chain]
    bad = []
    for small, big in zip(tables, tables[1:]):
        bad += _mismatches(ball.min_reps(big.I),
                           lambda y, x: check_monotonicity(big, small, y, x),
                           "I=%s vs J=%s" % (sorted(big.I), sorted(small.I)))
    return bad


def _check_gradedrank(ball, I, args):
    rng = random.Random(args.seed)
    bad = []
    for _ in range(args.count):
        length = rng.randint(0, args.cap)
        word = tuple(rng.randrange(ball.rank) for _ in range(length))
        lhs = char_of_word(ball, word, I)
        rhs = NElt.unit(ball, I).mul_b_word(word)
        if lhs != rhs:
            bad.append([_word_name(word), "", "character mismatch"])
    return bad


def _check_localization(ball, I, args):
    calc = LocalCalculus(ball, I)
    bad = [[name, "", "relation failure"]
           for name, ok in relation_oracle(calc) if not ok]
    for length in range(min(args.cap, args.word_cap) + 1):
        for word in itertools.product(range(ball.rank), repeat=length):
            leaves = calc.indices(word)
            endpoints = sorted({e.endpoint for e in leaves},
                               key=Element_shortlex)
            for x in endpoints:
                lv = calc.leaves_at(word, x)
                for e in lv:
                    if not calc.check_diagonal(word, e):
                        bad.append([_word_name(word), _elt_name(x),
                                    "diagonal not unit*roots"])
                    for f in lv:
                        if not calc.check_triangularity(word, e, f):
                            bad.append([_word_name(word), _elt_name(x),
                                        "triangularity failure"])
                        if not calc.double_leaf(word, e, f).endpoint_matched():
                            bad.append([_word_name(word), _elt_name(x),
                                        "endpoint mismatch"])
                if not calc.gram_invertible(word, x):
                    bad.append([_word_name(word), _elt_name(x),
                                "pairing matrix not invertible"])
    return bad


CHECKS = {
    "positivity": _check_positivity,
    "deodhar": _check_deodhar,
    "finitary": _check_finitary,
    "monotonicity": _check_monotonicity,
    "gradedrank": _check_gradedrank,
    "localization": _check_localization,
}


def cmd_check(args):
    matrix = _matrix_from_args(args)
    I = _parse_I(args.I, matrix.rank)
    ball = build_ball(matrix, args.cap)
    bad = CHECKS[args.which](ball, I, args)
    if not bad:
        print("PASS %s" % args.which)
        return EXIT_PASS
    print("FAIL %s (%d counterexamples)" % (args.which, len(bad)))
    for row in bad[:50]:
        print("  " + " ".join(c for c in row if c))
    return EXIT_FAIL


# -- pcan ---------------------------------------------------------------------------

def cmd_pcan(args):
    matrix = _matrix_from_args(args)
    I = _parse_I(args.I, matrix.rank)
    word = _parse_word(args.word, matrix.rank)
    cap = max(args.cap, len(word))
    ball = build_ball(matrix, cap)
    calc = LocalCalculus(ball, I)
    decomposition = calc.pcanonical(word, char=args.char)

    if args.char == 0:
        # automatic cross-check against the canonical-basis route
        table = ParabolicKLTable(ball, I)
        total = NElt(ball, I)
        for x, mult in decomposition.items():
            total = total + table.b(x).scale(mult)
        if total != char_of_word(ball, word, I):
            print("FAIL pcan cross-check against canonical-basis expansion",
                  file=sys.stderr)
            return EXIT_FAIL

    rows = [[_elt_name(x), str(mult)] for x, mult in decomposition.items()]
    _render(rows, ("x", "multiplicity"), args.format)
    return EXIT_PASS


# -- argument parsing -----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as UsageError, which main prints as JSON
    with exit code 2."""

    def error(self, message):
        raise UsageError(message)


# The options a command may take beyond --type, --matrix and --cap.
_OPTIONS = {
    "I": dict(nargs="*", default=(), metavar="GEN",
              help="parabolic generators, e.g. s1 s3"),
    "format": dict(choices=("csv", "json", "pretty"), default="pretty"),
    "cache-dir": dict(default=None),
    "seed": dict(type=int, default=0, help="seed for random-word suites"),
    "char": dict(type=int, default=0, help="characteristic (0 or a prime)"),
    "count": dict(type=int, default=100,
                  help="number of random words for gradedrank"),
    "word-cap": dict(type=int, default=4,
                     help="word length cap for localization checks"),
}


def _add_options(parser, *names):
    """Declare --type, --matrix, --cap and the _OPTIONS `names`."""
    parser.add_argument("--type", help="built-in Coxeter type, e.g. A3, B2, H3, I2_7, affA1")
    parser.add_argument("--matrix", help="path to a JSON Coxeter matrix file")
    parser.add_argument("--cap", type=int, default=6,
                        help="length cap for the group ball (default 6)")
    for name in names:
        parser.add_argument("--" + name, **_OPTIONS[name])


def build_parser():
    parser = _Parser(
        prog="coxkit",
        description="Exact Coxeter/Hecke/antispherical computations.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (("npoly", "antispherical canonical-basis table"),
                      ("mpoly", "spherical canonical-basis table")):
        _add_options(sub.add_parser(name, help=doc), "I", "format", "cache-dir")
    _add_options(sub.add_parser("klpoly", help="Kazhdan-Lusztig table"),
                 "format", "cache-dir")

    p = sub.add_parser("check", help="run a named invariant suite")
    p.add_argument("which", choices=tuple(CHECKS))
    _add_options(p, "I", "seed", "count", "word-cap")

    p = sub.add_parser("pcan", help="canonical/p-canonical decomposition of a word")
    p.add_argument("word", nargs="*", metavar="GEN",
                   help="letters of the word, e.g. s1 s2 s1")
    _add_options(p, "I", "format", "char")
    return parser


# Built by the first main call, not at import, and reused by the later ones:
# parse_args keeps no state between calls, and no option default is mutable.
_parser = None


def main(argv=None):
    global _parser
    try:
        if _parser is None:
            _parser = build_parser()
        args = _parser.parse_args(argv)
        for name in ("cap", "count", "word_cap"):
            if getattr(args, name, 0) < 0:
                raise UsageError("--%s must be >= 0" % name.replace("_", "-"))
        if args.command in ("npoly", "mpoly", "klpoly"):
            return cmd_table(args.command, args)
        if args.command == "check":
            return cmd_check(args)
        return cmd_pcan(args)
    except (UsageError, NotFinitaryError, UnsupportedBraidError,
            UnsupportedCharacteristicError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_USAGE
    except (CapError, ResourceError, MemoryError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
