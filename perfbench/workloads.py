"""The four benchmark workloads: inputs from a seed, set-up, ops, digests and
the independent checks.

Each workload function takes the seed and the pass index and does the
workload's set-up (group balls, tables, calculi).  It returns ``(ops, check)``: ``ops`` is a list of
``Op`` records in run order, and ``check`` (or None) takes the results of the
kept ops and returns a list of failure messages from a route independent of
the one that produced them.

The seed only reorders work whose total is fixed (``tables``,
``pcan_sweep``, ``certificates``; every pass is the same) or draws words from
a fixed space whose every member has a recorded reference digest
(``pcan_cli``, new words for each pass).  So every seed gives inputs that are
supported at the commit the references were recorded at.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import random
from collections import namedtuple
from functools import partial

import coxkit
from coxkit import (CoxeterMatrix, KLTable, LocalCalculus, NElt,
                    ParabolicKLTable)
from coxkit import cli

# Module functions are called as ``coxkit.f`` so that a traced pass sees the
# wrapped binding; ``cli.main`` likewise.

Op = namedtuple("Op", "key call digest keep")

# (type, cap, I or None for the Hecke algebra, spherical)
TABLE_CASES = (
    ("A5", 15, None, False),
    ("affA2", 14, (0,), False),
    ("B4", 16, (0, 1), True),
)

# (type, cap, I, word-length cap, characteristic)
SWEEP_CASES = (
    ("A2", 10, (), 5, 0),
    ("A2", 10, (), 5, 5),
    ("affA1", 12, (0,), 6, 0),
)

# (type, cap, I, word-length cap)
CERTIFICATE_CASES = (
    ("A2", 10, (), 4),
    ("A2", 10, (0,), 5),
    ("affA1", 12, (0,), 4),
)

CLI_TYPE = "A3"
CLI_RANK = 3
CLI_LENGTHS = (4, 5, 6)
CLI_PER_LENGTH = 12          # even, so each length gets as many char 0 as char 5
CLI_CHARS = (0, 5)


# -- canonical digests (read attributes only, so tracing sees no calls) --------

def _hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _poly(p):
    return sorted(p.coeffs.items())


def _expansion(coeffs):
    """A dict Element -> LaurentPoly, in shortlex order of the elements."""
    items = sorted(coeffs.items(), key=lambda kv: (kv[0].length, kv[0].word))
    return repr([(x.word, _poly(p)) for x, p in items])


def digest_column(elt):
    return _hash(_expansion(elt.coeffs))


def digest_decomposition(mults):
    return _hash(_expansion(mults))


def digest_rows(rows):
    h = hashlib.sha256()
    for y, x, p in rows:
        h.update(repr((y.word, x.word, _poly(p))).encode())
    return h.hexdigest()[:16]


def digest_repr(value):
    return _hash(repr(value))


# -- helpers -----------------------------------------------------------------

def word_name(word):
    return "".join(str(s + 1) for s in word) or "e"


def _case_name(name, I, *rest):
    parts = [name, "I" + ("".join(str(s + 1) for s in I) if I else "-")]
    return "/".join(parts + [str(r) for r in rest])


def _shuffled_by_length(items, length, rng):
    """Keep the order non-decreasing in length and shuffle inside a length,
    so every op still does the same work whatever the seed."""
    out = []
    for _, group in itertools.groupby(sorted(items, key=length), key=length):
        group = list(group)
        rng.shuffle(group)
        out.extend(group)
    return out


def words_up_to(rank, cap):
    for n in range(cap + 1):
        yield from itertools.product(range(rank), repeat=n)


def _ball(name, cap):
    return coxkit.build_ball(CoxeterMatrix.from_type(name), cap)


# -- tables ------------------------------------------------------------------

def tables(seed, _pass=0):
    """One op per canonical-basis column b_x, in order of length, then one
    ``table_rows()`` per table."""
    rng = random.Random(seed)
    cases = list(TABLE_CASES)
    rng.shuffle(cases)
    ops = []
    kl_tables = {}
    for name, cap, I, spherical in cases:
        ball = _ball(name, cap)
        if I is None:
            table = KLTable(ball)
            kl_tables[name] = table
            elements = ball.elements
        else:
            table = ParabolicKLTable(ball, frozenset(I), spherical=spherical)
            elements = ball.min_reps(frozenset(I))
        case = name + "/kl" if I is None else \
            _case_name(name, I, "M" if spherical else "N")
        for x in _shuffled_by_length(elements, lambda z: z.length, rng):
            ops.append(Op(case + "/" + word_name(x.word),
                          partial(table.b, x), digest_column, False))
        ops.append(Op(case + "/rows", table.table_rows, digest_rows, False))

    def check(_results):
        """Criterion-1 route: the parabolic table with I = {} is computed
        through the module action, independently of the Hecke algebra."""
        kl = kl_tables["A5"]
        para = ParabolicKLTable(kl.ball, frozenset())
        if [(y.idx, x.idx, p.coeffs) for y, x, p in kl.table_rows()] != \
                [(y.idx, x.idx, p.coeffs) for y, x, p in para.table_rows()]:
            return ["A5: KLTable rows differ from ParabolicKLTable(I={}) rows"]
        return []

    return ops, check


# -- pcan_sweep -----------------------------------------------------------------

def pcan_sweep(seed, _pass=0):
    """One long-lived calculus per case; one op per word."""
    rng = random.Random(seed)
    cases = list(SWEEP_CASES)
    rng.shuffle(cases)
    ops = []
    char0 = {}                  # key -> (ball, I, word) of the char-0 ops
    for name, cap, I, word_cap, char in cases:
        ball = _ball(name, cap)
        calc = LocalCalculus(ball, frozenset(I))
        case = _case_name(name, I, "L%d" % word_cap, "c%d" % char)
        for word in _shuffled_by_length(words_up_to(ball.rank, word_cap), len, rng):
            key = case + "/" + word_name(word)
            if char == 0:
                char0[key] = (ball, frozenset(I), word)
            ops.append(Op(key, partial(calc.pcanonical, word, char),
                          digest_decomposition, char == 0))

    def check(results):
        """Char-0 multiplicities against the canonical-basis expansion, the
        route ``coxkit pcan`` cross-checks with."""
        bad = []
        tables = {}
        for key, mults in results.items():
            ball, I, word = char0[key]
            table = tables.get((id(ball), I))
            if table is None:
                table = tables[(id(ball), I)] = ParabolicKLTable(ball, I)
            total = NElt(ball, I)
            for x, m in mults.items():
                total = total + table.b(x).scale(m)
            if total != coxkit.char_of_word(ball, word, I):
                bad.append(key + ": sum of m_x b_x differs from the character")
        return bad

    return ops, check


# -- certificates -------------------------------------------------------------

def certificate(calc, word):
    """The criterion-9 certificate of one word, as a list of verdicts."""
    verdicts = []
    for e in calc.decompose(word):
        verdicts.append(calc.check_diagonal(word, e))
        for f in calc.leaves_at(word, e.endpoint):
            verdicts.append(calc.double_leaf(word, e, f).endpoint_matched())
            verdicts.append(calc.check_triangularity(word, e, f))
    endpoints = sorted({e.endpoint for e in calc.decompose(word)},
                       key=lambda z: (z.length, z.word))
    for x in endpoints:
        verdicts.append(calc.gram_invertible(word, x))
    return verdicts


def certificates(seed, _pass=0):
    rng = random.Random(seed)
    cases = list(CERTIFICATE_CASES)
    rng.shuffle(cases)
    ops = []
    for name, cap, I, word_cap in cases:
        ball = _ball(name, cap)
        calc = LocalCalculus(ball, frozenset(I))
        case = _case_name(name, I, "L%d" % word_cap)
        for word in _shuffled_by_length(words_up_to(ball.rank, word_cap), len, rng):
            ops.append(Op(case + "/" + word_name(word),
                          partial(certificate, calc, word), digest_repr, False))
    return ops, None


# -- pcan_cli -----------------------------------------------------------------

def cli_key(word, char):
    return "%s/c%d/%s" % (CLI_TYPE, char, word_name(word))


def cli_requests(seed, pass_index):
    """Random words, the same number at each length and, at each length, as
    many at char 0 as at char 5.  Each pass draws its own words, so a run's
    op times cover many more words than one pass holds."""
    rng = random.Random("%d/%d" % (seed, pass_index))
    requests = []
    for length in CLI_LENGTHS:
        for i in range(CLI_PER_LENGTH):
            word = tuple(rng.randrange(CLI_RANK) for _ in range(length))
            requests.append((word, CLI_CHARS[i % len(CLI_CHARS)]))
    rng.shuffle(requests)
    return requests


def run_cli(argv):
    """``coxkit.cli.main`` in-process with stdout captured: (exit code, text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_argv(word, char):
    return ["pcan", "--type", CLI_TYPE, "--char", str(char), "--format", "csv"] \
        + ["s%d" % (s + 1) for s in word]


def digest_cli(result):
    code, text = result
    return _hash(repr((code, text)))


def _cli_op(word, char):
    return Op(cli_key(word, char), partial(run_cli, cli_argv(word, char)),
              digest_cli, False)


def pcan_cli(seed, pass_index=0):
    """One op per ``coxkit pcan`` call; nothing is shared between calls."""
    return [_cli_op(word, char) for word, char in cli_requests(seed, pass_index)], None


WORKLOADS = {
    "tables": tables,
    "pcan_sweep": pcan_sweep,
    "certificates": certificates,
    "pcan_cli": pcan_cli,
}


def reference_universe():
    """Every op key any seed can produce, grouped by workload, with a
    function that computes its result.  Used to record reference digests."""
    universe = {}
    for name in ("tables", "pcan_sweep", "certificates"):
        ops, _ = WORKLOADS[name](0)
        universe[name] = ops
    universe["pcan_cli"] = [
        _cli_op(word, char)
        for length in CLI_LENGTHS
        for word in itertools.product(range(CLI_RANK), repeat=length)
        for char in CLI_CHARS]
    return universe

