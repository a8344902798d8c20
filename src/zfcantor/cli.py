"""Command-line interface.

Exit codes: 0 on success or a true verdict, 1 on a false or invalid
domain verdict, 2 on usage and I/O errors, a stdout closed by its reader
among them.  Verdict-style commands print one machine-readable line
`<check> <true|false>`; length reports go to stderr so stdout stays
pipeable.  Each verb imports the layers it uses, so `is-cantor --method
semantic` never loads the formula side.
"""
from __future__ import annotations

import argparse
import os
import sys

from typing import TYPE_CHECKING

from .records import InvalidInput, uncommented_lines

if TYPE_CHECKING:
    from .digraphs import Digraph
    from .symbols import Symbol

USAGE_ERROR = 2
FALSE_VERDICT = 1


class CliError(Exception):
    """Usage or I/O failure; exits with status 2."""


def _read_source(path: str | None) -> str:
    from_stdin = path is None or path == "-"
    try:
        if from_stdin:
            # text-mode stdin would let bad bytes through as surrogates
            buffer = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if buffer is None else buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        raise CliError(f"{'stdin' if from_stdin else path}: not UTF-8 text at byte {exc.start}") from exc


def _formula_text(args) -> str:
    text = "\n".join(uncommented_lines(_read_source(args.formula)))
    if not text.strip():
        raise CliError("no formula given")
    return text


def _formula_lines(args) -> list[str]:
    if args.lines:
        return [line for line in uncommented_lines(_read_source(args.formula)) if line.strip()]
    return [_formula_text(args)]


def _load_digraph_arg(args) -> Digraph:
    from .digraphs import load_digraph

    return load_digraph(_read_source(args.digraph))


def _parse_assignment(spec: str | None) -> dict[Symbol, int]:
    from .formulas import ParseError, tokenize

    env: dict[Symbol, int] = {}
    if not spec:
        return env
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise CliError(f"bad assignment {item!r}, expected var=vertex")
        var_text, vertex_text = item.split("=", 1)
        var_text = var_text.strip()
        try:
            word = tokenize(var_text)
        except ParseError:  # a malformed token is a bad variable like any other
            word = ()
        if len(word) != 1 or not word[0].is_variable:
            raise CliError(f"bad assignment variable {var_text!r}")
        if word[0] in env:
            raise CliError(f"variable {var_text!r} is bound twice")
        try:
            env[word[0]] = int(vertex_text)
        except ValueError:
            raise CliError(f"bad assignment vertex {vertex_text.strip()!r}") from None
    return env


def _annotated(word, annotate: bool) -> str:
    from .formulas import NEGATION, count, render_text

    text = render_text(word)
    if annotate:
        text += f" # length={len(word)} neg={count(word, NEGATION)}"
    return text


# ---------------------------------------------------------------------------
# Verbs


def cmd_parse(args) -> int:
    from .formulas import parse, render, tokenize

    for line in _formula_lines(args):
        tree = parse(tokenize(line))
        print(f"ok length={len(render(tree))}")
    return 0


def cmd_classify(args) -> int:
    from .formulas import classify, parse, tokenize

    for line in _formula_lines(args):
        label, _, var = classify(parse(tokenize(line)))
        print(f"{label} {var.token}" if var is not None else label)
    return 0


def cmd_expand_scheme(args) -> int:
    from .formulas import render
    from .schemes import expand, parse_scheme_text

    scheme = parse_scheme_text(_read_source(args.scheme), mode=args.mode)
    for tree in expand(scheme):
        print(_annotated(render(tree), args.annotate))
    return 0


def cmd_emit_expansions(args) -> int:
    from .cantor import emit_expansions
    from .formulas import NEGATION, count, render

    for named in emit_expansions():
        word = render(named.formula)
        print(_annotated(word, args.annotate))
        if args.check_lengths:
            print(
                f"{named.name} length={len(word)} neg={count(word, NEGATION)}"
                f" expected={named.expected_length}",
                file=sys.stderr,
            )
    return 0


def cmd_emit_phi(args) -> int:
    from .cantor import emit_phi
    from .formulas import NEGATION, count, render

    word = render(emit_phi())
    print(_annotated(word, args.annotate))
    if args.check_lengths:
        print(f"length={len(word)} neg={count(word, NEGATION)}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    from .formulas import parse, tokenize
    from .semantics import evaluate

    digraph = _load_digraph_arg(args)
    tree = parse(tokenize(_formula_text(args)))
    value = evaluate(digraph, tree, _parse_assignment(args.assign))
    print(f"eval {'true' if value else 'false'}")
    return 0 if value else FALSE_VERDICT


def cmd_is_cantor(args) -> int:
    from . import analysis

    digraph = _load_digraph_arg(args)
    value = analysis.is_cantor(digraph, method=args.method)
    witness = None if value else analysis.cantor_witness(digraph)
    print(f"is-cantor {'true' if value else 'false'}")
    if witness is not None:
        print(f"witness u={witness[0]} v={witness[1]}")
    return 0 if value else FALSE_VERDICT


def cmd_is_strongly_extensive(args) -> int:
    from . import analysis

    digraph = _load_digraph_arg(args)
    value = analysis.is_strongly_extensive(digraph)
    print(f"is-strongly-extensive {'true' if value else 'false'}")
    return 0 if value else FALSE_VERDICT


def cmd_extract_surjection(args) -> int:
    from . import analysis

    digraph = _load_digraph_arg(args)
    try:
        witness = analysis.extract_surjection(digraph, args.u, args.v)
    except analysis.NotASurjection as exc:
        print("extract-surjection false")
        print(str(exc), file=sys.stderr)
        return FALSE_VERDICT
    print("extract-surjection true")
    for a, b in sorted(witness.graph):
        print(f"pair {a} {b}")
    return 0


def cmd_omega(args) -> int:
    from .analysis import omega_prefix
    from .digraphs import dump_digraph

    sys.stdout.write(dump_digraph(omega_prefix(args.levels)))
    return 0


def cmd_census(args) -> int:
    from .census import census, counter_text, format_row, witness_listing

    row, counters = witness_listing(args.n) if args.list_witnesses else (census(args.n), ())
    print(format_row(row))
    text = counter_text(args.n)
    sys.stdout.writelines(f"# digraph {counter}\n{text(counter)}" for counter in counters)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="zfcantor", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("parse", cmd_parse, help="check that token text is a formula")
    p.add_argument("--formula", help="formula file ('-' or omitted: stdin)")
    p.add_argument("--lines", action="store_true", help="one formula per line")

    p = add("classify", cmd_classify, help="report the top-level case of a formula")
    p.add_argument("--formula", help="formula file ('-' or omitted: stdin)")
    p.add_argument("--lines", action="store_true", help="one formula per line")

    p = add("expand-scheme", cmd_expand_scheme, help="expand an abbreviation scheme file")
    p.add_argument("--scheme", required=True, help="scheme file")
    p.add_argument("--mode", choices=("strict", "relaxed"), default="strict")
    p.add_argument("--annotate", action="store_true", help="append `# length=.. neg=..`")

    p = add("emit-expansions", cmd_emit_expansions, help="print the nine built-in expansions")
    p.add_argument("--check-lengths", action="store_true", help="report lengths on stderr")
    p.add_argument("--annotate", action="store_true")

    p = add("emit-phi", cmd_emit_phi, help="print the 494-symbol Cantor sentence")
    p.add_argument("--check-lengths", action="store_true", help="report length on stderr")
    p.add_argument("--annotate", action="store_true")

    p = add("eval", cmd_eval, help="evaluate a formula in a digraph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--formula", help="formula file ('-' or omitted: stdin)")
    p.add_argument("--assign", help="variable bindings, e.g. x1=3,x2=1")

    p = add("is-cantor", cmd_is_cantor, help="check the Cantor property of a digraph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--method", choices=("semantic", "phi"), default="semantic")

    p = add("is-strongly-extensive", cmd_is_strongly_extensive, help="check strong extensivity")
    p.add_argument("--digraph", required=True)

    p = add("extract-surjection", cmd_extract_surjection, help="read off a surjection's pair graph")
    p.add_argument("--digraph", required=True)
    p.add_argument("--u", type=int, required=True, help="the function vertex")
    p.add_argument("--v", type=int, required=True, help="the domain vertex")

    p = add("omega", cmd_omega, help="emit a prefix of the countable strongly extensive digraph")
    p.add_argument("--levels", type=int, required=True)

    p = add("census", cmd_census, help="count strongly extensive and Cantor digraphs on [n]")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--list-witnesses", action="store_true", help="dump the non-Cantor digraphs")

    return top


def main(argv=None) -> int:
    try:
        return _run(argv)
    except BrokenPipeError:
        # The reader of stdout has gone.  Point stdout at devnull, so that
        # the flush at exit does not raise again.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            return USAGE_ERROR  # not a file: nothing is left to flush
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return USAGE_ERROR


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except InvalidInput as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return FALSE_VERDICT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
