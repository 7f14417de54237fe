"""Command-line front end.

Reads a JSON analysis document (finite code or regex), dispatches to the
library, and prints a human-readable table or a machine-readable JSON
report. Exit codes: 0 success, 1 false verdict under ``--quiet``,
2 malformed input or output that can no longer be written, 3 state-cap
exceeded, 4 precondition violation, 5 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cached_property
from typing import Optional

from . import fsa as A
from . import lattice as L
from .errors import InputError, PartfactError, PreconditionError, StateCapExceededError
from .finite_code import (
    FiniteCode,
    Partition,
    canonical_partition,
    characteristic_partition,
    enumerate_prime_relations,
    p_factorize,
    sp_is_ud,
)
from .fsa import Fsa
from .regular import (
    RegularCode,
    RegularMonoid,
    RegularPartition,
    _base_partition,
    _extension,
    base,
    coding_ambiguity_witness,
    completeness_witness,
    free_product_check,
    gen_ud,
    is_base,
    is_complete,
    is_dense,
    is_full,
    is_maximal,
    is_maximal_ud,
    is_thin,
    lemma2_check,
    ud_ambiguity_witness,
)
from .words import Alphabet

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_BAD_INPUT = 2
EXIT_RESOURCE = 3
EXIT_PRECONDITION = 4
EXIT_INTERNAL = 5

DEFAULT_PRIME_RELATION_BOUND = 12


class Document:
    """Parsed analysis request: alphabet, code, optional partitions."""

    def __init__(self, data: dict):
        if not isinstance(data, dict):
            raise InputError("the input document must be a JSON object")
        try:
            alphabet_spec = data["alphabet"]
            kind = data["kind"]
        except KeyError as e:
            raise InputError(f"missing field {e.args[0]!r}") from None
        if not isinstance(alphabet_spec, (list, str)):
            raise InputError('"alphabet" must be a list of symbols or a string')
        self.alphabet = Alphabet(alphabet_spec)
        if kind not in ("finite", "regex"):
            raise InputError('"kind" must be "finite" or "regex"')
        self.kind = kind
        self.finite_code: Optional[FiniteCode] = None
        if kind == "finite":
            words = data.get("code")
            if not isinstance(words, list) or not all(isinstance(w, str) for w in words):
                raise InputError('finite documents need "code": a list of words')
            self.finite_code = FiniteCode(self.alphabet, words)
        else:
            expr = data.get("regex")
            if not isinstance(expr, str):
                raise InputError('regex documents need "regex": an expression string')
            self.code_fsa = A.regex_to_fsa(expr, self.alphabet)
        self.partition_raw = data.get("partition")
        self.partitions_raw = data.get("partitions")

    @cached_property
    def code_fsa(self) -> Fsa:
        """A finite code's trie, built only for a command that reads it: the
        finite-code analyses need none, and a long word's trie can pass the
        state cap."""
        return A.word_set_fsa(self.alphabet, self.finite_code.words)

    def _class_fsa(self, spec) -> Fsa:
        if isinstance(spec, str):
            return A.regex_to_fsa(spec, self.alphabet)
        if isinstance(spec, list) and all(isinstance(w, str) for w in spec):
            return A.word_set_fsa(self.alphabet, self.alphabet.words(spec))
        raise InputError("partition classes must be word lists or regex strings")

    def _partition_spec(self) -> dict:
        if not isinstance(self.partition_raw, dict) or not self.partition_raw:
            raise InputError('this command needs a "partition" object in the input')
        return self.partition_raw

    def partition_classes(self) -> list[tuple[str, Fsa]]:
        """Named classes of the document's partition, in document order."""
        return [(name, self._class_fsa(spec)) for name, spec in self._partition_spec().items()]

    def require_finite(self) -> FiniteCode:
        if self.finite_code is not None:
            return self.finite_code
        try:
            words = A.enumerate_finite_language(self.code_fsa)
        except PreconditionError:
            raise InputError("this command needs a finite code") from None
        self.finite_code = FiniteCode(self.alphabet, words)
        return self.finite_code

    def finite_partition(self, spec: Optional[dict] = None) -> Partition:
        """A class-spec dict, by default the document partition, as a
        finite Partition (classes must be finite languages)."""
        code = self.require_finite()
        if spec is None:
            spec = self._partition_spec()
        classes = []
        for f in [self._class_fsa(v) for v in spec.values()]:
            try:
                classes.append(frozenset(A.enumerate_finite_language(f)))
            except PreconditionError:
                raise InputError("this command needs finite partition classes") from None
        return _build_partition(code, classes)

    def regular_partition(self) -> RegularPartition:
        return RegularPartition(RegularCode(self.code_fsa), tuple(f for _n, f in self.partition_classes()))

    def monoid(self) -> RegularMonoid:
        """The input language as a monoid: taken verbatim when it holds the
        empty word, so it must be a submonoid, otherwise the star of the code."""
        if not A.accepts(self.code_fsa, ""):
            return RegularMonoid.generated_by(RegularCode(self.code_fsa))
        return RegularMonoid(self.code_fsa)


def _build_partition(code, classes) -> Partition:
    # a structurally present but invalid partition is a semantic error
    # (exit 4), matching the regular-partition path
    try:
        return Partition(code, classes)
    except InputError as e:
        raise PreconditionError(str(e)) from None


def _word_texts(words) -> list[str]:
    return [w.text for w in sorted(words)]


def _language_value(f: Fsa):
    """A finite language as a sorted word list, an infinite one as a regex."""
    try:
        return _word_texts(A.enumerate_finite_language(f))
    except PreconditionError:
        return A.fsa_to_regex(f)


def _canonical_classes(unambiguous, ta) -> dict:
    """X0 the unambiguous part, if any, then X1, X2, ... the rest."""
    classes = {"X0": _word_texts(unambiguous)} if unambiguous else {}
    classes.update((f"X{i}", _word_texts(c)) for i, c in enumerate(ta, start=1))
    return classes


def _ambiguity_report(witness) -> dict:
    """The verdict of an ambiguity search and its message, if any."""
    if witness is None:
        return {"verdict": True}
    return {"verdict": False, "ambiguous_message": witness.text}


def _relation_value(rel) -> dict:
    return {
        "left": [p.text for p in rel.left.parts],
        "right": [p.text for p in rel.right.parts],
    }


# ---------------------------------------------------------------------------
# Command handlers: each returns the report fields it contributes.


def cmd_ud(doc: Document, args) -> dict:
    if doc.kind == "finite":
        verdict, witness = sp_is_ud(doc.finite_code)
        report = {"verdict": verdict}
        if witness is not None:
            report["relation"] = _relation_value(witness)
        return report
    return _ambiguity_report(ud_ambiguity_witness(RegularCode(doc.code_fsa)))


def cmd_prime_relations(doc: Document, args) -> dict:
    code = doc.require_finite()
    rels = enumerate_prime_relations(code, args.max_len)
    return {"bound": args.max_len, "relations": [_relation_value(r) for r in rels]}


def cmd_canonical(doc: Document, args) -> dict:
    return {"classes": _canonical_classes(*canonical_partition(doc.require_finite()))}


def cmd_characteristic(doc: Document, args) -> dict:
    fine = characteristic_partition(doc.require_finite())
    classes = {f"X{i}": [w.text for w in c] for i, c in enumerate(fine.normalized_classes())}
    return {"classes": classes}


def cmd_check_partition(doc: Document, args) -> dict:
    return _ambiguity_report(coding_ambiguity_witness(doc.regular_partition()))


def cmd_factorize(doc: Document, args) -> dict:
    if args.word is None:
        raise InputError("factorize needs --word")
    partition = doc.finite_partition()
    names = list(doc._partition_spec())
    result = p_factorize(doc.alphabet.word(args.word), partition)
    return {"blocks": [[names[k], b.text] for k, b in result.blocks]}


def cmd_lattice(doc: Document, args) -> dict:
    if not isinstance(doc.partitions_raw, dict):
        raise InputError('lattice needs a "partitions" object in the input')
    if args.left is None or args.right is None:
        raise InputError("lattice needs --left and --right partition names")
    doc.require_finite()  # an infinite code is reported before a missing name

    def named(name: str) -> Partition:
        spec = doc.partitions_raw.get(name)
        if not isinstance(spec, dict):
            raise InputError(f"no partition named {name!r} in the input")
        return doc.finite_partition(spec)

    op = L.coding_meet if args.op == "meet" else L.coding_join
    result = op(named(args.left), named(args.right))
    classes = {f"X{i}": [w.text for w in c] for i, c in enumerate(result.normalized_classes())}
    return {"classes": classes}


def cmd_base(doc: Document, args) -> dict:
    b = base(doc.monoid())
    # --quiet prints no report, and rendering cannot fail: a regex
    # document's alphabet has no reserved symbol, and a finite code's
    # base is finite
    return {} if args.quiet else {"classes": {"base": _language_value(b.lang)}}


def cmd_is_base(doc: Document, args) -> dict:
    return {"verdict": is_base(RegularCode(doc.code_fsa))}


def cmd_thin(doc: Document, args) -> dict:
    return {"verdict": is_thin(doc.code_fsa)}


def cmd_dense(doc: Document, args) -> dict:
    return {"verdict": is_dense(doc.code_fsa)}


def cmd_complete(doc: Document, args) -> dict:
    return {"verdict": is_complete(RegularCode(doc.code_fsa))}


def cmd_maximal(doc: Document, args) -> dict:
    return {"verdict": is_maximal(RegularCode(doc.code_fsa))}


def cmd_full(doc: Document, args) -> dict:
    return {"verdict": is_full(doc.monoid())}


def cmd_maximal_ud(doc: Document, args) -> dict:
    return {"verdict": is_maximal_ud(RegularCode(doc.code_fsa))}


def cmd_witness(doc: Document, args) -> dict:
    code = RegularCode(doc.code_fsa)
    v = completeness_witness(code)  # None for a complete code, so for any code over one letter
    w = None if v is None else _extension(code, v)
    return {"witness": {"v": None if v is None else v.text, "w": None if w is None else w.text}}


def cmd_free_product(doc: Document, args) -> dict:
    monoids = [RegularMonoid.generated_by(RegularCode(f)) for _n, f in doc.partition_classes()]
    return {"verdict": free_product_check(monoids)}


def cmd_gen_ud(doc: Document, args) -> dict:
    if args.seq is None:
        raise InputError("gen-ud needs --seq")
    try:
        seq = [int(part) for part in args.seq.split(",")]
    except ValueError:
        raise InputError(f"--seq must be comma-separated class indices, got {args.seq!r}") from None
    partition = doc.regular_partition()
    code = gen_ud(partition, seq)
    return {"classes": {"generated": _language_value(code.lang)}}


def cmd_lemma2(doc: Document, args) -> dict:
    if args.word is None:
        raise InputError("lemma2 needs --word")
    return {"verdict": lemma2_check(RegularCode(doc.code_fsa), doc.alphabet.word(args.word))}


def cmd_decompose(doc: Document, args) -> dict:
    # each factor's base is its class of the canonical partition of the base
    return {"classes": _canonical_classes(*_base_partition(doc.monoid()))}


COMMANDS = {
    "ud": cmd_ud,
    "prime-relations": cmd_prime_relations,
    "canonical": cmd_canonical,
    "characteristic": cmd_characteristic,
    "check-partition": cmd_check_partition,
    "factorize": cmd_factorize,
    "lattice": cmd_lattice,
    "base": cmd_base,
    "is-base": cmd_is_base,
    "thin": cmd_thin,
    "dense": cmd_dense,
    "complete": cmd_complete,
    "maximal": cmd_maximal,
    "full": cmd_full,
    "maximal-ud": cmd_maximal_ud,
    "witness": cmd_witness,
    "free-product": cmd_free_product,
    "gen-ud": cmd_gen_ud,
    "lemma2": cmd_lemma2,
    "decompose": cmd_decompose,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "json"), default="table")
    common.add_argument("--quiet", action="store_true", help="no output; booleans exit 0/1")
    common.add_argument("--jobs", type=int, default=1, help="analyze input files concurrently")
    common.add_argument("files", nargs="*", help="input documents (default: stdin)")

    parser = argparse.ArgumentParser(prog="partfact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, parents=[common])
        if name == "prime-relations":
            p.add_argument("--max-len", type=int, default=DEFAULT_PRIME_RELATION_BOUND)
        if name in ("factorize", "lemma2"):
            p.add_argument("--word")
        if name == "lattice":
            p.add_argument("--op", choices=("meet", "join"), required=True)
            p.add_argument("--left")
            p.add_argument("--right")
        if name == "gen-ud":
            p.add_argument("--seq")
    return parser


def run_document(command: str, text: str, args) -> dict:
    started = time.perf_counter()
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:  # too deep nesting raises RecursionError
        raise InputError(f"invalid JSON: {e}") from None
    doc = Document(data)
    report = {"command": command}
    report.update(COMMANDS[command](doc, args))
    report["elapsed_ms"] = int((time.perf_counter() - started) * 1000)
    return report


def render_table(report: dict) -> str:
    lines = []
    for key in ("input", "command", "verdict", "bound"):
        if key in report:
            value = report[key]
            lines.append(f"{key}: {json.dumps(value)}")
    if "classes" in report:
        lines.append("classes:")
        for name in sorted(report["classes"]):
            value = report["classes"][name]
            rendered = " ".join(value) if isinstance(value, list) else str(value)
            lines.append(f"  {name}: {rendered}")
    if "relation" in report:
        r = report["relation"]
        lines.append(f"relation: {'.'.join(r['left'])} = {'.'.join(r['right'])}")
    if "relations" in report:
        lines.append(f"relations: {len(report['relations'])}")
        for r in report["relations"]:
            lines.append(f"  {'.'.join(r['left'])} = {'.'.join(r['right'])}")
    if "ambiguous_message" in report:
        lines.append(f"ambiguous_message: {report['ambiguous_message']}")
    if "witness" in report:
        w = report["witness"]
        lines.append(f"witness: v={json.dumps(w['v'])} w={json.dumps(w['w'])}")
    if "blocks" in report:
        lines.append("blocks: " + " ".join(f"({name}:{text})" for name, text in report["blocks"]))
    lines.append(f"elapsed_ms: {report['elapsed_ms']}")
    return "\n".join(lines)


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, sort_keys=True, indent=2)
    return render_table(report)


def _exit_code_for(report: dict, quiet: bool) -> int:
    if quiet and report.get("verdict") is False:
        return EXIT_FALSE
    return EXIT_OK


def _error_exit(exc: Exception) -> int:
    if isinstance(exc, StateCapExceededError):
        return EXIT_RESOURCE
    if isinstance(exc, InputError):
        return EXIT_BAD_INPUT
    if isinstance(exc, PreconditionError):
        return EXIT_PRECONDITION
    raise exc


def main(argv: Optional[list[str]] = None) -> int:
    cap = os.environ.get("PARTFACT_STATE_CAP")
    if cap is not None:
        try:
            A.set_state_cap(int(cap))
        except (ValueError, InputError):
            print("PARTFACT_STATE_CAP must be a positive integer", file=sys.stderr)
            return EXIT_BAD_INPUT
    args = build_parser().parse_args(argv)

    sources = args.files or ["<stdin>"]

    def analyze(path: str):
        try:
            if args.files:
                with open(path, "r", encoding="utf-8") as handle:
                    text = handle.read()
            else:
                text = sys.stdin.read()
            return path, run_document(args.command, text, args), EXIT_OK
        except (OSError, UnicodeDecodeError) as e:  # an unreadable input is bad input
            return path, {"command": args.command, "error": str(e)}, EXIT_BAD_INPUT
        except PartfactError as e:
            return path, {"command": args.command, "error": str(e)}, _error_exit(e)
        except Exception as e:  # a defect must not read as a verdict or stop the batch
            return path, {"command": args.command, "error": f"internal error: {e}"}, EXIT_INTERNAL

    if args.jobs > 1 and len(sources) > 1:
        import concurrent.futures  # only batches use it; it slows every start
        with concurrent.futures.ThreadPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(analyze, sources))
    else:
        results = [analyze(s) for s in sources]

    status = EXIT_OK
    batch = len(sources) > 1
    try:
        for path, report, code in results:
            if code != EXIT_OK:
                print(f"partfact: {path}: {report.get('error')}", file=sys.stderr)
                status = max(status, code)
                continue
            if not args.quiet:
                if batch:
                    report = dict(report)
                    report["input"] = path
                print(render(report, args.format))
            status = max(status, _exit_code_for(report, args.quiet))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout: stop, and let no later flush fail on it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return max(status, EXIT_BAD_INPUT)
    return status


if __name__ == "__main__":
    sys.exit(main())
