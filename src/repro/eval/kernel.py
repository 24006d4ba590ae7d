"""Join kernels: each compiled plan as one generated Python function.

A plan (:class:`~repro.eval.plan_cache.CompiledPlan`: the ordered body
and the index key spec of every positive literal) is turned into the
source of a single function — one nested ``for`` per binder subgoal, one
local per variable, the relation's index dict probed directly — and
compiled once.  What the interpreter used to decide per row is fixed at
compile time instead: which positions are probe keys, which bind a
variable and which must equal an earlier occurrence (``p(X, X)``),
whether an ``=`` comparison assigns or tests, and, per literal, the
unit-count policy (Section 5.1: a lower-stratum row counts 1).

Only names made here appear in the source text.  Predicate names,
constants, key specs, variable names and any other :class:`Term` reach
the function through its namespace, so no value of the program is ever
spliced into code.

A join kernel has one of two sinks:

* **head rows** — ``kernel(ctx, acc)`` ⊎s every derived head row into
  the plain ``{row: count}`` dict ``acc`` (count = product of the joined
  rows' counts, Section 3) and returns the number of index probes made;
* **bindings** — ``kernel(ctx, binding, counter)`` is a generator of
  ``(binding, count)`` pairs extending ``binding``, counting each probe
  on ``counter.index_probes`` as it is made.

A GROUPBY's inner literal compiles the same way into a **projection**
(:func:`build_projection`), the input of the one group fold, and the
[BCL89] relevance test of a relation into one **row filter**
(:func:`build_relevance_filter`) over a whole base delta.

Relations are resolved once per call.  A :class:`CountedRelation` is
read directly (its ``_rows`` dict and its index buckets); anything else
with the relation protocol — a :class:`~repro.storage.relation.PreImageView`
old state — is read through ``lookup``/``count``.  Scans go through
``items()``/``rows()`` and index builds through ``ensure_index``, so
whoever instruments those methods still sees every whole-relation read.
A row whose length differs from the literal's arity matches nothing
(relations need not declare an arity).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.datalog.ast import Aggregate, Comparison, Literal, Subgoal
from repro.datalog.terms import BinaryOp, Constant, Term, UnaryMinus, Variable
from repro.errors import EvaluationError
from repro.storage.relation import CountedRelation, Row, bucket_rows

#: The relation a missing name resolves to (never written to).
EMPTY = CountedRelation("∅")

#: Python operator for each comparison / arithmetic operator token.
_COMPARE_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_ARITHMETIC_OPS = {"+": "+", "-": "-", "*": "*", "/": "/", "//": "//", "%": "%"}

#: ``(positions, terms)`` of one literal's index key.
KeySpec = Tuple[Tuple[int, ...], Tuple[Term, ...]]

#: A body literal's arguments and the comparisons a row filter tests.
Occurrence = Tuple[Tuple[Term, ...], Tuple[Comparison, ...]]


# --------------------------------------------------------------- run time


class _ViewIndex:
    """Index-shaped access to a relation view: ``get(key)`` → rows."""

    __slots__ = ("relation", "positions", "single")

    def __init__(self, relation, positions: Tuple[int, ...]) -> None:
        self.relation = relation
        self.positions = positions
        self.single = len(positions) == 1

    def get(self, key):
        rows = self.relation.lookup(
            self.positions, (key,) if self.single else key
        )
        return list(rows) or None


class _ViewCounts:
    """``_rows``-shaped access to a relation view."""

    __slots__ = ("relation",)

    def __init__(self, relation) -> None:
        self.relation = relation

    def __getitem__(self, row: Row) -> int:
        return self.relation.count(row)

    def get(self, row: Row, default=None):
        count = self.relation.count(row)
        return count if count else default


def _index(relation, positions: Tuple[int, ...]):
    """``(index, counts)`` for probing ``relation`` on ``positions``."""
    if relation is EMPTY:
        return {}, {}
    if isinstance(relation, CountedRelation):
        return relation.ensure_index(positions), relation._rows
    return _ViewIndex(relation, positions), _ViewCounts(relation)


def _counts(relation):
    """The ``{row: count}`` mapping of ``relation`` (membership probes)."""
    if isinstance(relation, CountedRelation):
        return relation._rows
    return _ViewCounts(relation)


def _unbound(name: str):
    raise EvaluationError(f"variable {name} is unbound at evaluation time")


def _arithmetic_error(op: str, left, right, exc: Exception) -> EvaluationError:
    return EvaluationError(f"cannot evaluate {left!r} {op} {right!r}: {exc}")


def _negation_error(value, exc: Exception) -> EvaluationError:
    return EvaluationError(f"cannot negate {value!r}: {exc}")


def _comparison_error(left, op: str, right, exc: Exception) -> EvaluationError:
    return EvaluationError(f"cannot compare {left!r} {op} {right!r}: {exc}")


_RUNTIME = {
    "_ONCE": (None,),
    "_index": _index,
    "_counts": _counts,
    "_bucket_rows": bucket_rows,
    "_unbound": _unbound,
    "_arithmetic_error": _arithmetic_error,
    "_negation_error": _negation_error,
    "_comparison_error": _comparison_error,
    "_EvaluationError": EvaluationError,
}


# ------------------------------------------------------------ compile time


class _Compiler:
    """Writes one plan's kernel source; see the module docstring."""

    def __init__(
        self,
        order: Sequence[Subgoal],
        specs: Sequence[KeySpec],
        adornment: FrozenSet[str],
        units: Sequence[bool],
        head: Optional[Tuple[Term, ...]],
    ) -> None:
        self.order = order
        self.specs = specs
        self.adornment = adornment
        self.units = units
        self.head = head
        self.namespace: Dict[str, object] = dict(_RUNTIME)
        # Statements run once per call, before the loops, then the loops.
        self.prologue: List[str] = ["    relation = ctx.resolver.relation"]
        self.lines: List[str] = []
        self.indent = 1
        self.locals: Dict[str, str] = {}  # variable name → local
        self.fresh = 0
        self.relations: Dict[str, str] = {}  # predicate → local

    # ---------------------------------------------------------- helpers

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.indent + line)

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def const(self, value: object, prefix: str = "k") -> str:
        """A namespace name holding ``value``."""
        name = self.name(prefix)
        self.namespace[name] = value
        return name

    def bind_variable(self, variable: str) -> str:
        local = self.name("v")
        self.locals[variable] = local
        return local

    def relation(self, predicate: str) -> str:
        local = self.relations.get(predicate)
        if local is None:
            local = self.relations[predicate] = self.name("r")
            self.prologue.append(
                f"    {local} = relation({self.const(predicate, 'p')})"
            )
        return local

    def expr(self, term: Term) -> str:
        """A Python expression for ``term``; may emit statements first."""
        if isinstance(term, Variable):
            local = self.locals.get(term.name)
            if local is None:
                return f"_unbound({self.const(term.name, 'n')})"
            return local
        if isinstance(term, Constant):
            return self.const(term.value)
        if isinstance(term, BinaryOp) and term.op in _ARITHMETIC_OPS:
            left, right = self.expr(term.left), self.expr(term.right)
            out = self.name("e")
            self.emit("try:")
            self.emit(f"    {out} = {left} {_ARITHMETIC_OPS[term.op]} {right}")
            self.emit("except (TypeError, ZeroDivisionError) as x:")
            self.emit(
                f"    raise _arithmetic_error({self.const(term.op, 'o')}, "
                f"{left}, {right}, x) from x"
            )
            return out
        if isinstance(term, UnaryMinus):
            operand = self.expr(term.operand)
            out = self.name("e")
            self.emit("try:")
            self.emit(f"    {out} = -{operand}")
            self.emit("except TypeError as x:")
            self.emit(f"    raise _negation_error({operand}, x) from x")
            return out
        # Any other term evaluates itself over the variables it names.
        pairs = ", ".join(
            f"{self.const(name, 'n')}: {self.locals[name]}"
            for name in sorted(term.variables())
            if name in self.locals
        )
        return f"{self.const(term, 't')}.evaluate({{{pairs}}})"

    def tuple_expr(self, terms: Sequence[Term]) -> str:
        parts = [self.expr(term) for term in terms]
        return "(" + "".join(part + ", " for part in parts) + ")"

    def open_loop(self, line: str) -> None:
        self.emit(line)
        self.indent += 1

    # ------------------------------------------------------------ steps

    def probe(self) -> None:
        if self.head is None:
            self.emit("counter.index_probes += 1")
        else:
            self.emit("probes += 1")

    def match(
        self,
        args: Sequence[Term],
        row: str,
        keys: Sequence[int],
        wildcards: bool = False,
    ) -> None:
        """Bind the non-key positions of ``row``; test repeated variables.

        Any other non-key term (only a projection or a row filter has
        one) must equal its value once the whole row is bound; with
        ``wildcards`` a term naming a variable the row leaves unbound
        matches any value instead.
        """
        key_set = set(keys)
        targets: List[str] = []
        checks: List[Tuple[Term, str]] = []
        free = 0
        for position, arg in enumerate(args):
            if position in key_set:
                targets.append("_")
                continue
            free += 1
            if isinstance(arg, Variable) and arg.name not in self.locals:
                targets.append(self.bind_variable(arg.name))
            else:  # a repeated variable, p(X, X), or a term
                other = self.name("q")
                targets.append(other)
                checks.append((arg, other))
        if free:
            # Unpacking also rejects a row of another length.
            self.emit("try:")
            self.emit(f"    {', '.join(targets)}, = {row}")
            self.emit("except ValueError:")
            self.emit("    continue")
        for term, other in checks:
            if wildcards and not term.variables() <= self.locals.keys():
                continue
            self.repeat_check(self.expr(term), other)

    def repeat_check(self, bound: str, value: str) -> None:
        """Skip the row unless a repeated variable's values agree."""
        self.emit(f"if {bound} != {value}:")
        self.emit("    continue")

    def rows_step(
        self,
        args: Sequence[Term],
        keys: Tuple[int, ...],
        key_terms: Sequence[Term],
        unit: bool,
        source: str,
        counted: bool,
        lazy: Optional[str] = None,
    ) -> Optional[str]:
        """One binder over rows of ``source``; returns its count local.

        ``lazy`` (aggregates) is the expression computing the relation
        the first time the step is reached.
        """
        arity = len(args)
        row = self.name("t")
        count = None if unit else self.name("c")
        if not keys:
            scan = self.name("s")
            if lazy is None:
                self.prologue.append(f"    {scan} = {source}")
            else:
                self.prologue.append(f"    {scan} = None")
                self.emit(f"if {scan} is None:")
                self.emit(f"    {scan} = {lazy}")
            if unit:
                self.open_loop(f"for {row} in {scan}.rows():")
            else:
                self.open_loop(f"for {row}, {count} in {scan}.items():")
        elif len(keys) == arity:
            # Every position is known: a membership probe, no index.
            counts = self.name("m")
            if lazy is None:
                self.prologue.append(f"    {counts} = _counts({source})")
            else:
                self.prologue.append(f"    {counts} = None")
                self.emit(f"if {counts} is None:")
                self.emit(f"    {counts} = _counts({lazy})")
            key = self.tuple_expr(key_terms)
            if counted:
                self.probe()
            found = count or self.name("c")
            self.emit(f"{found} = {counts}.get({key})")
            self.emit(f"if {found} is None:")
            self.emit("    continue")
            return count
        else:
            # The index is fetched (built, if need be) at the first probe.
            index, counts = self.name("i"), self.name("m")
            positions = self.const(keys, "P")
            self.prologue.append(f"    {index} = {counts} = None")
            self.emit(f"if {index} is None:")
            self.emit(
                f"    {index}, {counts} = _index({lazy or source}, {positions})"
            )
            if len(keys) == 1:
                key = self.expr(key_terms[0])
            else:
                key = self.tuple_expr(key_terms)
            if counted:
                self.probe()
            bucket = self.name("b")
            self.emit(f"{bucket} = {index}.get({key})")
            self.emit(f"if {bucket} is None:")
            self.emit("    continue")
            if self.head is None:
                # The caller runs between solutions: iterate a copy.
                self.emit(f"{bucket} = _bucket_rows({bucket})")
            else:
                self.emit(f"if {bucket}.__class__ is tuple:")
                self.emit(f"    {bucket} = ({bucket},)")
            self.open_loop(f"for {row} in {bucket}:")
            if count is not None:
                self.emit(f"{count} = {counts}[{row}]")
        self.match(args, row, keys)
        return count

    def literal(self, literal: Literal, spec: KeySpec, unit: bool) -> Optional[str]:
        source = self.relation(literal.predicate)
        keys, key_terms = spec
        return self.rows_step(
            literal.args, keys, key_terms, unit, source, counted=True
        )

    def negation(self, literal: Literal) -> None:
        counts = self.name("m")
        source = self.relation(literal.predicate)
        self.prologue.append(f"    {counts} = _counts({source})")
        row = self.tuple_expr(literal.args)
        self.emit(f"if {counts}.get({row}, 0) > 0:")
        self.emit("    continue")

    def comparison(self, comparison: Comparison) -> None:
        left, right = comparison.left, comparison.right
        if comparison.op == "=":
            left_ready = left.variables() <= self.locals.keys()
            right_ready = right.variables() <= self.locals.keys()
            if left_ready and not right_ready and isinstance(right, Variable):
                value = self.expr(left)
                self.emit(f"{self.bind_variable(right.name)} = {value}")
                return
            if right_ready and not left_ready and isinstance(left, Variable):
                value = self.expr(right)
                self.emit(f"{self.bind_variable(left.name)} = {value}")
                return
        left_value, right_value = self.expr(left), self.expr(right)
        ok = self.name("ok")
        self.emit("try:")
        self.emit(
            f"    {ok} = {left_value} {_COMPARE_OPS[comparison.op]} "
            f"{right_value}"
        )
        self.emit("except TypeError as x:")
        self.emit(
            f"    raise _comparison_error({left_value}, "
            f"{self.const(comparison.op, 'o')}, {right_value}, x) from x"
        )
        self.emit(f"if not {ok}:")
        self.emit("    continue")

    def aggregate(self, aggregate: Aggregate) -> str:
        exported: Tuple[Term, ...] = tuple(aggregate.group_by) + (
            aggregate.result,
        )
        keys = tuple(
            position
            for position, arg in enumerate(exported)
            if arg.name in self.locals
        )
        lazy = f"aggregate({self.const(aggregate, 'g')})"
        return self.rows_step(
            exported, keys, tuple(exported[p] for p in keys), False,
            "", counted=False, lazy=lazy,
        )

    def projection(self, aggregate: Aggregate) -> str:
        """Source of ``kernel(items)``, a GROUPBY's projection."""
        self.open_loop("for t, c in items:")
        self.match(aggregate.relation.args, "t", ())
        key = self.tuple_expr(aggregate.group_by)
        self.emit(f"yield {key}, {self.expr(aggregate.argument)}, c")
        return "\n".join(["def kernel(items):", *self.lines]) + "\n"

    def relevance(self, occurrences: Sequence[Occurrence]) -> str:
        """Source of ``kernel(items, kept) -> skipped``, a row filter.

        A row is kept when some occurrence matches it and none of the
        comparisons over that occurrence's own variables is false.  A
        comparison that raises :class:`EvaluationError` keeps the row.
        """
        self.open_loop("for t, c in items:")
        outer = self.indent
        for args, comparisons in occurrences:
            self.locals = {}
            self.open_loop("for _ in _ONCE:")
            self.match(args, "t", (), wildcards=True)
            for comparison in comparisons:
                if comparison.variables() <= self.locals.keys():
                    self.open_loop("try:")
                    self.comparison(comparison)
                    self.indent -= 1
                    self.emit("except _EvaluationError:")
                    self.emit("    pass")
            self.emit("break")
            self.indent -= 1
            self.open_loop("else:")
        self.emit("skipped += 1")
        self.emit("continue")
        self.indent = outer
        self.emit("kept[t] = c")
        return "\n".join(
            ["def kernel(items, kept):", "    skipped = 0", *self.lines,
             "    return skipped"]
        ) + "\n"

    # ------------------------------------------------------------- whole

    def source(self) -> str:
        if self.head is None:
            signature = "ctx, binding, counter"
            for variable in sorted(self.adornment):
                local = self.bind_variable(variable)
                self.prologue.append(
                    f"    {local} = binding[{self.const(variable, 'n')}]"
                )
        else:
            signature = "ctx, acc"
            self.prologue.append("    get = acc.get")
            self.prologue.append("    probes = 0")
        adorned = set(self.locals)
        if any(isinstance(subgoal, Aggregate) for subgoal in self.order):
            self.prologue.append("    aggregate = ctx.aggregate_relation")
        self.open_loop("for _ in _ONCE:")
        product: Optional[str] = None
        for subgoal, spec, unit in zip(self.order, self.specs, self.units):
            count = None
            if isinstance(subgoal, Literal):
                if subgoal.negated:
                    self.negation(subgoal)
                else:
                    count = self.literal(subgoal, spec, unit)
            elif isinstance(subgoal, Comparison):
                self.comparison(subgoal)
            else:
                count = self.aggregate(subgoal)
            if count is not None:
                if product is None:
                    product = count
                else:
                    joined = self.name("n")
                    self.emit(f"{joined} = {product} * {count}")
                    product = joined
        product = product or "1"
        if self.head is None:
            pairs = "".join(
                f", {self.const(variable, 'n')}: {local}"
                for variable, local in self.locals.items()
                if variable not in adorned
            )
            self.emit(f"yield {{**binding{pairs}}}, {product}")
            tail: List[str] = []
        else:
            row = self.tuple_expr(self.head)
            self.emit(f"h = {row}")
            self.emit(f"total = get(h, 0) + {product}")
            self.emit("if total:")
            self.emit("    acc[h] = total")
            self.emit("else:")
            self.emit("    del acc[h]")
            tail = ["    return probes"]
        return "\n".join(
            [f"def kernel({signature}):", *self.prologue, *self.lines, *tail]
        ) + "\n"

    def compile(self, text: str) -> Callable:
        namespace = self.namespace
        exec(compile(text, "<join kernel>", "exec"), namespace)
        kernel = namespace["kernel"]
        kernel.source = text
        return kernel


@lru_cache(maxsize=1024)
def build_kernel(
    order: Tuple[Subgoal, ...],
    specs: Tuple[KeySpec, ...],
    adornment: FrozenSet[str],
    units: Tuple[bool, ...],
    head: Optional[Tuple[Term, ...]],
) -> Callable:
    """The kernel for a plan (memoized on the plan's structure).

    ``units[k]`` is the unit-count policy of ``order[k]`` (ignored for
    anything but a positive literal); ``head`` is the rule's head
    arguments for the head-row sink, ``None`` for the bindings sink.
    """
    compiler = _Compiler(order, specs, adornment, units, head)
    return compiler.compile(compiler.source())


@lru_cache(maxsize=256)
def build_projection(aggregate: Aggregate) -> Callable:
    """``project(items)``: a generator of the ``(group key, value,
    count)`` of each ``(row, count)`` matching the GROUPBY's literal."""
    compiler = _Compiler((), (), frozenset(), (), None)
    return compiler.compile(compiler.projection(aggregate))


@lru_cache(maxsize=256)
def build_relevance_filter(occurrences: Tuple[Occurrence, ...]) -> Callable:
    """``keep(items, kept) -> skipped`` for one relation's occurrences
    (memoized: a pass without a plan cache builds its filter anew).

    Each occurrence is a body literal's arguments and the non-``=``
    comparisons of its rule.  ``keep`` copies every relevant ``(row,
    count)`` pair of ``items`` into the dict ``kept`` and returns how
    many pairs it dropped.
    """
    compiler = _Compiler((), (), frozenset(), (), None)
    return compiler.compile(compiler.relevance(occurrences))
