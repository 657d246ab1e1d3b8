"""The JIT compilation pipeline (paper Figure 3 + section III-D).

``compile_expression`` runs the full pass sequence the paper describes:

1. parse the expression text into a binary tree (or take a parsed tree);
2. infer precisions/scales bottom-up (section III-B3);
3. convert to the n-ary form (subtractions -> negated additions, collapse
   neighbouring ``+``/``*`` levels);
4. fold constants and apply shortcuts (section III-D2);
5. pre-align surviving constants to their neighbours' scales;
6. alignment-schedule n-ary sums by ascending scale (section III-D1);
7. convert back to a binary tree, re-infer, and generate the kernel.

Optimisations can be switched off individually, which is how the Figure
10/11/12 ablation benchmarks measure each one's contribution.

The compiler never writes to the tree it is handed: a parsed query's trees
live in the plan cache and are compiled again after an append, under
other schemas and options.  Every pass builds its own nodes, starting with
``nary.to_nary``, and only those are annotated.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Optional, Tuple, Union

from repro.core.decimal.context import DecimalSpec
from repro.core.jit import alignment, codegen, constant_folding, nary, type_inference
from repro.core.jit.expr_ast import Expr
from repro.core.jit.ir import KernelIR
from repro.core.jit.parser import parse_expression
from repro.errors import CodegenError

Schema = Mapping[str, DecimalSpec]

#: Compiled kernels a :class:`KernelCache` keeps, least recently used
#: evicted first.  Far above the kernels of any repeated workload, so only
#: an ad-hoc stream of distinct expressions ever evicts; an evicted kernel
#: is compiled (and charged) again when next used.
KERNEL_CACHE_ENTRIES = 256


@dataclass(frozen=True)
class JitOptions:
    """Which expression-level optimisations the JIT engine applies."""

    alignment_scheduling: bool = True
    constant_folding: bool = True
    constant_alignment: bool = True
    #: Convert literals to DECIMAL at compile time (section III-D2).  When
    #: False, every tuple pays the conversion -- the Figure 11 baseline.
    constant_construction: bool = True
    #: Common-subexpression elimination across the whole expression -- an
    #: extension beyond the paper (its future-work direction of richer
    #: expression scheduling).  Off by default to stay paper-faithful; the
    #: ext_cse benchmark ablates it on the Taylor-series workload.
    subexpression_elimination: bool = False
    tpi: int = 1

    def cache_key_part(self) -> Tuple:
        return (
            self.alignment_scheduling,
            self.constant_folding,
            self.constant_alignment,
            self.constant_construction,
            self.subexpression_elimination,
            self.tpi,
        )


@dataclass
class CompiledExpression:
    """The result of one JIT compilation."""

    kernel: KernelIR
    tree: Expr
    options: JitOptions
    alignments_before: int
    alignments_after: int


def expand_powers(expr: Expr) -> Expr:
    """Rewrite ``POWER(x, k)`` into a binary-exponentiation product tree.

    ``POWER(x, 5)`` becomes ``((x*x)*(x*x))*x`` -- with subexpression
    elimination enabled the repeated squares compile to O(log k)
    multiplications; without it the tree still evaluates correctly with
    O(k)-ish work (the ext_cse benchmark quantifies the difference).

    Like every other pass, this is value-oriented: the caller's tree is
    never modified, so one parsed tree can flow through the whole pipeline.
    """
    import copy

    from repro.core.jit.expr_ast import (
        BinaryOp,
        FuncCall,
        NaryAdd,
        NaryMul,
        UnaryOp,
    )

    if isinstance(expr, FuncCall):
        if expr.function == "POWER":
            base = expand_powers(expr.argument)

            def power(k: int) -> Expr:
                if k == 1:
                    return copy.deepcopy(base)
                half = power(k // 2)
                squared = BinaryOp("*", half, copy.deepcopy(half))
                if k % 2:
                    return BinaryOp("*", squared, copy.deepcopy(base))
                return squared

            return power(expr.scale_arg)
        return FuncCall(expr.function, expand_powers(expr.argument), expr.scale_arg)
    if isinstance(expr, BinaryOp):
        return BinaryOp(expr.op, expand_powers(expr.left), expand_powers(expr.right))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, expand_powers(expr.operand))
    if isinstance(expr, NaryAdd):
        return NaryAdd([expand_powers(term) for term in expr.terms])
    if isinstance(expr, NaryMul):
        return NaryMul([expand_powers(factor) for factor in expr.factors])
    return expr


def optimize(tree: Expr, schema: Schema, options: JitOptions) -> Expr:
    """Run the optimisation passes over a typed n-ary tree; returns a binary tree.

    ``tree`` is ``nary.to_nary`` of a parsed tree, annotated by
    ``type_inference.infer``; the passes may rewrite and re-annotate it.
    """
    if options.constant_folding:
        tree = constant_folding.fold_constants(tree)
        type_inference.infer(tree, schema)
    if options.alignment_scheduling:
        tree = alignment.schedule(tree)
    if options.constant_alignment:
        tree = constant_folding.align_constants(tree)
    binary = nary.to_binary(tree)
    # POWER expands last: earlier n-ary collapsing would flatten the
    # binary-exponentiation structure back into a left-deep product chain.
    binary = expand_powers(binary)
    type_inference.infer(binary, schema)
    return binary


def compile_expression(
    expr: Union[Expr, str],
    schema: Schema,
    options: Optional[JitOptions] = None,
    name: str = "calc_expr",
) -> CompiledExpression:
    """Optimise and generate a kernel for a parsed tree, or for text.

    Text is parsed first, by the same grammar.  One typed n-ary copy of
    the tree feeds the naive alignment count and then the optimiser, so
    the tree handed in is left as it was.
    """
    if options is None:
        options = JitOptions()
    parsed = parse_expression(expr) if isinstance(expr, str) else expr
    tree = nary.to_nary(parsed)
    type_inference.infer(tree, schema)
    alignments_before = alignment.count_alignments(tree)

    tree = optimize(tree, schema, options)
    alignments_after = alignment.count_alignments(tree)
    kernel = codegen.generate_kernel(
        tree,
        name=name,
        tpi=options.tpi,
        runtime_constants=not options.constant_construction,
        cse=options.subexpression_elimination,
    )
    from repro.analysis import analyze_kernel, apply_fast_paths

    report = analyze_kernel(kernel, tree=tree)
    # A structurally broken kernel (undefined register, misaligned add, no
    # stored result, ...) is a code generator bug: fail before it can run.
    broken = [d for d in report.diagnostics if d.rule.startswith("STRUCT")]
    if broken:
        raise CodegenError(broken[0].message)
    if report.fast_paths and not report.has_errors:
        # Feed the proven division facts back into the IR (and the rendered
        # listing) so the executor skips the per-row size dispatch.
        kernel = apply_fast_paths(kernel, report.fast_paths)
    kernel = dataclasses.replace(
        kernel, source=codegen.render_source(kernel), analysis=report
    )
    return CompiledExpression(
        kernel=kernel,
        tree=tree,
        options=options,
        alignments_before=alignments_before,
        alignments_after=alignments_after,
    )


class KernelCache:
    """Compilation cache keyed by (expression, schema, options).

    The paper's compile times (~320-423 ms for TPC-H Q1) are paid once per
    distinct kernel; repeated queries reuse the compiled artefact.  The
    timing model consults :attr:`hits`/:attr:`misses` to decide whether to
    charge compilation.  The cache holds at most
    :data:`KERNEL_CACHE_ENTRIES` kernels: a hit refreshes its entry, and a
    compile past the bound evicts the least recently used one.

    The cache is shared across the serving layer's sessions, which execute
    on a thread pool, so lookup-and-compile runs under a lock: one session
    compiles, concurrent requests for the same kernel wait and hit.  A
    compilation that raises (or a query cancelled between operators)
    inserts nothing -- entries only ever appear whole.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple, CompiledExpression]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0

    def compile(
        self,
        text: str,
        schema: Schema,
        options: Optional[JitOptions] = None,
        name: str = "calc_expr",
        tree: Optional[Expr] = None,
    ) -> Tuple[CompiledExpression, bool]:
        """Compile or fetch; returns ``(compiled, was_cached)``.

        ``text`` keys the entry; a miss compiles ``tree``, the parse of
        ``text`` the caller already holds (``text`` itself without one).
        ``name`` is part of the identity: the kernel label flows into
        EXPLAIN output and profiler reports, so a ``calc_expr_0`` artefact
        must never be returned for an ``agg_expr_1`` request.
        """
        if options is None:
            options = JitOptions()
        key = (
            text,
            name,
            tuple(sorted(schema.items(), key=lambda item: item[0])),
            options.cache_key_part(),
        )
        with self._lock:
            compiled = self._entries.get(key)
            if compiled is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return compiled, True
            compiled = compile_expression(
                text if tree is None else tree, schema, options, name=name
            )
            self.misses += 1
            self._entries[key] = compiled
            if len(self._entries) > KERNEL_CACHE_ENTRIES:
                self._entries.popitem(last=False)
            return compiled, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
