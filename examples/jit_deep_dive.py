"""A tour of the JIT engine: representations, optimisations, profiles.

Walks through what UltraPrecise's compilation pipeline does to an
expression: precision inference, alignment scheduling, constant folding,
kernel code generation (the paper's Listing 1), and the Nsight-style
profile of the generated kernel.

Run:  python examples/jit_deep_dive.py
"""

from repro import DecimalSpec, JitOptions, compile_expression
from repro.core.jit.codegen import render_source
from repro.core.multithread import plan_load, render_load_code
from repro.gpusim import kernel_time, profile_kernel


def main() -> None:
    print("=" * 70)
    print("1. Listing 1: DECIMAL(4,2) + DECIMAL(4,1)")
    print("=" * 70)
    schema = {"c1_4_2": DecimalSpec(4, 2), "c2_4_1": DecimalSpec(4, 1)}
    compiled = compile_expression("c1_4_2 + c2_4_1", schema)
    print(render_source(compiled.kernel))
    print(f"\nresult spec: {compiled.kernel.result_spec} "
          f"(Lw={compiled.kernel.result_spec.words}, "
          f"Lb={compiled.kernel.result_spec.compact_bytes})")

    print()
    print("=" * 70)
    print("2. Alignment scheduling (Figure 6): a + b*c + d - e")
    print("=" * 70)
    schema = {
        "a": DecimalSpec(12, 2),
        "b": DecimalSpec(12, 5),
        "c": DecimalSpec(12, 5),
        "d": DecimalSpec(12, 2),
        "e": DecimalSpec(12, 2),
    }
    compiled = compile_expression("a + b * c + d - e", schema)
    print(f"rewritten to: {compiled.tree.to_sql()}")
    print(f"alignments: {compiled.alignments_before} -> {compiled.alignments_after}")

    print()
    print("=" * 70)
    print("3. Constant folding (Figure 7): 1 + a + b*(5 + c - 5) + d + 1.23")
    print("=" * 70)
    schema = {
        "a": DecimalSpec(12, 1),
        "b": DecimalSpec(12, 3),
        "c": DecimalSpec(12, 3),
        "d": DecimalSpec(12, 2),
    }
    compiled = compile_expression("1 + a + b * (5 + c - 5) + d + 1.23", schema)
    print(f"optimised to: {compiled.tree.to_sql()}")
    print("(constants folded to 2.23, the 0+c shortcut applied,")
    print(" and 2.23 pre-aligned at compile time)")

    print()
    print("=" * 70)
    print("4. Multi-threaded loads (Listing 3): DECIMAL(64,32) at TPI=4")
    print("=" * 70)
    print(render_load_code(plan_load(DecimalSpec(64, 32), 4)))

    print()
    print("=" * 70)
    print("5. Kernel profiles and TPI scaling at LEN=32")
    print("=" * 70)
    wide = {"a": DecimalSpec(306, 2), "b": DecimalSpec(306, 2)}
    for tpi in (1, 4, 8, 16):
        compiled = compile_expression("a + b", wide, JitOptions(tpi=tpi))
        timing = kernel_time(compiled.kernel, 10_000_000)
        print(f"  TPI={tpi:>2d}: {timing.seconds * 1e3:6.2f} ms "
              f"(occupancy {timing.occupancy.percent:3.0f}%, "
              f"{'memory' if timing.memory_bound else 'compute'}-bound)")
    profile = profile_kernel(compile_expression("a + b", wide).kernel)
    print(f"\nNsight-style view: {profile}")


if __name__ == "__main__":
    main()
