"""Tests for kernel IR generation and the rendered CUDA-like source."""

import pytest

from repro.core.decimal.context import DecimalSpec
from repro.core.jit import codegen, ir
from repro.core.jit import pipeline
from repro.core.jit.pipeline import JitOptions, KernelCache, compile_expression
from repro.errors import TypeInferenceError


class TestKernelIR:
    SCHEMA = {"c1_4_2": DecimalSpec(4, 2), "c2_4_1": DecimalSpec(4, 1)}

    def test_listing1_structure(self):
        """DECIMAL(4,2) + DECIMAL(4,1): load, load, align(<<1), add, store."""
        compiled = compile_expression(
            "c1_4_2 + c2_4_1", self.SCHEMA, JitOptions(alignment_scheduling=False)
        )
        kernel = compiled.kernel
        kinds = [type(instruction).__name__ for instruction in kernel.instructions]
        assert kinds == ["LoadColumn", "LoadColumn", "Align", "AddOp", "StoreResult"]
        # Result expands to precision 6 (Listing 1's commentary).
        assert kernel.result_spec == DecimalSpec(6, 2)
        align = kernel.instructions[2]
        assert align.exponent == 1

    def test_listing1_lengths(self):
        """Lw = 1 and Lb widths for the Listing 1 example."""
        compiled = compile_expression("c1_4_2 + c2_4_1", self.SCHEMA)
        kernel = compiled.kernel
        assert kernel.result_spec.words == 1
        assert kernel.result_spec.compact_bytes == 3
        assert kernel.bytes_read_per_tuple == 4  # two DECIMAL(4,*) at 2 bytes

    def test_source_looks_like_listing1(self):
        compiled = compile_expression("c1_4_2 + c2_4_1", self.SCHEMA)
        source = codegen.render_source(compiled.kernel)
        assert "__global__ void" in source
        assert "Decimal<1>" in source
        assert "toCompact" in source
        assert "blockIdx.x * blockDim.x + threadIdx.x" in source

    def test_input_columns_recorded(self):
        compiled = compile_expression("c1_4_2 + c2_4_1 * 2", self.SCHEMA)
        assert set(compiled.kernel.input_columns) == {"c1_4_2", "c2_4_1"}

    def test_division_prescale(self):
        schema = {"a": DecimalSpec(10, 2), "b": DecimalSpec(6, 3)}
        compiled = compile_expression("a / b", schema)
        divs = [i for i in compiled.kernel.instructions if isinstance(i, ir.DivOp)]
        assert len(divs) == 1
        assert divs[0].prescale == 7  # s2 + 4
        assert divs[0].spec.scale == 6  # s1 + 4

    def test_register_pressure_grows_with_precision(self):
        small = compile_expression("a + b", {"a": DecimalSpec(9, 2), "b": DecimalSpec(9, 2)})
        large = compile_expression(
            "a + b", {"a": DecimalSpec(300, 2), "b": DecimalSpec(300, 2)}
        )
        assert large.kernel.register_words > small.kernel.register_words

    def test_alignment_ops_counted(self):
        compiled = compile_expression(
            "c1_4_2 + c2_4_1", self.SCHEMA, JitOptions(alignment_scheduling=False)
        )
        assert compiled.kernel.alignment_ops() == 1

    def test_runtime_constants_flag(self):
        options = JitOptions(constant_construction=False, constant_alignment=False)
        compiled = compile_expression("1 + c1_4_2", self.SCHEMA, options)
        consts = [
            i for i in compiled.kernel.instructions if isinstance(i, ir.LoadConst)
        ]
        assert consts and all(c.runtime_convert for c in consts)

    def test_unknown_column_raises(self):
        with pytest.raises(TypeInferenceError):
            compile_expression("nope + 1", self.SCHEMA)


class TestKernelCache:
    SCHEMA = {"a": DecimalSpec(10, 2)}

    def test_hit_on_repeat(self):
        cache = KernelCache()
        first, cached1 = cache.compile("a + 1", self.SCHEMA)
        second, cached2 = cache.compile("a + 1", self.SCHEMA)
        assert not cached1 and cached2
        assert first is second
        assert cache.hits == 1 and cache.misses == 1

    def test_miss_on_different_schema(self):
        cache = KernelCache()
        cache.compile("a + 1", self.SCHEMA)
        _, cached = cache.compile("a + 1", {"a": DecimalSpec(20, 2)})
        assert not cached

    def test_miss_on_different_options(self):
        cache = KernelCache()
        cache.compile("a + 1", self.SCHEMA)
        _, cached = cache.compile("a + 1", self.SCHEMA, JitOptions(tpi=8))
        assert not cached

    def test_name_is_part_of_the_identity(self):
        """A kernel compiled as calc_expr must not answer for agg_expr_1.

        The label flows into EXPLAIN and profiler output; a cache hit
        across names would report the wrong kernel name.
        """
        cache = KernelCache()
        first, cached1 = cache.compile("a + 1", self.SCHEMA, name="calc_expr_0")
        second, cached2 = cache.compile("a + 1", self.SCHEMA, name="agg_expr_1")
        assert not cached1 and not cached2
        assert first.kernel.name == "calc_expr_0"
        assert second.kernel.name == "agg_expr_1"
        # Same name still hits.
        third, cached3 = cache.compile("a + 1", self.SCHEMA, name="agg_expr_1")
        assert cached3 and third is second

    def test_clear(self):
        cache = KernelCache()
        cache.compile("a + 1", self.SCHEMA)
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_bound_evicts_the_least_recently_used(self, monkeypatch):
        monkeypatch.setattr(pipeline, "KERNEL_CACHE_ENTRIES", 2)
        cache = KernelCache()
        cache.compile("a + 1", self.SCHEMA)
        cache.compile("a + 2", self.SCHEMA)
        cache.compile("a + 1", self.SCHEMA)  # a hit refreshes "a + 1"
        cache.compile("a + 3", self.SCHEMA)  # evicts "a + 2"
        assert len(cache) == 2
        assert cache.compile("a + 1", self.SCHEMA)[1]
        assert not cache.compile("a + 2", self.SCHEMA)[1]
        assert (cache.hits, cache.misses) == (2, 4)
