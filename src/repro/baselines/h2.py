"""H2 v2.1.214 model.

H2 is a Java database whose DECIMAL is ``java.math.BigDecimal`` (precision
up to 100,000).  Two paper-visible characteristics:

* interpreted row-at-a-time execution on the JVM: the slowest growth when
  the trig polynomial lengthens (+191 s vs PostgreSQL's +134 s, Fig. 15);
* **division adds 20 extra digits of scale** -- which protects the
  sin(0.01) workload from the precision saturation every other system
  hits, at the cost of much more expensive division (section IV-D4).
"""

from __future__ import annotations

from repro.baselines.base import BaselineEngine, EngineCosts
from repro.core.decimal.context import DecimalSpec
from repro.core.decimal.value import DecimalValue
from repro.errors import DivisionByZeroError

#: Extra fractional digits H2 gives every DECIMAL division result.
H2_DIVISION_EXTRA_DIGITS = 20


class H2Model(BaselineEngine):
    """H2: BigDecimal semantics on the JVM."""

    name = "H2"
    version = "2.1.214"

    def default_costs(self) -> EngineCosts:
        return EngineCosts(
            per_tuple=0.65e-6,  # JDBC row pipeline + JVM expression tree
            per_op=0.35e-6,  # BigDecimal allocation per operation
            add_per_digit=2.6e-9,
            mul_per_digit_sq=0.18e-9,
            div_per_digit_sq=0.35e-9,
            agg_per_tuple=0.45e-6,
            agg_per_digit=2.6e-9,
            scan_bandwidth=0.8e9,
            parallelism=1.0,
            fixed_overhead=0.080,  # JVM/parse overhead
        )

    def _divide(self, left: DecimalValue, right: DecimalValue) -> DecimalValue:
        """BigDecimal-style division carrying 20 extra fractional digits."""
        if right.is_zero:
            raise DivisionByZeroError("H2 division by zero")
        scale = left.spec.scale + H2_DIVISION_EXTRA_DIGITS
        magnitude = (
            abs(left.unscaled)
            * 10 ** (right.spec.scale + H2_DIVISION_EXTRA_DIGITS)
            // abs(right.unscaled)
        )
        integer_digits = max(
            left.spec.integer_digits + right.spec.scale, 1
        )
        spec = DecimalSpec(integer_digits + scale, scale)
        negative = (left.unscaled < 0) != (right.unscaled < 0)
        return DecimalValue.from_unscaled_container(
            -magnitude if negative else magnitude, spec
        )
