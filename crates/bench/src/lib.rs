//! Shared helpers for the Criterion bench targets (`micro`, `ablations`).

use traces::{table1, Trace};

/// Scale for the printed series: large enough for stable shapes, small
/// enough to keep `cargo bench` minutes-fast.
pub const PRINT_SCALE: f64 = 0.05;

/// A small trace for timed loops: Table-1 spec `number` at 1 % scale.
pub fn timing_trace(number: usize) -> Trace {
    let spec = &table1()[number - 1];
    spec.scaled(0.01).generate(1)
}
