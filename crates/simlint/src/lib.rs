//! `simlint` — the workspace's determinism & protocol-invariant static
//! analysis pass.
//!
//! The whole reproduction rests on bit-exact determinism: a run must be a
//! pure function of *(topology, trace, seed)*. That contract is easy to
//! state and easy to break — one iteration over a `HashMap`, one
//! `Instant::now()` in a simulation path, one `thread_rng()` — and the
//! Table-1 reenactments, the slot-indexed parallel merge, trace capture,
//! and the `cesrm-run/2` baseline gate all silently rot. `simlint`
//! enforces the contract mechanically.
//!
//! It is deliberately **dependency-free** (the workspace builds offline, so
//! no `syn`/`serde`) and runs in **two passes**: pass 1 lexes every file
//! with the hand-rolled [lexer], parses it into a lightweight item/function
//! [model], and links the whole workspace into a call [graph] with
//! module-path symbol resolution; pass 2 runs the file-local token rules
//! (`D001`–`D005`) and the flow-aware rules over the graph (`D006` float
//! accumulation order, `D007` shard safety, `D008` transitive wall-clock/
//! entropy reachability). See `docs/LINTS.md` for the rule catalogue,
//! suppression syntax, and the baseline workflow.
//!
//! ```text
//! cargo run --release -p simlint                    # human diagnostics
//! cargo run --release -p simlint -- --json          # simlint/3 report
//! cargo run --release -p simlint -- --explain D008  # rule catalogue entry
//! ```
//!
//! The binary exits `0` when no *new* (non-baselined) findings exist, `1`
//! on new findings (or a blown `--max-wall-ms` budget), `2` on usage or
//! I/O errors.

pub mod config;
pub mod graph;
pub mod lexer;
pub mod model;
pub mod report;
pub mod rules;
pub mod scan;

pub use config::{Baseline, Config, ConfigError};
pub use graph::{check_workspace, Workspace};
pub use lexer::{lex, Tok, TokKind};
pub use model::{build_model, FileModel, FnModel};
pub use report::{render_human, render_json, SIMLINT_SCHEMA, SIMLINT_VOLATILE_FIELDS};
pub use rules::{
    apply_suppressions, check_file, crate_of, explain, token_findings, Finding, RuleId,
};
pub use scan::{load_workspace, scan_loaded, scan_workspace, LoadedWorkspace, ScanReport};
