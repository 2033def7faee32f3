//! Experiment-harness utilities shared by every table/figure binary.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §3 for the index) and prints a Markdown block that
//! EXPERIMENTS.md records verbatim. This library holds the shared
//! plumbing: CLI flag parsing (no external CLI crate), selection→training
//! evaluation loops, and Markdown emission.

pub mod cli;
pub mod eval;
pub mod lineup;
pub mod record;
pub mod table;

pub use cli::Flags;
pub use eval::{evaluate_selection, mean_std, timed_selection, EvalSpec};
pub use table::MarkdownTable;
