//! # seqrec-experiments
//!
//! Experiment harness for the CL4SRec reproduction: the argument parsing
//! and runners shared by this package's binaries (`table1`, `table2`,
//! `table2x`, `fig4`, `fig5`, `fig6`, `ablation`), which regenerate the
//! paper's Tables 1–2 and Figures 4–6.
//!
//! Every binary accepts `--scale`, `--epochs`, `--pretrain-epochs`,
//! `--seed`, `--datasets` and `--out` so the experiments can be run closer
//! to paper scale (`--scale 1.0`) on a big machine or at laptop scale (the
//! defaults). Results are printed as markdown and written as JSON for
//! provenance (EXPERIMENTS.md records both).

#![warn(missing_docs)]

pub mod args;
pub mod runners;
