//! End-to-end and per-layer benchmark of the BLAST reproduction.
//!
//! Four workloads, each run in its own process with one host pool thread:
//! see `README.md` for what each one exercises and why. Every workload
//! runs whole rounds of identical work for a given wall time, checks the
//! program's outputs after every round, and reports the end-to-end
//! metrics (untraced) or the per-layer metrics (traced).

use std::path::PathBuf;

pub mod hydro;
pub mod layers;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use blast_repro::blast_core::AssemblyMode;
use report::RunReport;

/// The workloads, by name.
pub const WORKLOADS: [&str; 4] = [
    "sedov3d-q2-stored",
    "sedov3d-q2-matfree",
    "triplepoint2d-q3-hybrid-resilient",
    "serve-routed-mix",
];

/// What one run is asked to do.
#[derive(Clone, Debug)]
pub struct RunOptions {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of the workload's inputs (flip bits and elements, arrivals).
    pub seed: u64,
    /// Wall seconds of whole rounds to measure.
    pub seconds: f64,
    /// Traced run: per-layer metrics and span files instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Where a traced run writes its span files.
    pub out_dir: PathBuf,
}

/// Runs one workload; `None` for an unknown name.
pub fn run(opts: &RunOptions) -> Option<RunReport> {
    Some(match opts.workload.as_str() {
        "sedov3d-q2-stored" => hydro::run(&hydro::sedov_case(AssemblyMode::Stored), opts),
        "sedov3d-q2-matfree" => hydro::run(&hydro::sedov_case(AssemblyMode::MatrixFree), opts),
        "triplepoint2d-q3-hybrid-resilient" => {
            hydro::run(&hydro::triple_point_case(opts.seed), opts)
        }
        "serve-routed-mix" => serve::run(opts),
        _ => return None,
    })
}
