//! Differential spec-oracle and coverage-guided fuzzing for the policy
//! pipeline.
//!
//! Layers:
//!
//! * [`oracle`] — a clean-room transcription of the Permissions Policy
//!   processing model and RFC 8941 structured-field parsing, written
//!   against the specs rather than against `policy`'s code;
//! * [`scenario`] — deterministic frame-tree scenario generation, the
//!   lockstep engine-vs-oracle executor, and a counterexample shrinker;
//! * [`jsdiff`] — seeded script generation and lockstep execution on
//!   `jsland`'s shipping engine and its tree-walking referee, with
//!   statement-level shrinking;
//! * [`browser_diff`] — the same two engines compared end to end: every
//!   origin of a seeded population visited by the browser on each, with
//!   and without interaction mode, serialized visits equal;
//! * [`replay`] — record/replay determinism: every scenario loaded
//!   through a recording network into a content-addressed bundle store
//!   must replay from the store with an identical visit record;
//! * [`fuzz`] — a from-scratch coverage-guided, structure-aware fuzzer
//!   for the `policy` / `html` / `jsland` parsers (requires the
//!   `coverage` feature, which instruments those crates).
//!
//! The crate is test infrastructure: it depends on the production
//! crates but nothing in production depends on it.

pub mod browser_diff;
pub mod browser_exec;
pub mod jsdiff;
pub mod oracle;
pub mod replay;
pub mod rng;
pub mod scenario;

#[cfg(feature = "coverage")]
pub mod fuzz;

use std::path::PathBuf;

/// Loads the checked-in seed corpus for a fuzz target (`header`,
/// `allow`, `html`, `js`), sorted by file name for determinism.
pub fn seed_corpus(name: &str) -> Vec<Vec<u8>> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/corpus")).join(name);
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("seed corpus {} missing: {e}", dir.display()))
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| std::fs::read(&p).expect("readable seed"))
        .collect()
}
