//! Offline stand-in for `crossbeam`, with nothing in it.
//!
//! No workspace code uses `crossbeam`: the worker pool and the executive's
//! done channel hand off on `dope_workload::WorkQueue`. The crate stays
//! only because the benchmark's `Cargo.lock` pins `dope-runtime`'s
//! `[dependencies]` table, which names it; dropping that line changes the
//! lock.
