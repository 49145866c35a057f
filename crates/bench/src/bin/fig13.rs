//! Regenerates the paper's fig13 artifact. Run with --release.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    dope_bench::fig13::report(quick);
}
