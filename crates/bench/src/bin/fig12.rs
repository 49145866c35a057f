//! Regenerates the paper's fig12 artifact. Run with --release.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    dope_bench::fig12::report(quick);
}
