//! Regenerates the paper's fig02 artifact. Run with --release.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    dope_bench::fig02::report(quick);
}
