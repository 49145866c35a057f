//! Regenerates the paper's fig14 artifact. Run with --release.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    dope_bench::fig14::report(quick);
}
