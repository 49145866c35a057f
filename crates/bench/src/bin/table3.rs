//! Regenerates the paper's Table 3 (mechanism lines of code).
fn main() {
    dope_bench::tables::report_table3();
}
