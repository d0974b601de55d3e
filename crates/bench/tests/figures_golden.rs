//! Golden copy of the paper reproduction.
//!
//! `figures_output.txt` at the repository root is, byte for byte, what
//! `figures` prints when run with no arguments: every figure of
//! [`FIGURES`], in order. Every simulated time in it is a function of
//! the compiler's deterministic work units, so any change to the
//! compiler, the cost model or the simulator that moves a number shows
//! up here as a reviewable diff. Regenerate with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p parcc-bench --test figures_golden
//! ```

use parcc_bench::{render, EvalData, FIGURES};
use std::path::Path;

fn line(text: &str, n: usize) -> &str {
    text.lines().nth(n).unwrap_or("<end of text>")
}

#[test]
fn figures_output_matches_golden() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../figures_output.txt");
    let data = EvalData::collect();
    let printed: String = FIGURES.iter().map(|f| render(&data, f) + "\n").collect();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &printed).expect("write figures_output.txt");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read figures_output.txt");
    if printed == golden {
        return;
    }
    let same = golden
        .lines()
        .zip(printed.lines())
        .take_while(|(want, got)| want == got)
        .count();
    panic!(
        "figures_output.txt drifted from what `figures` prints; first difference at line {}:\n  \
         file:    {}\n  figures: {}\nrerun with\n  \
         UPDATE_GOLDEN=1 cargo test -p parcc-bench --test figures_golden\nand review the diff",
        same + 1,
        line(&golden, same),
        line(&printed, same),
    );
}
