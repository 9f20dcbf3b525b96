//! What the golden-file tests (`ledger.rs`, `plans.rs`) share: a text
//! rendered twice in one process must be equal and equal its committed
//! file, which an ignored twin rewrites by hand; a mismatch prints a line
//! diff.

use std::fmt::Write;

/// A line diff of `expected` against `actual` (longest common subsequence):
/// `-` lines only the first has, `+` lines only the second has.
fn line_diff(expected: &str, actual: &str) -> String {
    let a: Vec<&str> = expected.lines().collect();
    let b: Vec<&str> = actual.lines().collect();
    // lcs[i][j]: length of the longest common subsequence of a[i..], b[j..].
    let mut lcs = vec![vec![0usize; b.len() + 1]; a.len() + 1];
    for i in (0..a.len()).rev() {
        for j in (0..b.len()).rev() {
            lcs[i][j] = if a[i] == b[j] {
                lcs[i + 1][j + 1] + 1
            } else {
                lcs[i + 1][j].max(lcs[i][j + 1])
            };
        }
    }
    let (mut i, mut j, mut out) = (0, 0, String::new());
    while i < a.len() || j < b.len() {
        if i < a.len() && j < b.len() && a[i] == b[j] {
            i += 1;
            j += 1;
        } else if j == b.len() || (i < a.len() && lcs[i + 1][j] >= lcs[i][j + 1]) {
            writeln!(out, "- {}", a[i]).unwrap();
            i += 1;
        } else {
            writeln!(out, "+ {}", b[j]).unwrap();
            j += 1;
        }
    }
    out
}

/// Asserts that `text` and `again`, two renders of it in one process, are
/// equal, and that `text` equals the committed file at `path`; a mismatch
/// with the file names `rewrite`, the ignored test that rewrites it.
pub fn assert_golden(path: &str, text: &str, again: &str, rewrite: &str) {
    assert!(
        text == again,
        "two renders in one process differ:\n{}",
        line_diff(text, again)
    );
    let committed =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path} is committed: {e}"));
    assert!(
        committed == text,
        "{path} moved (`-` committed, `+` now); if the change is meant, list \
         the lines and the reason and run the ignored `{rewrite}`:\n{}",
        line_diff(&committed, text)
    );
}

/// Rewrites the committed file at `path` with `text`: the body of each
/// ignored twin, run by hand only for a change that means to move it.
pub fn rewrite(path: &str, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
}
