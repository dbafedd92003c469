//! The environment surface, pinned: the `MAGMA_*` variables the code reads
//! are exactly the ones README documents.
//!
//! Every `"MAGMA_…"` string literal under `crates/*/src` is a variable some
//! code path reads (or, in a handful of tests, names in an error message);
//! README's knob table is the one place they are documented. The two sets
//! must be equal — a variable read but undocumented, or documented but dead,
//! fails here instead of drifting.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The identifier characters following `prefix` at each of its occurrences
/// in `text` that are closed by `close`.
fn names_between(text: &str, prefix: &str, close: char, out: &mut BTreeSet<String>) {
    let mut rest = text;
    while let Some(at) = rest.find(prefix) {
        rest = &rest[at + prefix.len()..];
        let len = rest.find(|c: char| !(c.is_ascii_uppercase() || c == '_')).unwrap_or(rest.len());
        if len > 0 && rest[len..].starts_with(close) {
            out.insert(format!("MAGMA_{}", &rest[..len]));
        }
    }
}

fn scan_sources(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).expect("source directories are readable") {
        let path = entry.expect("directory entries are readable").path();
        if path.is_dir() {
            scan_sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("sources are UTF-8");
            names_between(&text, "\"MAGMA_", '"', out);
        }
    }
}

#[test]
fn the_variables_the_code_reads_are_the_ones_readme_documents() {
    let mut read = BTreeSet::new();
    for entry in std::fs::read_dir(repo_root().join("crates")).expect("crates/ is readable") {
        let src = entry.expect("directory entries are readable").path().join("src");
        if src.is_dir() {
            scan_sources(&src, &mut read);
        }
    }

    // The knob table: every row whose first cell is a backticked variable.
    let readme = std::fs::read_to_string(repo_root().join("README.md")).expect("README.md reads");
    let rows: Vec<&str> = readme.lines().filter(|l| l.starts_with("| `MAGMA_")).collect();
    let mut documented = BTreeSet::new();
    for row in &rows {
        names_between(row, "| `MAGMA_", '`', &mut documented);
    }
    assert_eq!(documented.len(), rows.len(), "one variable per knob-table row, none twice");

    assert_eq!(read, documented, "variables read by crates/*/src vs README's knob table");
    assert_eq!(documented.len(), 7, "the environment surface is 7 variables: {documented:?}");
}
