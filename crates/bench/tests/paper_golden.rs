//! Golden pin of every paper table and figure the library renders.
//!
//! Each target's text, the string its render returns (what
//! `reproduce -- <target>` prints below its banner; for `lifetime
//! --quick`, above the line naming the file it wrote), is kept in
//! `tests/golden/<target>.txt`.
//! The test renders each one in process and compares bytes; a mismatch
//! names the target and its first differing line. A change that moves a
//! result on purpose re-blesses with `BLESS=1 cargo test -p pels-bench
//! --test paper_golden`, which rewrites the files, and says which line
//! moved and why.

use pels_bench::{ablations, experiments, lifetime, sota};
use std::path::PathBuf;

/// A golden file stem and the render producing its text.
type Target = (&'static str, fn() -> String);

/// Every library render.
const TARGETS: [Target; 9] = [
    ("table1", sota::render_table1),
    ("fig3", experiments::render_fig3),
    ("latency", experiments::render_latency),
    ("fig5", experiments::render_fig5),
    ("fig6a", experiments::render_fig6a),
    ("fig6b", experiments::render_fig6b),
    ("extensions", experiments::render_extension_link_power),
    ("ablations", ablations::render_all),
    ("lifetime_quick", lifetime::render_quick),
];

fn golden_path(target: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{target}.txt"))
}

/// The first line where `got` and `want` differ, 1-based, with both
/// sides (`None` past the end of a text).
fn first_difference<'a>(got: &'a str, want: &'a str) -> (usize, Option<&'a str>, Option<&'a str>) {
    let (mut g, mut w) = (got.lines(), want.lines());
    let mut n = 1;
    loop {
        match (g.next(), w.next()) {
            (a, b) if a != b => return (n, a, b),
            (None, None) => return (n, None, None),
            _ => n += 1,
        }
    }
}

#[test]
fn paper_targets_render_their_golden_text() {
    let bless = std::env::var_os("BLESS").is_some_and(|v| v == "1");
    let mut failures = Vec::new();
    for (target, render) in TARGETS {
        let got = render();
        let path = golden_path(target);
        if bless {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: {e} (bless with BLESS=1)", path.display()));
        if got != want {
            let (line, g, w) = first_difference(&got, &want);
            failures.push(format!(
                "{target}: first difference at line {line}\n   got: {g:?}\n  want: {w:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "paper goldens moved:\n{}",
        failures.join("\n")
    );
}

#[test]
fn first_difference_names_the_line_and_both_sides() {
    assert_eq!(first_difference("a\nb\n", "a\nb\n"), (3, None, None));
    assert_eq!(
        first_difference("a\nx\n", "a\nb\n"),
        (2, Some("x"), Some("b"))
    );
    assert_eq!(first_difference("a\n", "a\nb\n"), (2, None, Some("b")));
}
