//! `simlint` reads `simlint.toml` and `simlint.baseline` from disk (or the
//! paths named by `--config`/`--baseline`): whatever the bytes,
//! `Config::parse` and `Baseline::parse` return `Ok` or `Err` and never
//! panic.

use proptest::collection::vec;
use proptest::prelude::*;
use simlint::{Baseline, Config};

const CONFIG: &str = include_str!("../../../simlint.toml");
const BASELINE: &str = include_str!("../../../simlint.baseline");

/// A baseline with entries: the committed one is comments only.
const ENTRIES: &str = "D001 crates/srm/src/core.rs 5\nD002 crates/harness/src/suite.rs\n\
                       D001 crates/srm/src/core.rs 18446744073709551615\n";

/// Bytes that steer the parsers into their structural paths.
const SYNTAX: &[u8] = b"[]\"=,#\n \tD0123456789.*/_abcdeilmnoprstuwy";

/// Whole tokens the parsers branch on, spliced in as a unit.
const TOKENS: &[&str] = &[
    "[simlint]",
    "[allow]",
    "[nope]",
    "baseline = ",
    "state_crates = [",
    "D001",
    "D999",
    " = [\"a\", ",
    "\"",
    "]",
    "\n",
    "# ",
    "18446744073709551615",
    "18446744073709551616",
    " 1\n",
];

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0u64..256).prop_map(|b| b as u8),
        (0..SYNTAX.len()).prop_map(|i| SYNTAX[i]),
    ]
}

/// One byte-level edit: `(kind, position, byte, token index)`.
fn edit() -> impl Strategy<Value = (u8, usize, u8, usize)> {
    (0u8..5, 0usize..4096, byte(), 0..TOKENS.len())
}

fn apply(doc: &mut Vec<u8>, (kind, at, b, token): (u8, usize, u8, usize)) {
    let at = at % (doc.len() + 1);
    match kind {
        0 if at < doc.len() => doc[at] = b,
        1 => doc.insert(at, b),
        2 if at < doc.len() => {
            doc.remove(at);
        }
        3 => doc.truncate(at),
        _ => {
            doc.splice(at..at, TOKENS[token].bytes());
        }
    }
}

fn mutated(base: &str, edits: Vec<(u8, usize, u8, usize)>) -> String {
    let mut doc = base.as_bytes().to_vec();
    for e in edits {
        apply(&mut doc, e);
    }
    String::from_utf8_lossy(&doc).into_owned()
}

#[test]
fn the_committed_files_parse() {
    Config::parse(CONFIG).expect("simlint.toml parses");
    Baseline::parse(BASELINE).expect("simlint.baseline parses");
}

#[test]
fn an_overflowing_baseline_total_is_an_error() {
    assert!(Baseline::parse("D001 a.rs 18446744073709551615\nD001 a.rs 1\n").is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(byte(), 0..512)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = Config::parse(&text);
        let _ = Baseline::parse(&text);
    }

    #[test]
    fn mutated_configs_never_panic(edits in vec(edit(), 1..8)) {
        let _ = Config::parse(&mutated(CONFIG, edits));
    }

    #[test]
    fn mutated_baselines_never_panic(edits in vec(edit(), 1..8), base in 0usize..2) {
        let base = [BASELINE, ENTRIES][base];
        let _ = Baseline::parse(&mutated(base, edits));
    }
}
