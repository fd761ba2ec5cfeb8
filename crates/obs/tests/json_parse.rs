//! `JsonValue::parse` reads files a user names on the command line
//! (`reproduce diff`, `bench_compare`): whatever the bytes, it returns
//! `Ok` or `Err` and never panics or overflows the stack.

use obs::JsonValue;
use proptest::collection::vec;
use proptest::prelude::*;

/// A committed `cesrm-bench/2` report (one 10³-receiver scale rung).
const REPORT: &str = include_str!("fixtures/scale-rung1000.bench.json");

/// Bytes that steer the parser into its structural paths.
const JSON_BYTES: &[u8] = b"{}[]\",:\\/u0189.-+eEtrufalsn \n";

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0u64..256).prop_map(|b| b as u8),
        (0..JSON_BYTES.len()).prop_map(|i| JSON_BYTES[i]),
    ]
}

/// One byte-level edit: `(kind, position, byte, run length)`.
fn edit() -> impl Strategy<Value = (u8, usize, u8, usize)> {
    (0u8..5, 0usize..4096, byte(), 1usize..3000)
}

fn apply(doc: &mut Vec<u8>, (kind, at, b, run): (u8, usize, u8, usize)) {
    let at = at % (doc.len() + 1);
    match kind {
        0 if at < doc.len() => doc[at] = b,
        1 => doc.insert(at, b),
        2 if at < doc.len() => {
            doc.remove(at);
        }
        3 => doc.truncate(at),
        // A run of openers: nesting far past the parser's cap.
        _ => {
            let opener: &[u8] = if b % 2 == 0 { b"[" } else { b"{\"k\":" };
            let run: Vec<u8> = opener
                .iter()
                .copied()
                .cycle()
                .take(run * opener.len())
                .collect();
            doc.splice(at..at, run);
        }
    }
}

#[test]
fn the_fixture_report_parses() {
    let doc = JsonValue::parse(REPORT).expect("committed report is valid JSON");
    assert_eq!(
        doc.get("schema").and_then(JsonValue::as_str),
        Some("cesrm-bench/2")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in vec(byte(), 0..512)) {
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn mutated_reports_never_panic(edits in vec(edit(), 1..6)) {
        let mut doc = REPORT.as_bytes().to_vec();
        for e in edits {
            apply(&mut doc, e);
        }
        let _ = JsonValue::parse(&String::from_utf8_lossy(&doc));
    }
}
