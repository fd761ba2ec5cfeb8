//! `Trace::from_text` reads files a user names on the command line
//! (`trace_tool stat`): whatever the bytes, it returns `Ok` or `Err` and
//! never panics.

use proptest::collection::vec;
use proptest::prelude::*;
use traces::{generate, GeneratorConfig, Trace};

/// Bytes that steer the parser into its number and line paths.
const TRACE_BYTES: &[u8] = b"0123456789 -#\n";

/// Directives, so a mutation can move, repeat or drop whole lines' roles.
const TOKENS: [&str; 6] = [
    "loss ",
    "node ",
    "packets ",
    "period_ms ",
    "name ",
    "receiver ",
];

/// Numbers at the edges of the integer types the parser reads: a node id
/// past `u32`, and a count or run length whose sum overflows.
const EDGE_NUMBERS: [&str; 3] = ["0", "4294967298", "18446744073709551615"];

fn byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        (0u64..256).prop_map(|b| b as u8),
        (0..TRACE_BYTES.len()).prop_map(|i| TRACE_BYTES[i]),
    ]
}

/// One edit: `(kind, position, byte)`.
fn edit() -> impl Strategy<Value = (u8, usize, u8)> {
    (0u8..6, 0usize..1 << 16, byte())
}

fn apply(doc: &mut Vec<u8>, (kind, at, b): (u8, usize, u8)) {
    let at = at % (doc.len() + 1);
    match kind {
        0 if at < doc.len() => doc[at] = b,
        1 => doc.insert(at, b),
        2 if at < doc.len() => {
            doc.remove(at);
        }
        3 => doc.truncate(at),
        4 => {
            let token = TOKENS[usize::from(b) % TOKENS.len()].bytes();
            doc.splice(at..at, token);
        }
        // Replace the word around `at` — most are loss run lengths.
        _ => {
            let is_space = |c: &u8| c.is_ascii_whitespace();
            let start = doc[..at].iter().rposition(is_space).map_or(0, |i| i + 1);
            let end = doc[at..]
                .iter()
                .position(is_space)
                .map_or(doc.len(), |i| at + i);
            let number = EDGE_NUMBERS[usize::from(b) % EDGE_NUMBERS.len()].bytes();
            doc.splice(start..end, number);
        }
    }
}

fn generated() -> String {
    generate(&GeneratorConfig::small(13)).0.to_text()
}

#[test]
fn the_generated_trace_round_trips() {
    let text = generated();
    let trace = Trace::from_text(&text).expect("to_text output parses");
    assert_eq!(trace.to_text(), text);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(magic in any::<bool>(), bytes in vec(byte(), 0..512)) {
        // With the magic line the bytes reach the directive parser.
        let mut text = if magic { b"cesrm-trace v1\n".to_vec() } else { Vec::new() };
        text.extend(bytes);
        let _ = Trace::from_text(&String::from_utf8_lossy(&text));
    }

    #[test]
    fn mutated_traces_never_panic(edits in vec(edit(), 1..6)) {
        let mut doc = generated().into_bytes();
        for e in edits {
            apply(&mut doc, e);
        }
        let _ = Trace::from_text(&String::from_utf8_lossy(&doc));
    }
}
