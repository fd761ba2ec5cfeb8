//! `reproduce diff` reads trail files a user names on the command line:
//! whatever a trail holds, `diff_trails` returns `Ok` or `Err` and never
//! panics. A mutated trail is also never mistaken for a divergent run: the
//! summaries over the leaves catch every edit the reader lets through.

use std::sync::OnceLock;

use harness::{diff_trails, run_suite, suite_digest_json, DiffOutcome, SuiteConfig};
use obs::JsonValue;
use proptest::prelude::*;

/// A rendered two-run trail (trace 4 at 1 % scale, SRM and CESRM).
fn trail() -> &'static JsonValue {
    static TRAIL: OnceLock<JsonValue> = OnceLock::new();
    TRAIL.get_or_init(|| {
        let mut cfg = SuiteConfig::quick(0.01).with_digest();
        cfg.traces = Some(vec![4]);
        JsonValue::parse(&suite_digest_json(&cfg, &run_suite(&cfg))).expect("well-formed trail")
    })
}

const LEAF_FIELDS: [&str; 4] = ["window", "node", "digest", "records"];

/// What replaces a leaf field: a random JSON value, `u64::MAX` or a string.
fn replacement(kind: u64, bits: u64) -> JsonValue {
    match kind % 7 {
        0 => JsonValue::Null,
        1 => JsonValue::Bool(bits & 1 == 1),
        // Any double: negative, fractional, huge, infinite or NaN.
        2 => JsonValue::Num(f64::from_bits(bits)),
        3 => JsonValue::uint(bits),
        4 => JsonValue::uint(u64::MAX),
        5 => JsonValue::Str(format!("{bits:016x}")),
        _ => JsonValue::Arr(vec![JsonValue::uint(bits)]),
    }
}

fn runs(doc: &mut JsonValue) -> &mut Vec<JsonValue> {
    match doc.get_mut("runs") {
        Some(JsonValue::Arr(runs)) => runs,
        _ => panic!("the trail has runs"),
    }
}

fn leaves(run: &mut JsonValue) -> &mut Vec<JsonValue> {
    match run.get_mut("leaves") {
        Some(JsonValue::Arr(leaves)) => leaves,
        _ => panic!("every run has leaves"),
    }
}

/// One mutation `(op, a, b, bits)` of the trail.
fn mutate(doc: &mut JsonValue, (op, a, b, bits): (u64, u64, u64, u64)) {
    let runs = runs(doc);
    let run = &mut runs[a as usize % 2];
    match op {
        // Swap one leaf field for another value.
        0 => {
            let leaves = leaves(run);
            let n = leaves.len();
            let field = LEAF_FIELDS[b as usize % LEAF_FIELDS.len()];
            *leaves[bits as usize % n]
                .get_mut(field)
                .expect("leaf field") = replacement(b / 4, bits);
        }
        // Drop one member of a run or of one of its leaves.
        1 => {
            let target = if b % 2 == 0 {
                run
            } else {
                let leaves = leaves(run);
                let n = leaves.len();
                &mut leaves[bits as usize % n]
            };
            if let JsonValue::Obj(members) = target {
                let n = members.len();
                members.remove((bits >> 32) as usize % n);
            }
        }
        // Shuffle the leaves (Fisher–Yates on an xorshift stream).
        _ => {
            let leaves = leaves(run);
            let mut x = bits | 1;
            for i in (1..leaves.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                leaves.swap(i, x as usize % (i + 1));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diff_trails_never_panics_on_a_mutated_trail(
        op in 0u64..3,
        a in any::<u64>(),
        b in any::<u64>(),
        bits in any::<u64>(),
    ) {
        let mut mutated = trail().clone();
        mutate(&mut mutated, (op, a, b, bits));
        for outcome in [diff_trails(trail(), &mutated), diff_trails(&mutated, trail())] {
            prop_assert!(
                !matches!(outcome, Ok(DiffOutcome::Diverged(_))),
                "mutation {:?} read as a divergence: {:?}",
                (op, a, b, bits),
                outcome
            );
        }
    }
}
