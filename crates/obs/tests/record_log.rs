//! `RecordLog` is the only place captured records live, so its encoding
//! must be lossless: over every variant and every field's full domain,
//! `iter()` returns exactly the records pushed, in push order.

use obs::{Cast, Event, PacketClass, Record, RecordLog};
use proptest::collection::vec;
use proptest::prelude::*;

const CLASSES: [PacketClass; 6] = [
    PacketClass::Data,
    PacketClass::Request,
    PacketClass::Reply,
    PacketClass::ExpeditedRequest,
    PacketClass::ExpeditedReply,
    PacketClass::Session,
];
const CASTS: [Cast; 3] = [Cast::Multicast, Cast::Unicast, Cast::Subcast];

/// The `variant`-th `Event` (declaration order) built from the given
/// field values; `ids` feed the `u32` fields, `seq` and `delay_ns` the
/// `u64` ones.
fn build(
    variant: usize,
    [node, a, b]: [u32; 3],
    seq: u64,
    delay_ns: u64,
    (class, cast, flag, has_seq): (usize, usize, bool, bool),
) -> Event {
    let class = CLASSES[class];
    let opt = has_seq.then_some(seq);
    match variant {
        0 => Event::PacketSent {
            node,
            class,
            seq: opt,
            cast: CASTS[cast],
        },
        1 => Event::PacketDropped {
            link: node,
            class,
            seq: opt,
        },
        2 => Event::PacketDelivered {
            node,
            class,
            seq: opt,
            origin: a,
        },
        3 => Event::LossDetected { node, seq },
        4 => Event::RequestScheduled {
            node,
            seq,
            round: a,
            delay_ns,
        },
        5 => Event::RequestSuppressed { node, seq, by: a },
        6 => Event::RequestSent {
            node,
            seq,
            round: a,
        },
        7 => Event::ReplyScheduled {
            node,
            seq,
            requestor: a,
        },
        8 => Event::ReplySuppressed { node, seq, by: a },
        9 => Event::ReplySent {
            node,
            seq,
            requestor: a,
            expedited: flag,
        },
        10 => Event::ExpeditedRequestSent {
            node,
            seq,
            replier: a,
        },
        11 => Event::ExpeditedReplySent {
            node,
            seq,
            requestor: a,
            subcast: flag,
        },
        12 => Event::CacheHit {
            node,
            seq,
            requestor: a,
            replier: b,
        },
        13 => Event::CacheMiss { node, seq },
        14 => Event::CacheUpdate {
            node,
            seq,
            requestor: a,
            replier: b,
        },
        15 => Event::RecoveryCompleted {
            node,
            seq,
            expedited: flag,
        },
        _ => Event::SpuriousLoss { node, seq },
    }
}

/// A `u64` biased toward the encoding's edges: zero, `u64::MAX`, small
/// values, powers of two (varint byte boundaries) and the full domain.
fn wide_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        Just(u64::MAX),
        Just(0u64),
        0u64..300,
        (0u64..64).prop_map(|s| 1u64 << s),
        (1u64..64).prop_map(|s| (1u64 << s) - 1),
    ]
}

/// Truncation maps `u64::MAX` to `u32::MAX` and keeps the other edges.
fn wide_u32() -> impl Strategy<Value = u32> {
    wide_u64().prop_map(|v| v as u32)
}

fn record() -> impl Strategy<Value = Record> {
    (
        0usize..17,
        (wide_u32(), wide_u32(), wide_u32()),
        (wide_u64(), wide_u64()),
        (0usize..6, 0usize..3, any::<bool>(), any::<bool>()),
        wide_u64(),
    )
        .prop_map(
            |(variant, (node, a, b), (seq, delay_ns), shape, t_ns)| Record {
                t_ns,
                event: build(variant, [node, a, b], seq, delay_ns, shape),
            },
        )
}

fn log_of(records: &[Record]) -> RecordLog {
    let mut log = RecordLog::new();
    for &r in records {
        log.push(r);
    }
    log
}

#[test]
fn every_variant_at_its_extremes_round_trips() {
    let mut records = Vec::new();
    for variant in 0..Event::NAMES.len() {
        for (ids, value, has_seq) in [
            ([u32::MAX; 3], u64::MAX, true),
            ([u32::MAX; 3], u64::MAX, false),
            ([0; 3], 0, true),
            ([0; 3], 0, false),
        ] {
            for class in 0..CLASSES.len() {
                for cast in 0..CASTS.len() {
                    for flag in [false, true] {
                        let event = build(variant, ids, value, value, (class, cast, flag, has_seq));
                        assert_eq!(event.name(), Event::NAMES[variant]);
                        // Time runs backwards as often as forwards, and
                        // jumps across the whole u64 range.
                        let t_ns = match records.len() % 4 {
                            0 => u64::MAX,
                            1 => 0,
                            2 => u64::MAX / 2,
                            _ => 1,
                        };
                        records.push(Record { t_ns, event });
                    }
                }
            }
        }
    }
    let log = log_of(&records);
    assert_eq!(log.len(), records.len());
    assert_eq!(log.iter().len(), records.len());
    assert_eq!(log.iter().collect::<Vec<_>>(), records);
    assert_eq!(records.iter().copied().collect::<RecordLog>(), log);
}

#[test]
fn an_empty_log_decodes_to_nothing() {
    let log = RecordLog::new();
    assert!(log.is_empty());
    assert_eq!(log.len(), 0);
    assert_eq!(log.byte_len(), 0);
    assert_eq!(log.iter().next(), None);
    assert_eq!(format!("{log:?}"), "[]");
}

#[test]
fn debug_lists_the_decoded_records() {
    let records = [
        Record {
            t_ns: 7,
            event: Event::LossDetected { node: 1, seq: 2 },
        },
        Record {
            t_ns: 3,
            event: Event::CacheMiss { node: 4, seq: 5 },
        },
    ];
    assert_eq!(format!("{:?}", log_of(&records)), format!("{records:?}"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pushed_records_decode_exactly(records in vec(record(), 0..200)) {
        let log = log_of(&records);
        prop_assert_eq!(log.len(), records.len());
        prop_assert_eq!(log.is_empty(), records.is_empty());
        prop_assert_eq!(log.iter().size_hint(), (records.len(), Some(records.len())));
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), records.clone());
        prop_assert_eq!((&log).into_iter().count(), records.len());
        // Collecting and pushing one at a time build the same bytes.
        prop_assert_eq!(records.iter().copied().collect::<RecordLog>(), log);
    }

    #[test]
    fn a_clone_decodes_like_its_source_after_it_grows(records in vec(record(), 1..50), more in vec(record(), 0..50)) {
        let mut log = log_of(&records);
        let snapshot = log.clone();
        for &r in &more {
            log.push(r);
        }
        prop_assert_eq!(snapshot.iter().collect::<Vec<_>>(), records.clone());
        let all: Vec<Record> = records.iter().chain(&more).copied().collect();
        prop_assert_eq!(log.iter().collect::<Vec<_>>(), all);
    }
}
