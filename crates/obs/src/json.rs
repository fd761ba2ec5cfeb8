//! Hand-rolled JSONL encoding for [`Record`]s.
//!
//! The container image vendors no serde, and every value we serialise is a
//! scalar (integers, booleans, static strings), so a small hand-written
//! encoder keeps the crate dependency-free. The wire format is documented
//! in `docs/TRACING.md`; the event and field names it writes are the
//! stable schema, read from [`crate::Event::fields`].

use std::fmt::Write as _;

use crate::event::{Field, Record};

/// Encode one record as a single JSON object (no trailing newline).
///
/// Every line has the shape `{"t":<ns>,"ev":"<name>",...fields}` with the
/// fields in [`crate::Event::fields`] order, so output is byte-stable
/// across runs.
pub fn to_json_line(record: &Record) -> String {
    let mut s = String::with_capacity(96);
    let _ = write!(
        s,
        "{{\"t\":{},\"ev\":\"{}\"",
        record.t_ns,
        record.event.name()
    );
    // All strings in the schema are static identifiers ([a-z_]+), so no
    // escaping is required.
    record.event.fields(|key, field| {
        s.push_str(",\"");
        s.push_str(key);
        s.push_str("\":");
        let _ = match field {
            Field::Id(v) => write!(s, "{v}"),
            Field::U64(v) | Field::Seq(Some(v)) => write!(s, "{v}"),
            Field::Seq(None) => write!(s, "null"),
            Field::Class(class) => write!(s, "\"{}\"", class.as_str()),
            Field::Cast(cast) => write!(s, "\"{}\"", cast.as_str()),
            Field::Flag(v) => write!(s, "{v}"),
        };
    });
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Cast, Event, PacketClass};

    #[test]
    fn encodes_packet_sent() {
        let line = to_json_line(&Record {
            t_ns: 1_500_000,
            event: Event::PacketSent {
                node: 0,
                class: PacketClass::Data,
                seq: Some(7),
                cast: Cast::Multicast,
            },
        });
        assert_eq!(
            line,
            r#"{"t":1500000,"ev":"sent","node":0,"class":"data","seq":7,"cast":"multicast"}"#
        );
    }

    #[test]
    fn encodes_missing_seq_as_null() {
        let line = to_json_line(&Record {
            t_ns: 0,
            event: Event::PacketDropped {
                link: 3,
                class: PacketClass::Session,
                seq: None,
            },
        });
        assert_eq!(
            line,
            r#"{"t":0,"ev":"dropped","link":3,"class":"session","seq":null}"#
        );
    }

    #[test]
    fn encodes_booleans_bare() {
        let line = to_json_line(&Record {
            t_ns: 42,
            event: Event::RecoveryCompleted {
                node: 5,
                seq: 9,
                expedited: true,
            },
        });
        assert_eq!(
            line,
            r#"{"t":42,"ev":"recovered","node":5,"seq":9,"expedited":true}"#
        );
    }

    #[test]
    fn every_variant_produces_balanced_json() {
        let events = [
            Event::PacketSent {
                node: 1,
                class: PacketClass::Request,
                seq: Some(1),
                cast: Cast::Unicast,
            },
            Event::PacketDropped {
                link: 1,
                class: PacketClass::Reply,
                seq: Some(1),
            },
            Event::PacketDelivered {
                node: 1,
                class: PacketClass::ExpeditedRequest,
                seq: Some(1),
                origin: 2,
            },
            Event::LossDetected { node: 1, seq: 1 },
            Event::RequestScheduled {
                node: 1,
                seq: 1,
                round: 0,
                delay_ns: 5,
            },
            Event::RequestSuppressed {
                node: 1,
                seq: 1,
                by: 2,
            },
            Event::RequestSent {
                node: 1,
                seq: 1,
                round: 1,
            },
            Event::ReplyScheduled {
                node: 1,
                seq: 1,
                requestor: 2,
            },
            Event::ReplySuppressed {
                node: 1,
                seq: 1,
                by: 2,
            },
            Event::ReplySent {
                node: 1,
                seq: 1,
                requestor: 2,
                expedited: false,
            },
            Event::ExpeditedRequestSent {
                node: 1,
                seq: 1,
                replier: 2,
            },
            Event::ExpeditedReplySent {
                node: 1,
                seq: 1,
                requestor: 2,
                subcast: true,
            },
            Event::CacheHit {
                node: 1,
                seq: 1,
                requestor: 2,
                replier: 3,
            },
            Event::CacheMiss { node: 1, seq: 1 },
            Event::CacheUpdate {
                node: 1,
                seq: 1,
                requestor: 2,
                replier: 3,
            },
            Event::RecoveryCompleted {
                node: 1,
                seq: 1,
                expedited: false,
            },
            Event::SpuriousLoss { node: 1, seq: 1 },
        ];
        for event in events {
            let line = to_json_line(&Record { t_ns: 1, event });
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "{line}"
            );
            assert_eq!(line.matches('"').count() % 2, 0, "{line}");
            assert!(
                line.contains(&format!("\"ev\":\"{}\"", event.name())),
                "{line}"
            );
        }
    }
}
