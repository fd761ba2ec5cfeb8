//! The packed, append-only store of one run's captured records.

use std::fmt;

use crate::event::{Cast, Event, PacketClass, Record};

/// One run's captured [`Record`]s, packed into a byte string.
///
/// A `Record` is 40 bytes in memory; a suite run captures millions of
/// them, and a capturing run holds every one until it is written out. The
/// log stores each record as
///
/// 1. one tag byte naming the variant, plus what fits beside it: a packet
///    event's class, cast and whether it carries a `seq`, or a variant's
///    one `bool`;
/// 2. the time since the previous record as a zigzag LEB128 varint, so a
///    decreasing `t_ns` stays lossless;
/// 3. the remaining fields in declaration order as LEB128 varints.
///
/// On the Table-1 suite that is about 7 bytes per record. The encoding is
/// lossless over every field's full domain: [`RecordLog::iter`] returns
/// exactly the records pushed, in push order.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct RecordLog {
    bytes: Vec<u8>,
    len: usize,
    last_t_ns: u64,
}

// Each enum in declaration order, so `class as u8` / `cast as u8` index
// them back.
const CLASSES: [PacketClass; 6] = [
    PacketClass::Data,
    PacketClass::Request,
    PacketClass::Reply,
    PacketClass::ExpeditedRequest,
    PacketClass::ExpeditedReply,
    PacketClass::Session,
];
const CASTS: [Cast; 3] = [Cast::Multicast, Cast::Unicast, Cast::Subcast];

// The tag code space. A packet event takes one code per (class, [cast],
// seq present); a variant with a `bool` takes two; every other variant
// takes one.
const SENT: u8 = 0;
const DROPPED: u8 = SENT + 6 * 3 * 2;
const DELIVERED: u8 = DROPPED + 6 * 2;
const LOSS_DETECTED: u8 = DELIVERED + 6 * 2;
const REQ_SCHEDULED: u8 = LOSS_DETECTED + 1;
const REQ_SUPPRESSED: u8 = REQ_SCHEDULED + 1;
const REQ_SENT: u8 = REQ_SUPPRESSED + 1;
const REP_SCHEDULED: u8 = REQ_SENT + 1;
const REP_SUPPRESSED: u8 = REP_SCHEDULED + 1;
const REP_SENT: u8 = REP_SUPPRESSED + 1;
const XREQ_SENT: u8 = REP_SENT + 2;
const XREP_SENT: u8 = XREQ_SENT + 1;
const CACHE_HIT: u8 = XREP_SENT + 2;
const CACHE_MISS: u8 = CACHE_HIT + 1;
const CACHE_UPDATE: u8 = CACHE_MISS + 1;
const RECOVERED: u8 = CACHE_UPDATE + 1;
const SPURIOUS: u8 = RECOVERED + 2;

fn tag(event: &Event) -> u8 {
    let seq_bit = |seq: Option<u64>| u8::from(seq.is_some());
    match *event {
        Event::PacketSent {
            class, seq, cast, ..
        } => SENT + (class as u8 * 3 + cast as u8) * 2 + seq_bit(seq),
        Event::PacketDropped { class, seq, .. } => DROPPED + class as u8 * 2 + seq_bit(seq),
        Event::PacketDelivered { class, seq, .. } => DELIVERED + class as u8 * 2 + seq_bit(seq),
        Event::LossDetected { .. } => LOSS_DETECTED,
        Event::RequestScheduled { .. } => REQ_SCHEDULED,
        Event::RequestSuppressed { .. } => REQ_SUPPRESSED,
        Event::RequestSent { .. } => REQ_SENT,
        Event::ReplyScheduled { .. } => REP_SCHEDULED,
        Event::ReplySuppressed { .. } => REP_SUPPRESSED,
        Event::ReplySent { expedited, .. } => REP_SENT + u8::from(expedited),
        Event::ExpeditedRequestSent { .. } => XREQ_SENT,
        Event::ExpeditedReplySent { subcast, .. } => XREP_SENT + u8::from(subcast),
        Event::CacheHit { .. } => CACHE_HIT,
        Event::CacheMiss { .. } => CACHE_MISS,
        Event::CacheUpdate { .. } => CACHE_UPDATE,
        Event::RecoveryCompleted { expedited, .. } => RECOVERED + u8::from(expedited),
        Event::SpuriousLoss { .. } => SPURIOUS,
    }
}

fn put(bytes: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        bytes.push(v as u8 | 0x80);
        v >>= 7;
    }
    bytes.push(v as u8);
}

impl RecordLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one record.
    pub fn push(&mut self, record: Record) {
        let delta = record.t_ns.wrapping_sub(self.last_t_ns) as i64;
        self.last_t_ns = record.t_ns;
        self.len += 1;
        let out = &mut self.bytes;
        out.push(tag(&record.event));
        put(out, ((delta << 1) ^ (delta >> 63)) as u64);
        match record.event {
            Event::PacketSent { node, seq, .. }
            | Event::PacketDropped {
                link: node, seq, ..
            } => {
                put(out, node.into());
                if let Some(seq) = seq {
                    put(out, seq);
                }
            }
            Event::PacketDelivered {
                node, seq, origin, ..
            } => {
                put(out, node.into());
                if let Some(seq) = seq {
                    put(out, seq);
                }
                put(out, origin.into());
            }
            Event::LossDetected { node, seq }
            | Event::CacheMiss { node, seq }
            | Event::RecoveryCompleted { node, seq, .. }
            | Event::SpuriousLoss { node, seq } => {
                put(out, node.into());
                put(out, seq);
            }
            Event::RequestSuppressed { node, seq, by: id }
            | Event::RequestSent {
                node,
                seq,
                round: id,
            }
            | Event::ReplyScheduled {
                node,
                seq,
                requestor: id,
            }
            | Event::ReplySuppressed { node, seq, by: id }
            | Event::ReplySent {
                node,
                seq,
                requestor: id,
                ..
            }
            | Event::ExpeditedRequestSent {
                node,
                seq,
                replier: id,
            }
            | Event::ExpeditedReplySent {
                node,
                seq,
                requestor: id,
                ..
            } => {
                put(out, node.into());
                put(out, seq);
                put(out, id.into());
            }
            Event::RequestScheduled {
                node,
                seq,
                round,
                delay_ns,
            } => {
                put(out, node.into());
                put(out, seq);
                put(out, round.into());
                put(out, delay_ns);
            }
            Event::CacheHit {
                node,
                seq,
                requestor,
                replier,
            }
            | Event::CacheUpdate {
                node,
                seq,
                requestor,
                replier,
            } => {
                put(out, node.into());
                put(out, seq);
                put(out, requestor.into());
                put(out, replier.into());
            }
        }
    }

    /// Number of records pushed.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no record was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoded records occupy (excluding spare capacity).
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// Releases spare capacity; a finished run's log grows no further.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
    }

    /// Decodes the records, oldest first.
    pub fn iter(&self) -> RecordIter<'_> {
        RecordIter {
            bytes: &self.bytes,
            left: self.len,
            t_ns: 0,
        }
    }
}

impl FromIterator<Record> for RecordLog {
    fn from_iter<I: IntoIterator<Item = Record>>(records: I) -> Self {
        let mut log = RecordLog::new();
        records.into_iter().for_each(|r| log.push(r));
        log
    }
}

impl<'a> IntoIterator for &'a RecordLog {
    type Item = Record;
    type IntoIter = RecordIter<'a>;

    fn into_iter(self) -> RecordIter<'a> {
        self.iter()
    }
}

impl fmt::Debug for RecordLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The decoding iterator returned by [`RecordLog::iter`].
#[derive(Clone, Debug)]
pub struct RecordIter<'a> {
    bytes: &'a [u8],
    left: usize,
    t_ns: u64,
}

impl RecordIter<'_> {
    fn take(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let (&b, rest) = self
                .bytes
                .split_first()
                .expect("a record's fields are all in the log");
            self.bytes = rest;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    /// A node id, round or other `u32` field; the log wrote it from one.
    fn id(&mut self) -> u32 {
        self.take() as u32
    }

    fn seq_if(&mut self, present: bool) -> Option<u64> {
        present.then(|| self.take())
    }
}

impl Iterator for RecordIter<'_> {
    type Item = Record;

    fn next(&mut self) -> Option<Record> {
        let (&tag, rest) = self.bytes.split_first()?;
        self.bytes = rest;
        self.left -= 1;
        let zigzag = self.take();
        let delta = (zigzag >> 1) as i64 ^ -((zigzag & 1) as i64);
        self.t_ns = self.t_ns.wrapping_add(delta as u64);
        let event = match tag {
            SENT..DROPPED => {
                let code = usize::from(tag - SENT);
                let node = self.id();
                let seq = self.seq_if(code & 1 == 1);
                Event::PacketSent {
                    node,
                    class: CLASSES[code / 6],
                    seq,
                    cast: CASTS[code / 2 % 3],
                }
            }
            DROPPED..DELIVERED => {
                let code = usize::from(tag - DROPPED);
                let link = self.id();
                let seq = self.seq_if(code & 1 == 1);
                Event::PacketDropped {
                    link,
                    class: CLASSES[code / 2],
                    seq,
                }
            }
            DELIVERED..LOSS_DETECTED => {
                let code = usize::from(tag - DELIVERED);
                let node = self.id();
                let seq = self.seq_if(code & 1 == 1);
                let origin = self.id();
                Event::PacketDelivered {
                    node,
                    class: CLASSES[code / 2],
                    seq,
                    origin,
                }
            }
            _ => {
                let node = self.id();
                let seq = self.take();
                match tag {
                    LOSS_DETECTED => Event::LossDetected { node, seq },
                    REQ_SCHEDULED => Event::RequestScheduled {
                        node,
                        seq,
                        round: self.id(),
                        delay_ns: self.take(),
                    },
                    REQ_SUPPRESSED => Event::RequestSuppressed {
                        node,
                        seq,
                        by: self.id(),
                    },
                    REQ_SENT => Event::RequestSent {
                        node,
                        seq,
                        round: self.id(),
                    },
                    REP_SCHEDULED => Event::ReplyScheduled {
                        node,
                        seq,
                        requestor: self.id(),
                    },
                    REP_SUPPRESSED => Event::ReplySuppressed {
                        node,
                        seq,
                        by: self.id(),
                    },
                    REP_SENT..XREQ_SENT => Event::ReplySent {
                        node,
                        seq,
                        requestor: self.id(),
                        expedited: tag != REP_SENT,
                    },
                    XREQ_SENT => Event::ExpeditedRequestSent {
                        node,
                        seq,
                        replier: self.id(),
                    },
                    XREP_SENT..CACHE_HIT => Event::ExpeditedReplySent {
                        node,
                        seq,
                        requestor: self.id(),
                        subcast: tag != XREP_SENT,
                    },
                    CACHE_HIT => Event::CacheHit {
                        node,
                        seq,
                        requestor: self.id(),
                        replier: self.id(),
                    },
                    CACHE_MISS => Event::CacheMiss { node, seq },
                    CACHE_UPDATE => Event::CacheUpdate {
                        node,
                        seq,
                        requestor: self.id(),
                        replier: self.id(),
                    },
                    RECOVERED..SPURIOUS => Event::RecoveryCompleted {
                        node,
                        seq,
                        expedited: tag != RECOVERED,
                    },
                    SPURIOUS => Event::SpuriousLoss { node, seq },
                    _ => unreachable!("RecordLog writes no tag {tag}"),
                }
            }
        };
        Some(Record {
            t_ns: self.t_ns,
            event,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RecordIter<'_> {}
