//! The packed, append-only store of one run's captured records.

use std::fmt;
use std::sync::OnceLock;

use crate::event::{Cast, Event, Field, FieldSource, PacketClass, Record};

/// One run's captured [`Record`]s, packed into a byte string.
///
/// A `Record` is 40 bytes in memory; a suite run captures millions of
/// them, and a capturing run holds every one until it is written out. The
/// log stores each record as
///
/// 1. one tag byte naming the variant, plus the fields that fit beside it:
///    a packet event's class, cast and whether it carries a `seq`, or a
///    variant's one `bool`;
/// 2. the time since the previous record as a zigzag LEB128 varint, so a
///    decreasing `t_ns` stays lossless;
/// 3. the remaining fields in [`Event::fields`] order as LEB128 varints.
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

/// A field's digit in the tag byte and how many digits it has; a field
/// written as a varint has one.
fn tag_digit(field: Field) -> (u8, u8) {
    match field {
        Field::Id(_) | Field::U64(_) => (0, 1),
        Field::Seq(seq) => (u8::from(seq.is_some()), 2),
        Field::Class(class) => (class as u8, PacketClass::ALL.len() as u8),
        Field::Cast(cast) => (cast as u8, Cast::ALL.len() as u8),
        Field::Flag(v) => (u8::from(v), 2),
    }
}

/// The tag code space: variant `k` owns the codes `first[k]..first[k + 1]`,
/// one per combination of the digits its fields put in the tag, and
/// `kind[tag]` names the variant that owns `tag`.
struct Codes {
    first: [u8; Event::NAMES.len() + 1],
    kind: [u8; 256],
}

fn codes() -> &'static Codes {
    static CODES: OnceLock<Codes> = OnceLock::new();
    CODES.get_or_init(|| {
        let mut codes = Codes {
            first: [0; Event::NAMES.len() + 1],
            kind: [u8::MAX; 256],
        };
        for kind in 0..Event::NAMES.len() {
            // Decoding zero bytes with a zero code yields an instance of
            // the variant; its walk tells how many codes the variant needs.
            let blank = Event::from_fields(kind, &mut RecordIter::new(&[0; 8], 0));
            let mut count = 1;
            blank.fields(|_, field| count *= tag_digit(field).1);
            let (start, end) = (codes.first[kind], codes.first[kind] + count);
            codes.first[kind + 1] = end;
            codes.kind[usize::from(start)..usize::from(end)].fill(kind as u8);
        }
        codes
    })
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
        // The tag's digits form a mixed-radix number, first field lowest.
        // The tag leads the record but is known only after the walk, so
        // the walk buffers the varints (no variant has more than four).
        let (mut code, mut place) = (0, 1);
        let (mut varints, mut n) = ([0; 4], 0);
        record.event.fields(|_, field| {
            let (digit, radix) = tag_digit(field);
            code += digit * place;
            place *= radix;
            varints[n] = match field {
                Field::Id(v) => v.into(),
                Field::U64(v) | Field::Seq(Some(v)) => v,
                _ => return,
            };
            n += 1;
        });
        let out = &mut self.bytes;
        out.push(codes().first[record.event.kind()] + code);
        put(out, ((delta << 1) ^ (delta >> 63)) as u64);
        for v in &varints[..n] {
            put(out, *v);
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
        RecordIter::new(&self.bytes, self.len)
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
    /// The tag digits of the record being decoded not yet read.
    code: u8,
}

impl<'a> RecordIter<'a> {
    fn new(bytes: &'a [u8], left: usize) -> Self {
        RecordIter {
            bytes,
            left,
            t_ns: 0,
            code: 0,
        }
    }

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

    /// The tag's next digit of a field with `radix` values.
    fn digit(&mut self, radix: usize) -> usize {
        let radix = radix as u8;
        let digit = self.code % radix;
        self.code /= radix;
        usize::from(digit)
    }
}

impl FieldSource for RecordIter<'_> {
    /// The log wrote this varint from a `u32`.
    fn id(&mut self) -> u32 {
        self.take() as u32
    }

    fn u64(&mut self) -> u64 {
        self.take()
    }

    fn seq(&mut self) -> Option<u64> {
        (self.digit(2) == 1).then(|| self.take())
    }

    fn class(&mut self) -> PacketClass {
        PacketClass::ALL[self.digit(PacketClass::ALL.len())]
    }

    fn cast(&mut self) -> Cast {
        Cast::ALL[self.digit(Cast::ALL.len())]
    }

    fn flag(&mut self) -> bool {
        self.digit(2) == 1
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
        let codes = codes();
        let kind = usize::from(codes.kind[usize::from(tag)]);
        self.code = tag - codes.first[kind];
        Some(Record {
            t_ns: self.t_ns,
            event: Event::from_fields(kind, self),
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for RecordIter<'_> {}
