//! Event sinks: where a capturing [`Instruments`](crate::Instruments)
//! handle stores its records.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::Record;
use crate::json::to_json_line;

/// Destination for trace [`Record`]s.
///
/// Implementations decide retention: keep everything ([`MemorySink`]), keep
/// the most recent N ([`RingSink`]), or stream to disk ([`JsonlSink`]).
pub trait EventSink {
    /// Accept one record.
    fn record(&mut self, record: Record);

    /// Remove and return every buffered record, oldest first.
    ///
    /// Streaming sinks with no buffer return an empty vec.
    fn drain(&mut self) -> Vec<Record> {
        Vec::new()
    }

    /// Flush any underlying writer. Default: nothing to do.
    fn flush(&mut self) {}
}

/// Unbounded in-memory sink; feed its [`EventSink::drain`] output to
/// [`crate::provenance::reduce`].
#[derive(Debug, Default)]
pub struct MemorySink {
    records: Vec<Record>,
}

impl MemorySink {
    /// Create an empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for MemorySink {
    fn record(&mut self, record: Record) {
        self.records.push(record);
    }

    fn drain(&mut self) -> Vec<Record> {
        std::mem::take(&mut self.records)
    }
}

/// Bounded in-memory sink that keeps only the most recent `capacity`
/// records, counting how many older ones were evicted.
#[derive(Debug)]
pub struct RingSink {
    buf: Vec<Record>,
    capacity: usize,
    head: usize,
    dropped: u64,
}

impl RingSink {
    /// Create a ring holding at most `capacity` records.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "RingSink capacity must be non-zero");
        Self {
            buf: Vec::with_capacity(capacity.min(1024)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// How many records were evicted to make room for newer ones.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// How many records are currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

impl EventSink for RingSink {
    fn record(&mut self, record: Record) {
        if self.buf.len() < self.capacity {
            self.buf.push(record);
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn drain(&mut self) -> Vec<Record> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        self.buf.clear();
        self.head = 0;
        out
    }
}

/// Streams each record as one JSON line to an arbitrary writer.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap an existing writer.
    pub fn new(writer: W) -> Self {
        Self { writer }
    }

    /// Consume the sink and return the underlying writer.
    pub fn into_inner(self) -> W {
        self.writer
    }
}

impl JsonlSink<BufWriter<File>> {
    /// Create (truncating) a JSONL file at `path`.
    pub fn create<P: AsRef<Path>>(path: P) -> io::Result<Self> {
        Ok(Self::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, record: Record) {
        // Tracing is best-effort observability; a full disk should not
        // abort the simulation mid-run.
        let _ = writeln!(self.writer, "{}", to_json_line(&record));
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;

    fn rec(t_ns: u64, seq: u64) -> Record {
        Record {
            t_ns,
            event: Event::LossDetected { node: 1, seq },
        }
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_evictions() {
        let mut ring = RingSink::new(3);
        for i in 0..7 {
            ring.record(rec(i, i));
        }
        assert_eq!(ring.dropped(), 4);
        assert_eq!(ring.len(), 3);
        let kept = ring.drain();
        assert_eq!(
            kept.iter().map(|r| r.t_ns).collect::<Vec<_>>(),
            vec![4, 5, 6],
            "ring keeps the newest records in order"
        );
        assert!(ring.is_empty());
        // Refilling after drain starts fresh.
        ring.record(rec(9, 9));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(rec(10, 3));
        sink.record(rec(20, 4));
        sink.flush();
        let text = String::from_utf8(sink.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}
