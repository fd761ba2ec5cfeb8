//! Event sinks: where a capturing [`Instruments`](crate::Instruments)
//! handle stores its records. The bounded "most recent N" ring that runs
//! is [`FlightRecorder`](crate::FlightRecorder), a consumer of its own
//! ahead of the sink; JSONL files are written from drained records by
//! [`to_json_line`](crate::to_json_line).

use crate::event::Record;

/// Destination for trace [`Record`]s.
///
/// Implementations decide retention: keep everything ([`MemorySink`]) or
/// filter on the way in (the harness' divergence-window sink).
pub trait EventSink {
    /// Accept one record.
    fn record(&mut self, record: Record);

    /// Remove and return every buffered record, oldest first. Sinks that
    /// keep nothing return an empty vec.
    fn drain(&mut self) -> Vec<Record> {
        Vec::new()
    }
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
