//! In-memory spans around every call the driver makes into the system.
//!
//! Spans are recorded from the benchmark's own loop (nothing inside the engine
//! is instrumented), kept in a preallocated vector and written out once when
//! the run ends. With tracing off every method is one predictable branch.

use std::io::Write;
use std::time::Instant;

/// What a span covers. The discriminant is the index into [`NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// One iteration of the driver loop (the parent of every other span).
    Loop = 0,
    /// Producing one epoch's records (`xorshift` / `NexmarkGenerator::event`).
    Generate = 1,
    /// `InputHandle::send_batch`.
    Send = 2,
    /// `InputHandle::advance_to` on the data input.
    Advance = 3,
    /// `InputHandle::advance_to` on the control input.
    Control = 4,
    /// `MigrationController::advance`.
    Controller = 5,
    /// `Worker::step`; `arg` is 1 when the step reported activity.
    Step = 6,
    /// `ProbeHandle::less_than` polling and latency bookkeeping.
    Probe = 7,
    /// The driver sleeping because `Worker::step` found nothing to do.
    Idle = 8,
    /// `StorageHandle::checkpoint` (durable workload only).
    Checkpoint = 9,
}

/// Span names, indexed by [`Name`] discriminant.
pub const NAMES: [&str; 10] =
    ["loop", "generate", "send", "advance", "control", "controller", "step", "probe", "idle", "checkpoint"];

/// One recorded span. `parent` is the index of the enclosing span, or
/// `u32::MAX` for a root; `epoch` is the tick the driver was working on.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: Name,
    pub arg: u8,
    pub parent: u32,
    pub epoch: u32,
    pub start: u64,
    pub end: u64,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

const NO_SPAN: u32 = u32::MAX;

/// A per-worker span recorder.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    current: u32,
    dropped: u64,
}

impl Tracer {
    /// A recorder with room for `capacity` spans; `origin` is time zero.
    /// A capacity of zero makes a recorder that can never be switched on.
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Tracer { origin, on: false, spans: Vec::with_capacity(capacity), current: NO_SPAN, dropped: 0 }
    }

    /// Switches recording on or off (between spans only).
    pub fn set_on(&mut self, on: bool) {
        debug_assert_eq!(self.current, NO_SPAN, "toggle tracing between loop iterations");
        self.on = on && self.spans.capacity() > 0;
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, name: Name, epoch: u64) -> Open {
        if !self.on {
            return Open(NO_SPAN);
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return Open(NO_SPAN);
        }
        let index = self.spans.len() as u32;
        let start = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, arg: 0, parent: self.current, epoch: epoch as u32, start, end: start });
        self.current = index;
        Open(index)
    }

    /// Closes a span, attaching `arg`.
    #[inline]
    pub fn end(&mut self, open: Open, arg: u8) {
        if open.0 == NO_SPAN {
            return;
        }
        let end = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0 as usize];
        span.end = end;
        span.arg = arg;
        self.current = span.parent;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name self time (span minus its children) in nanoseconds over the
    /// spans starting in `[from, to)`.
    pub fn self_times(&self, from: u64, to: u64) -> [u64; NAMES.len()] {
        let mut totals = [0i64; NAMES.len()];
        for span in &self.spans {
            if span.start < from || span.start >= to {
                continue;
            }
            let duration = (span.end - span.start) as i64;
            totals[span.name as usize] += duration;
            if span.parent != NO_SPAN {
                totals[self.spans[span.parent as usize].name as usize] -= duration;
            }
        }
        totals.map(|total| total.max(0) as u64)
    }

    /// Writes the spans as JSON: a name table plus one row
    /// `[name, epoch, start_ns, end_ns, parent, arg]` per span.
    pub fn write_json(&self, path: &std::path::Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"dropped\": {},", self.dropped)?;
        writeln!(out, " \"names\": {:?},", NAMES)?;
        writeln!(out, " \"columns\": [\"name\", \"epoch\", \"start\", \"end\", \"parent\", \"arg\"],")?;
        writeln!(out, " \"spans\": [")?;
        for (index, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_SPAN { -1 } else { i64::from(span.parent) };
            let comma = if index + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "[{},{},{},{},{},{}]{comma}",
                span.name as u8, span.epoch, span.start, span.end, parent, span.arg
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        tracer.set_on(true);
        let outer = tracer.begin(Name::Loop, 1);
        let inner = tracer.begin(Name::Step, 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.end(inner, 1);
        tracer.end(outer, 0);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, 0);
        let totals = tracer.self_times(0, u64::MAX);
        let step = totals[Name::Step as usize];
        assert!(step >= 2_000_000);
        assert_eq!(totals[Name::Loop as usize], (spans[0].end - spans[0].start) - step);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(Instant::now(), 0);
        tracer.set_on(true);
        let open = tracer.begin(Name::Loop, 0);
        tracer.end(open, 0);
        assert!(tracer.spans().is_empty());
    }
}
