//! In-memory spans for the traced run.
//!
//! Each load thread owns a [`Tracer`] and records one span per public call
//! it makes into the program, under a root span per request. Spans stay in
//! memory while the run measures and are written out once at exit. A
//! disabled tracer records nothing and reads no clock.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans one tracer keeps at most; later spans are counted as dropped, so a
/// long traced run cannot exhaust memory.
const MAX_SPANS: usize = 1_000_000;

/// One finished span. Times are nanoseconds since the run's shared origin.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique within the run: the tracer's tag in the top 8 bits.
    pub id: u64,
    /// The span that caused this one (0 for a root).
    pub parent: u64,
    /// The request this span belongs to; a request's spans share it.
    pub req: u64,
    /// Layer and call, e.g. `service.submit`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    tag: u64,
    next: u64,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    /// A tracer that records spans when `on`, with times measured from
    /// `origin` (shared by every tracer of the run); `tag` (1..=255) keeps
    /// span ids of different threads apart. An off tracer records nothing
    /// and reads no clock.
    pub fn new(on: bool, origin: Instant, tag: u8) -> Tracer {
        Tracer {
            origin: on.then_some(origin),
            tag: u64::from(tag) << 56,
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.origin.is_some()
    }

    /// Nanoseconds since the origin of `at` (0 when off).
    fn ns(&self, at: Instant) -> u64 {
        self.origin
            .map_or(0, |o| at.saturating_duration_since(o).as_nanos() as u64)
    }

    /// Record a finished span; returns its id (0 when off or full), for
    /// use as the parent of spans recorded after it.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.is_on() {
            return 0;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return 0;
        }
        self.next += 1;
        let id = self.tag | self.next;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Reserve an id for a root span whose end is not known yet, so its
    /// children can name it before it is recorded with [`Self::close`].
    pub fn reserve(&mut self) -> u64 {
        if !self.is_on() {
            return 0;
        }
        self.next += 1;
        self.tag | self.next
    }

    /// Record a span under an id from [`Self::reserve`].
    pub fn close(&mut self, id: u64, name: &'static str, req: u64, start: Instant, end: Instant) {
        if id == 0 {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent: 0,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans not recorded because the tracer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Write every span of `tracers` to `path`, one tab-separated line each:
/// `id parent req name start_ns end_ns`.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> Result<(), String> {
    let err = |e: std::io::Error| format!("write {}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(err)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
    writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns").map_err(err)?;
    for t in tracers {
        for s in t.spans() {
            writeln!(
                w,
                "{:x}\t{:x}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
    }
    w.flush().map_err(err)
}
