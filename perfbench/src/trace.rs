//! In-memory spans, written out when the benchmark ends.
//!
//! A span is one request (`session`, `seq`) crossing one layer boundary.
//! Layers are timed from outside the program, one level per pass over
//! the same captured inputs, so a span's parent is the same request's
//! span one level further out.

use std::io::Write;
use std::path::Path;

/// Spans a traced phase keeps; later requests are not recorded.
pub const MAX_SPANS: usize = 100_000;

/// One timed request at one layer.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the pass's own origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    pub session: u64,
    pub seq: u32,
}

/// Writes `spans` as tab-separated lines: index, name, start, end,
/// parent (-1 for none), session, seq.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "index\tname\tstart_ns\tend_ns\tparent\tsession\tseq")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, |p| p as i64);
        writeln!(
            out,
            "{i}\t{}\t{}\t{}\t{parent}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, s.session, s.seq
        )?;
    }
    out.flush()
}
