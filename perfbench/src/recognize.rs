//! The `recognize` workload: session streams fed event by event through
//! one `SessionPipeline`, in process and on one thread, with no
//! transport. The pipeline is recycled between sessions the way a shard
//! worker recycles it.

use std::time::{Duration, Instant};

use grandma_core::EagerRecognizer;
use grandma_serve::{encode_server, PipelineConfig, ServerFrame, SessionPipeline};

use crate::inputs::{frame_ids, Inputs};
use crate::measure::{Chunk, Chunker};
use crate::trace::{Span, MAX_SPANS};

/// Time the feed call of every `SAMPLE_EVERY`-th answered event, counted
/// across sessions so every position in a stream is sampled alike.
const SAMPLE_EVERY: u64 = 37;

pub struct RecognizeResult {
    pub chunks: Vec<Chunk>,
    pub attempted: u64,
    pub failed: u64,
    pub spans: Vec<Span>,
}

/// Verifies every stream against its reference, warms up for `warmup`,
/// then measures for `measure`.
pub fn run(
    rec: &EagerRecognizer,
    inputs: &Inputs,
    config: &PipelineConfig,
    warmup: Duration,
    measure: Duration,
    trace: bool,
) -> RecognizeResult {
    let mut pipeline = SessionPipeline::new(0, config.clone());
    let mut out: Vec<ServerFrame> = Vec::new();
    let mut wire = Vec::new();
    let mut result = RecognizeResult {
        chunks: Vec::new(),
        attempted: 0,
        failed: 0,
        spans: Vec::new(),
    };
    // Verification pass: every stream's frames, byte for byte.
    for s in &inputs.streams {
        pipeline.recycle(0);
        out.clear();
        for &(seq, event) in &s.events {
            pipeline.feed(rec, seq, event, &mut out);
        }
        pipeline.close(rec, s.close_seq, &mut out);
        wire.clear();
        for f in &out {
            encode_server(f, &mut wire);
        }
        result.attempted += 1;
        if wire != s.ref_wire {
            result.failed += 1;
        }
    }
    // The feed calls that commit a class (`Recognized`) are always timed.
    let commits: Vec<Vec<bool>> = inputs
        .streams
        .iter()
        .map(|s| {
            let mut at = vec![false; s.events.len()];
            for f in &s.reference {
                if let ServerFrame::Recognized { .. } = f {
                    if let Some(flag) = at.get_mut(frame_ids(f).1 as usize) {
                        *flag = true;
                    }
                }
            }
            at
        })
        .collect();
    let mut answered = 0u64;

    let warm_until = Instant::now() + warmup;
    let mut k = 0usize;
    let mut chunker: Option<Chunker> = None;
    let mut measure_until = None;
    let origin = Instant::now();
    loop {
        let now = Instant::now();
        if chunker.is_none() && now >= warm_until {
            chunker = Some(Chunker::new());
            measure_until = Some(now + measure);
        }
        if measure_until.is_some_and(|until| now >= until) {
            break;
        }
        let index = k % inputs.streams.len();
        let s = &inputs.streams[index];
        let commit = &commits[index];
        pipeline.recycle(k as u64);
        out.clear();
        for (i, &(seq, event)) in s.events.iter().enumerate() {
            let sampled = s.replied[i] && {
                answered += 1;
                answered.is_multiple_of(SAMPLE_EVERY)
            };
            match chunker.as_mut() {
                Some(c) if sampled || commit[i] => {
                    let start = Instant::now();
                    pipeline.feed(rec, seq, event, &mut out);
                    let end = Instant::now();
                    let lat = end.duration_since(start).as_nanos() as f64;
                    if sampled {
                        c.current().feedback_ns.push(lat);
                    }
                    if commit[i] {
                        c.current().recognized_ns.push(lat);
                    }
                    if trace && result.spans.len() < MAX_SPANS {
                        result.spans.push(Span {
                            name: "pipeline.feed",
                            start_ns: start.duration_since(origin).as_nanos() as u64,
                            end_ns: end.duration_since(origin).as_nanos() as u64,
                            parent: None,
                            session: k as u64,
                            seq,
                        });
                    }
                }
                _ => {
                    pipeline.feed(rec, seq, event, &mut out);
                }
            }
        }
        pipeline.close(rec, s.close_seq, &mut out);
        if let Some(c) = chunker.as_mut() {
            result.attempted += 1;
            if out.len() != s.reference.len() {
                result.failed += 1;
            }
            c.current().sessions += 1;
            c.current().points += s.points;
            c.tick(Instant::now());
        }
        k += 1;
    }
    if let Some(c) = chunker {
        result.chunks = c.finish();
    }
    result
}
