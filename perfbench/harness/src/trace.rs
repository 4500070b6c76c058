//! In-memory span recorder for the traced run.
//!
//! Each load thread owns a [`Tracer`]; spans are plain records pushed to
//! a `Vec` and written out as JSONL when the run ends, so recording costs
//! two clock reads and one push. A span names the layer it covers, its
//! parent span and the request (session) it belongs to.
//!
//! Some spans are *reconstructed*: work that happens inside the daemon,
//! where this benchmark cannot reach, is replayed through the same public
//! functions next to the measured call, and the replay's span is filed
//! under the measured span it stands in for. Reconstructed spans do not
//! lie inside their parent's interval, so [`self_times`] subtracts child
//! *durations* rather than interval overlap. Measured children of one
//! span run sequentially on one thread and never overlap, so for them the
//! two are the same.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use rfid_system::Json;

use crate::Outcome;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub reconstructed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids are unique across `thread` values.
    pub fn new(epoch: Instant, thread: u64) -> Tracer {
        Tracer {
            epoch,
            id_base: thread << 40,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a measured span starting now.
    pub fn open(&mut self, name: &'static str, parent: Option<u64>, request: u64) -> u64 {
        let at = self.now();
        self.open_at(name, parent, request, at, false)
    }

    /// Opens a reconstructed span starting now.
    pub fn open_replay(&mut self, name: &'static str, parent: u64, request: u64) -> u64 {
        let at = self.now();
        self.open_at(name, Some(parent), request, at, true)
    }

    /// Opens a span with an explicit start time.
    pub fn open_at(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        start_ns: u64,
        reconstructed: bool,
    ) -> u64 {
        let id = self.id_base + self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns: start_ns,
            reconstructed,
        });
        id
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: u64) {
        let at = self.now();
        self.close_at(id, at);
    }

    /// Closes span `id` at an explicit time.
    pub fn close_at(&mut self, id: u64, end_ns: u64) {
        let slot = (id - self.id_base) as usize;
        self.spans[slot].end_ns = end_ns;
    }

    /// Runs `f` inside a reconstructed span under `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open_replay(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a measured span under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Drops every span of `request` (a session that failed part-way is
    /// left out of the layer attribution).
    pub fn forget(&mut self, request: u64) {
        while self.spans.last().is_some_and(|s| s.request == request) {
            self.spans.pop();
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span id: the span's duration minus its children's
/// durations. Summed over every span below a root, self times telescope
/// to the root's duration exactly.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut selfs: HashMap<u64, f64> = spans.iter().map(|s| (s.id, s.dur_ns() as f64)).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            if let Some(v) = selfs.get_mut(&parent) {
                *v -= s.dur_ns() as f64;
            }
        }
    }
    selfs
}

/// Sums self time (µs) by span name.
pub fn self_us_by_name(spans: &[Span]) -> HashMap<&'static str, f64> {
    let selfs = self_times(spans);
    let mut out: HashMap<&'static str, f64> = HashMap::new();
    for s in spans {
        *out.entry(s.name).or_default() += selfs[&s.id] / 1e3;
    }
    out
}

/// Total duration (µs) and count of the spans named `name`.
pub fn total_us(spans: &[Span], name: &str) -> (f64, u64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, n), s| (t + s.dur_ns() as f64 / 1e3, n + 1))
}

/// Spans written out per run; the metrics use every span, the file
/// keeps the first ones (a traced `serve_small` run records ~700 000).
const MAX_WRITTEN: usize = 200_000;

/// Writes the spans to `<dir>/spans-<name>.jsonl` and notes the file, the
/// span count and how many were written in `out`'s detail block.
pub fn save(out: &mut Outcome, dir: &Path, name: &str, spans: &[Span]) {
    let path = dir.join(format!("spans-{name}.jsonl"));
    let written = &spans[..spans.len().min(MAX_WRITTEN)];
    if let Err(e) = write_jsonl(&path, written) {
        eprintln!("perfbench-harness: cannot write {}: {e}", path.display());
    }
    out.detail("spans_file", Json::str(path.display().to_string()));
    out.detail("spans", Json::UInt(spans.len() as u64));
    out.detail("spans_written", Json::UInt(written.len() as u64));
}

/// Writes every span as one JSON line.
fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"reconstructed\":{}}}",
            s.id, parent, s.name, s.request, s.start_ns, s.end_ns, s.reconstructed
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_telescope_to_the_root() {
        let spans = vec![
            Span {
                id: 1,
                parent: None,
                name: "session",
                request: 0,
                start_ns: 0,
                end_ns: 100,
                reconstructed: false,
            },
            Span {
                id: 2,
                parent: Some(1),
                name: "rpc",
                request: 0,
                start_ns: 10,
                end_ns: 90,
                reconstructed: false,
            },
            Span {
                id: 3,
                parent: Some(2),
                name: "handle",
                request: 0,
                start_ns: 200,
                end_ns: 250,
                reconstructed: true,
            },
        ];
        let by_name = self_us_by_name(&spans);
        assert_eq!(by_name["session"], 0.02);
        assert_eq!(by_name["rpc"], 0.03);
        assert_eq!(by_name["handle"], 0.05);
        let sum: f64 = by_name.values().sum();
        assert!((sum - 0.1).abs() < 1e-12);
    }
}
