//! The benchmark's span recorder.
//!
//! A traced run wraps each public call into a layer in a span: name,
//! start, end, parent span and op id. Spans stay in an in-memory arena and
//! are written once, as JSON lines, when the run ends. Per-layer self times
//! (a span's duration minus the part its children cover) derive from the
//! arena. Untraced runs pay one relaxed atomic load per call site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's trace epoch.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    op: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    /// The open spans of this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span arena poisoned by a panicking recorder")
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Whether this is a traced run.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span named `name` belonging to op `op`; the span's
/// parent is the innermost span open on this thread.
pub fn span<T>(name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let index = {
        let mut arena = spans();
        arena.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        arena.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(index));
    let out = f();
    OPEN.with(|open| open.borrow_mut().pop());
    let end_ns = now_ns();
    spans()[index].end_ns = end_ns;
    out
}

/// Self time of every recorded span, in milliseconds, grouped by name.
pub fn self_times_ms() -> BTreeMap<&'static str, Vec<f64>> {
    let arena = spans();
    let mut child_ns = vec![0u64; arena.len()];
    for span in arena.iter() {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, children) in arena.iter().zip(child_ns) {
        let self_ns = (span.end_ns - span.start_ns).saturating_sub(children);
        out.entry(span.name).or_default().push(self_ns as f64 / 1e6);
    }
    out
}

/// Writes every span as one JSON line to `path`.
pub fn write_jsonl(path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, span) in spans().iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
            span.name, span.start_ns, span.end_ns, span.op
        )?;
    }
    out.flush()
}
