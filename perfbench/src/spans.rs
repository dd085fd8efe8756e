//! The span recorder of the traced run.
//!
//! A span is one call into a layer's public function, made from the
//! benchmark's own code: its name (`<layer>.<call>`), start and end in
//! nanoseconds since the recorder started, the span that was open on the
//! same thread when it began (its parent), the trial it belongs to, and
//! the recording thread. Spans are kept in memory and written out as
//! JSON when the run ends. With tracing off, [`span`] is a direct call.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

use ccrp_bench::runner::parallel_map;

use crate::metrics::LAYERS;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id, in opening order.
    pub id: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since [`init`].
    pub start: u64,
    /// Nanoseconds since [`init`].
    pub end: u64,
    /// The span open on this thread when this one began.
    pub parent: Option<u64>,
    /// The trial (or pass) this span worked for.
    pub trial: Option<u64>,
    /// Recording thread, numbered in first-use order (0 = main).
    pub thread: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    /// The layer the span is attributed to (the name up to the first dot).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(0);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TRIAL: Cell<Option<u64>> = const { Cell::new(None) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Starts the recorder; call once, on the main thread, before any span.
pub fn init() {
    EPOCH.get_or_init(Instant::now);
    THREAD.with(|_| ());
}

/// Turns recording on or off (the traced run records only its traced half).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Nanoseconds since [`init`].
pub fn now() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name` (a direct call when recording is
/// off).
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    let start = now();
    let value = f();
    let end = now();
    OPEN.with(|open| open.borrow_mut().retain(|&open_id| open_id != id));
    let span = Span {
        id,
        name,
        start,
        end,
        parent,
        trial: TRIAL.with(Cell::get),
        thread: THREAD.with(|t| *t),
    };
    CLOSED.lock().expect("span list lock").push(span);
    value
}

/// Runs `f` with every span it opens on this thread tagged with `trial`.
pub fn with_trial<T>(trial: u64, f: impl FnOnce() -> T) -> T {
    let outer = TRIAL.with(|t| t.replace(Some(trial)));
    let value = f();
    TRIAL.with(|t| t.set(outer));
    value
}

/// The innermost span open on this thread, and its trial.
fn current() -> (Option<u64>, Option<u64>) {
    (
        OPEN.with(|open| open.borrow().last().copied()),
        TRIAL.with(Cell::get),
    )
}

/// Runs `f` (on a worker thread) as if inside the span and trial that
/// [`current`] returned on the thread that handed it the work.
fn adopt<T>((parent, trial): (Option<u64>, Option<u64>), f: impl FnOnce() -> T) -> T {
    let outer = TRIAL.with(|t| t.replace(trial));
    if let Some(parent) = parent {
        OPEN.with(|open| open.borrow_mut().push(parent));
    }
    let value = f();
    if parent.is_some() {
        OPEN.with(|open| open.borrow_mut().pop());
    }
    TRIAL.with(|t| t.set(outer));
    value
}

/// `parallel_map` on a fixed worker count, inside a `bench.parallel_map`
/// span whose children are the spans the workers open. Keeps the busy
/// time of the items against the workers' wall time.
pub struct Pool {
    jobs: usize,
    items: Duration,
    capacity: Duration,
}

impl Pool {
    /// A pool of `jobs` workers.
    pub fn new(jobs: usize) -> Pool {
        Pool {
            jobs,
            items: Duration::ZERO,
            capacity: Duration::ZERO,
        }
    }

    /// Maps `f` over `items`, returning each result with its duration
    /// and the call's wall time.
    pub fn map<I: Sync, T: Send>(
        &mut self,
        items: &[I],
        f: impl Fn(&I) -> T + Sync,
    ) -> (Vec<(T, Duration)>, Duration) {
        let start = Instant::now();
        let results = span("bench.parallel_map", || {
            let parent = current();
            parallel_map(self.jobs, items, |item| adopt(parent, || f(item)))
        });
        let wall = start.elapsed();
        self.capacity += wall * self.jobs.clamp(1, items.len().max(1)) as u32;
        self.items += results.iter().map(|(_, took)| *took).sum::<Duration>();
        (results, wall)
    }

    /// Summed item time over workers × wall time, across every call.
    pub fn busy_ratio(&self) -> f64 {
        self.items.as_secs_f64() / self.capacity.as_secs_f64()
    }
}

/// A copy of every span closed so far, in closing order.
pub fn snapshot() -> Vec<Span> {
    CLOSED.lock().expect("span list lock").clone()
}

/// Per-name totals over `spans`: (count, total ns, self ns). Self time
/// is a span's duration minus the part of it its child spans cover.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let children = child_time(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration();
        entry.2 += span
            .duration()
            .saturating_sub(*children.get(&span.id).unwrap_or(&0));
    }
    totals
}

/// Self time per layer over `spans`, in nanoseconds, for every layer of
/// [`LAYERS`].
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let children = child_time(spans);
    let mut layers: BTreeMap<&'static str, u64> = LAYERS.iter().map(|&l| (l, 0)).collect();
    for span in spans {
        let own = span
            .duration()
            .saturating_sub(*children.get(&span.id).unwrap_or(&0));
        *layers
            .get_mut(span.layer())
            .unwrap_or_else(|| panic!("span {} names no layer", span.name)) += own;
    }
    layers
}

/// Share (0..=1) of the traced time in `[from, to)` spent inside the
/// program's layers: the self time of every non-`bench` span, over that
/// plus the benchmark's own time — the self time of `bench` spans and
/// the part of the window no root span on the main thread covers.
pub fn coverage(spans: &[Span], from: u64, to: u64) -> f64 {
    let window: Vec<Span> = spans
        .iter()
        .filter(|s| s.start >= from && s.end <= to)
        .cloned()
        .collect();
    let layers = self_by_layer(&window);
    let bench = layers.get("bench").copied().unwrap_or(0);
    let program: u64 = layers.values().sum::<u64>() - bench;
    let mut roots: Vec<(u64, u64)> = window
        .iter()
        .filter(|s| s.thread == 0 && s.parent.is_none())
        .map(|s| (s.start, s.end))
        .collect();
    roots.sort_unstable();
    let (mut covered, mut reach) = (0, from);
    for (a, b) in roots {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    let uncovered = (to - from).saturating_sub(covered);
    program as f64 / (program + bench + uncovered).max(1) as f64
}

fn child_time(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, u64> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *children.entry(parent).or_default() += span.duration();
        }
    }
    children
}

/// Writes every recorded span, and the per-name and per-layer totals, to
/// `path` as JSON.
pub fn write_out(path: &str) -> std::io::Result<()> {
    let spans = snapshot();
    let mut out = String::from("{\n  \"layers_self_ns\": {");
    let layers = self_by_layer(&spans);
    let layer_items: Vec<String> = layers
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {ns}"))
        .collect();
    out.push_str(&layer_items.join(", "));
    out.push_str("},\n  \"names\": {\n");
    let name_items: Vec<String> = by_name(&spans)
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "    \"{name}\": {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            )
        })
        .collect();
    out.push_str(&name_items.join(",\n"));
    out.push_str("\n  },\n  \"spans\": [\n");
    let span_items: Vec<String> = spans
        .iter()
        .map(|s| {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            format!(
                "    {{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"trial\": {}, \"thread\": {}}}",
                s.id,
                s.name,
                s.start,
                s.end,
                opt(s.parent),
                opt(s.trial),
                s.thread
            )
        })
        .collect();
    out.push_str(&span_items.join(",\n"));
    out.push_str("\n  ]\n}\n");
    if let Some(dir) = Path::new(path).parent() {
        fs::create_dir_all(dir)?;
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start,
            end,
            parent,
            trial: None,
            thread: u64::from(parent.is_some()),
        }
    }

    #[test]
    fn self_time_and_coverage() {
        let spans = [
            span(0, "bench.parallel_map", 0, 100, None),
            span(1, "sim.replay_sweep", 10, 60, Some(0)),
            span(2, "core.image_build", 20, 30, Some(1)),
        ];
        let layers = self_by_layer(&spans);
        assert_eq!(
            (layers["bench"], layers["sim"], layers["core"]),
            (50, 40, 10)
        );
        assert_eq!(by_name(&spans)["sim.replay_sweep"], (1, 50, 40));
        // Program layers: 50 ns; the benchmark's own: 50 ns of
        // `bench` self time plus 20 ns of the window outside any span.
        assert_eq!(coverage(&spans, 0, 120), 50.0 / 120.0);
    }
}
