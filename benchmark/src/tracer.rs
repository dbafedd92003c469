//! Tracing done from the benchmark's own files: an in-memory span list, a
//! [`MappingProblem`] wrapper that times and counts `evaluate`, and the
//! counting allocator the traced binary installs.

use magma_m3e::{JobProfile, Mapping, MappingProblem};
use magma_model::{JobSignature, TaskType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Spans of one search, request or simulation share
/// the identifier of their root (`root`), and `parent` names the span that
/// caused this one (`None` for a root).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub root: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let id = self.spans.len();
        let root = parent.map_or(id, |p| self.spans[p].root);
        let now = self.now_ns();
        self.spans.push(Span { name, root, parent, start_ns: now, end_ns: now });
        id
    }

    /// Closes span `id` now and returns its duration in nanoseconds.
    pub fn end(&mut self, id: usize) -> u64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Records a span whose interval was measured elsewhere (offsets from
    /// `since`, which must not precede this tracer's creation).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        since: Instant,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        let base = since.saturating_duration_since(self.origin).as_nanos() as u64;
        let id = self.begin(name, parent);
        self.spans[id].start_ns = base + start_ns;
        self.spans[id].end_ns = base + end_ns;
        id
    }

    /// Spans recorded so far.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes the spans as one JSON array to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"root\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}{comma}",
                s.root, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// How many evaluated mappings [`Traced`] keeps for the kernel ladder.
pub const RESERVOIR: usize = 512;

struct Seen {
    genomes: HashSet<u64>,
    reservoir: Vec<Mapping>,
}

/// Delegates every [`MappingProblem`] method to `P`; `evaluate` additionally
/// sums its time and call count, hashes each genome to count duplicates and
/// keeps every `stride`-th mapping for the kernel ladder. It must not change
/// any result — the traced search is checked against the untraced one.
pub struct Traced<'a, P: MappingProblem> {
    inner: &'a P,
    stride: u64,
    eval_ns: AtomicU64,
    calls: AtomicU64,
    seen: Mutex<Seen>,
}

impl<'a, P: MappingProblem> Traced<'a, P> {
    /// Wraps `inner` for a search of about `expected_calls` evaluations.
    pub fn new(inner: &'a P, expected_calls: usize) -> Self {
        Traced {
            inner,
            stride: (expected_calls / RESERVOIR).max(1) as u64,
            eval_ns: AtomicU64::new(0),
            calls: AtomicU64::new(0),
            seen: Mutex::new(Seen { genomes: HashSet::new(), reservoir: Vec::new() }),
        }
    }

    /// Nanoseconds spent inside the wrapped `evaluate` so far.
    pub fn eval_ns(&self) -> u64 {
        self.eval_ns.load(Ordering::Relaxed)
    }

    /// `evaluate` calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Calls whose genome had been evaluated before, and the kept mappings.
    pub fn finish(self) -> (u64, Vec<Mapping>) {
        let calls = self.calls();
        let seen = self.seen.into_inner().expect("no evaluate panicked");
        (calls - seen.genomes.len() as u64, seen.reservoir)
    }
}

fn genome_hash(mapping: &Mapping) -> u64 {
    let mut h = DefaultHasher::new();
    mapping.accel_sel().hash(&mut h);
    for p in mapping.priority() {
        p.to_bits().hash(&mut h);
    }
    h.finish()
}

impl<P: MappingProblem> MappingProblem for Traced<'_, P> {
    fn num_jobs(&self) -> usize {
        self.inner.num_jobs()
    }

    fn num_accels(&self) -> usize {
        self.inner.num_accels()
    }

    fn evaluate(&self, mapping: &Mapping) -> f64 {
        let t = Instant::now();
        let fitness = self.inner.evaluate(mapping);
        self.eval_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut seen = self.seen.lock().expect("no evaluate panicked");
        seen.genomes.insert(genome_hash(mapping));
        if call.is_multiple_of(self.stride) && seen.reservoir.len() < RESERVOIR {
            seen.reservoir.push(mapping.clone());
        }
        fitness
    }

    fn task_type(&self) -> Option<TaskType> {
        self.inner.task_type()
    }

    fn profile(&self, job: usize, accel: usize) -> Option<JobProfile> {
        self.inner.profile(job, accel)
    }

    fn signatures(&self) -> Option<&[JobSignature]> {
        self.inner.signatures()
    }
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator with a call counter in front. Only the traced binary
/// installs it, so end-to-end runs never pay for the counter.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocator calls made by the process so far (0 unless [`CountingAlloc`]
/// is installed).
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
