//! In-memory span recorder for the traced run, with Chrome trace-event
//! export and per-span self time.
//!
//! Spans are recorded from the benchmark's own code around calls into the
//! library; nothing inside the program is instrumented. Recording is off
//! by default and switched per measurement block with [`set_enabled`], so
//! the untraced blocks of a traced run pay one relaxed atomic load per
//! call site.
//!
//! Each thread appends to its own buffer (pool workers record chunk
//! decodes concurrently), registered once in a global list so
//! [`drain`] can collect every thread's spans at the end of the run. A
//! buffer's mutex is only contended while draining.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.step`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the span that caused this one; 0 for a root span.
    pub parent: u64,
    /// The frame this span belongs to (the server step on the served
    /// workload, where one step advances many frames).
    pub frame: u64,
    /// Recording thread, numbered in first-use order.
    pub thread: u32,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Free-form payload (bytes decoded for `io.decode`, else 0).
    pub arg: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

type Buffer = Arc<Mutex<Vec<Span>>>;

fn registry() -> &'static Mutex<Vec<Buffer>> {
    static REGISTRY: OnceLock<Mutex<Vec<Buffer>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

thread_local! {
    static LOCAL: (u32, Buffer) = {
        let buffer: Buffer = Arc::new(Mutex::new(Vec::new()));
        registry()
            .lock()
            .expect("trace registry poisoned by a panicking recorder")
            .push(Arc::clone(&buffer));
        (NEXT_THREAD.fetch_add(1, Ordering::Relaxed) as u32, buffer)
    };
}

/// Switch recording on or off for subsequent spans.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// An open span; records itself when dropped. Inert when recording was
/// off at [`Guard::open`].
#[must_use = "a span ends when its guard drops"]
pub struct Guard {
    live: Option<Span>,
}

impl Guard {
    /// Open a span named `name` under `parent` for `frame`. Reads no clock
    /// when recording is off.
    pub fn open(name: &'static str, parent: u64, frame: u64) -> Self {
        if !enabled() {
            return Self { live: None };
        }
        Self {
            live: Some(Span {
                name,
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                parent,
                frame,
                thread: 0,
                start_ns: now_ns(),
                end_ns: 0,
                arg: 0,
            }),
        }
    }

    /// The span's id (0 when inert), for parenting child spans.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |s| s.id)
    }

    /// Attach a payload value.
    pub fn set_arg(&mut self, arg: u64) {
        if let Some(s) = &mut self.live {
            s.arg = arg;
        }
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(mut span) = self.live.take() {
            span.end_ns = now_ns();
            LOCAL.with(|(thread, buffer)| {
                span.thread = *thread;
                // A poisoned buffer only means a recording thread panicked
                // mid-push; the spans already stored are intact.
                let mut spans = buffer.lock().unwrap_or_else(|p| p.into_inner());
                spans.push(span);
            });
        }
    }
}

/// Publish `(parent span, frame)` as the context for spans opened on other
/// threads that cannot be handed a parent directly (chunk decodes run on
/// pool workers inside a server step). Process-wide.
pub fn set_context(parent: u64, frame: u64) {
    CONTEXT_PARENT.store(parent, Ordering::Relaxed);
    CONTEXT_FRAME.store(frame, Ordering::Relaxed);
}

static CONTEXT_PARENT: AtomicU64 = AtomicU64::new(0);
static CONTEXT_FRAME: AtomicU64 = AtomicU64::new(0);

/// The context published by [`set_context`].
pub fn context() -> (u64, u64) {
    (
        CONTEXT_PARENT.load(Ordering::Relaxed),
        CONTEXT_FRAME.load(Ordering::Relaxed),
    )
}

/// Take every span recorded so far, from every thread, sorted by start.
pub fn drain() -> Vec<Span> {
    let buffers = registry()
        .lock()
        .expect("trace registry poisoned by a panicking recorder")
        .clone();
    let mut out = Vec::new();
    for buffer in buffers {
        out.append(&mut buffer.lock().unwrap_or_else(|p| p.into_inner()));
    }
    out.sort_by_key(|s| (s.start_ns, s.id));
    out
}

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may run
/// concurrently on several threads, so overlaps count once). Returned in
/// the order of `spans`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered.min(s.dur_ns())
        })
        .collect()
}

/// Chrome trace-event JSON (complete `X` events, microsecond timestamps)
/// for `spans`; Perfetto and `chrome://tracing` open it offline.
pub fn chrome_json(spans: &[Span], label: &str) -> String {
    let mut out = String::with_capacity(spans.len() * 160 + 128);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"");
    out.push_str(&label.replace(['"', '\\'], "_"));
    out.push_str("\"},\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let layer = s.name.split('.').next().unwrap_or(s.name);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"frame\":{},\"arg\":{}}}}}",
            s.name,
            layer,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.frame,
            s.arg
        ));
    }
    out.push_str("\n]}\n");
    out
}
