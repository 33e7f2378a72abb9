//! The workspace's one stage registry: where a run's time and
//! allocator events go, measured by spans in the loops that run — the
//! shard loop, replay, ddmin, the fabric's boundary and the paper's
//! pipeline — not in copies of them.
//!
//! A span ([`span`], or [`time`] around a closure) charges one run of
//! its [`Stage`] with the nanoseconds it was open and, when the binary
//! supplied an event counter to [`attach`], the counter's growth over
//! it (a counting global allocator's events, read on the span's own
//! thread). Spans nest and each row is inclusive: a `Boundary` row
//! holds the `Project` and `ProbeExec` runs of the minimizations it
//! drained.
//!
//! Rows go to a fixed-size table of the thread the span closed on, and
//! reach the sink when it is read ([`take`]) or when that thread exits
//! — scoped epoch threads come and go every boundary, and their rows
//! outlive them. The registry reads the clock; nothing a run computes
//! depends on what it reads.
//!
//! With no sink attached a span is one relaxed load and a branch: it
//! reads no clock, touches no thread-local and allocates nothing. Only
//! a function call attaches one — from a binary or a test; no config,
//! option or environment does.
//!
//! ```
//! use kgpt_syzlang::stage::{self, Stage};
//!
//! stage::attach(None);
//! for _ in 0..3 {
//!     let _span = stage::span(Stage::Parse);
//! }
//! stage::time(Stage::Slice, || ());
//! let rows = stage::take();
//! stage::detach();
//! assert_eq!(rows.get(Stage::Parse).runs, 3);
//! assert_eq!(rows.get(Stage::Slice).runs, 1);
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Declares [`Stage`] from one list: each variant with its doc and
/// its printed name, in table order.
macro_rules! stages {
    ($($(#[doc = $doc:literal])* $stage:ident = $name:literal,)*) => {
        /// A stage a span can charge, in table order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Stage {
            $($(#[doc = $doc])* $stage,)*
        }

        impl Stage {
            /// How many stages there are.
            pub const COUNT: usize = [$($name),*].len();

            /// Every stage, in table order.
            pub const ALL: [Stage; Stage::COUNT] = [$(Stage::$stage),*];

            /// The stage's name in a printed row.
            #[must_use]
            pub fn name(self) -> &'static str {
                [$($name),*][self as usize]
            }
        }
    };
}

stages! {
    /// The fuzzer's weighted corpus pick.
    Select = "select",
    /// A fresh program built in place.
    Generate = "generate",
    /// A mutant edited into its parent.
    Mutate = "mutate",
    /// A mutant's parent states found and restored.
    Restore = "restore",
    /// A campaign exec: a whole program, or a mutant from its parent's
    /// state.
    Exec = "exec",
    /// The corpus's admission test over an exec's block runs, and the
    /// coverage map of an exec it admits.
    Observe = "observe",
    /// A mutant's parent put back, the mutant copied out first when
    /// the corpus or a ring slot keeps it.
    Undo = "undo",
    /// The flight recorder filing an exec.
    Record = "record",
    /// A program admitted to the corpus.
    Admit = "admit",
    /// One trace encoded into its self-contained form.
    Seal = "seal",
    /// An in-process boundary closed: triage drain, hub exchange and,
    /// when due, a journal record written.
    Boundary = "boundary",
    /// A checkpoint base framed from live state.
    Frame = "frame",
    /// A durable boundary written: a journal record or a base.
    Journal = "journal",
    /// A replayed trace's program decoded and held to the suite.
    Decode = "decode",
    /// A replayed trace's recorded stream walked.
    Check = "check",
    /// A replayed trace's program executed.
    ReplayExec = "replay exec",
    /// A replay's live events compared with the recorded stream.
    Compare = "compare",
    /// A ddmin candidate built.
    Project = "project",
    /// A ddmin candidate executed.
    ProbeExec = "probe exec",
    /// A fabric worker's boundary written from live state.
    WriteBoundary = "write boundary",
    /// A boundary payload held to the committed state.
    Validate = "validate",
    /// A boundary payload committed in place.
    Commit = "commit",
    /// A fabric message framed or unframed.
    FrameCodec = "frame codec",
    /// A prompt cut into its sections.
    Slice = "slice",
    /// C source parsed.
    Parse = "parse",
    /// One request answered by the model.
    Chat = "chat",
    /// The merged suite validated and its errors routed.
    MergedValidation = "merged validation",
    /// The AST walk's generation, opened by a driver around the oracle.
    AstGenerate = "ast generate",
    /// The AST walk's exec, opened by a driver around the oracle.
    AstExec = "ast exec",
    /// The AST walk's mutation, opened by a driver around the oracle.
    AstMutate = "ast mutate",
}

/// What the spans of one stage added up to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// Spans closed.
    pub runs: u64,
    /// Nanoseconds they were open.
    pub ns: u64,
    /// Growth of the attached event counter over them (0 without one).
    pub events: u64,
}

/// One [`Row`] per [`Stage`], what [`take`] returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows([Row; Stage::COUNT]);

impl Rows {
    /// The row of `stage`.
    #[must_use]
    pub fn get(&self, stage: Stage) -> Row {
        self.0[stage as usize]
    }

    /// The stages some span charged, in table order, with their rows.
    pub fn iter(&self) -> impl Iterator<Item = (Stage, Row)> + '_ {
        Stage::ALL
            .into_iter()
            .zip(self.0)
            .filter(|(_, row)| row.runs > 0)
    }
}

/// One thread's rows: runs, ns and events per stage.
struct Table([[AtomicU64; 3]; Stage::COUNT]);

impl Table {
    /// Move every row into `rows`, leaving zeros.
    fn drain_into(&self, rows: &mut [Row; Stage::COUNT]) {
        for (row, cells) in rows.iter_mut().zip(&self.0) {
            row.runs += cells[0].swap(0, Relaxed);
            row.ns += cells[1].swap(0, Relaxed);
            row.events += cells[2].swap(0, Relaxed);
        }
    }
}

/// The rows of exited threads and of earlier reads, and the tables of
/// the threads that have charged a span and not exited.
struct Sink {
    rows: [Row; Stage::COUNT],
    live: Vec<Arc<Table>>,
}

const ZERO: Row = Row {
    runs: 0,
    ns: 0,
    events: 0,
};

static SINK: Mutex<Sink> = Mutex::new(Sink {
    rows: [ZERO; Stage::COUNT],
    live: Vec::new(),
});

/// Whether a sink is attached: the one thing a span reads when none is.
/// A flag that publishes no data, so `Relaxed`: a span racing an
/// `attach` or a `detach` is counted or not, and either is right.
static ON: AtomicBool = AtomicBool::new(false);

/// Whether the attached sink counts events.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The event counter: the first one attached in the process, which has
/// one global allocator to count.
static COUNTER: OnceLock<fn() -> u64> = OnceLock::new();

fn sink() -> MutexGuard<'static, Sink> {
    // Every update under the lock leaves the sink whole — a row added,
    // a table dropped from the list — so a poisoned lock is still good.
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The calling thread's table, registered with the sink on first use
/// and folded into it when the thread exits.
struct Local(Arc<Table>);

impl Drop for Local {
    fn drop(&mut self) {
        let mut sink = sink();
        self.0.drain_into(&mut sink.rows);
        sink.live.retain(|t| !Arc::ptr_eq(t, &self.0));
    }
}

thread_local! {
    static LOCAL: Local = {
        let table = Arc::new(Table(std::array::from_fn(|_| Default::default())));
        sink().live.push(Arc::clone(&table));
        Local(table)
    };
}

/// Attach the sink, emptied, and start recording. `events` is read
/// where each span opens and closes, on the span's thread: a binary
/// with a counting global allocator passes its per-thread event count
/// (the first counter passed in a process is the one read).
pub fn attach(events: Option<fn() -> u64>) {
    if let Some(f) = events {
        COUNTER.get_or_init(|| f);
    }
    COUNTING.store(events.is_some(), Relaxed);
    drop(take());
    ON.store(true, Relaxed);
}

/// Stop recording. Spans open now still close into their rows.
pub fn detach() {
    ON.store(false, Relaxed);
}

/// Fold every live thread's table into the sink and hand its rows
/// over, leaving it empty. Exact once the spans being counted have
/// closed — a campaign has returned, its threads have joined.
#[must_use]
pub fn take() -> Rows {
    let mut sink = sink();
    let Sink { rows, live } = &mut *sink;
    for table in live.iter() {
        table.drain_into(rows);
    }
    Rows(std::mem::replace(rows, [ZERO; Stage::COUNT]))
}

/// A span of `stage`, open until dropped.
#[must_use = "a span measures until it is dropped"]
pub struct Span(Option<Open>);

struct Open {
    stage: Stage,
    events: Option<(fn() -> u64, u64)>,
    at: Instant,
}

/// Open a span of `stage`: with no sink attached, one relaxed load.
#[inline]
pub fn span(stage: Stage) -> Span {
    if ON.load(Relaxed) {
        open(stage)
    } else {
        Span(None)
    }
}

/// Run `f` inside a span of `stage`.
#[inline]
pub fn time<R>(stage: Stage, f: impl FnOnce() -> R) -> R {
    let _span = span(stage);
    f()
}

#[cold]
#[inline(never)]
fn open(stage: Stage) -> Span {
    // Register the thread's table before the counter is read: that
    // allocation is the registry's, not the stage's.
    let _ = LOCAL.try_with(|_| ());
    let counter = COUNTER.get().copied().filter(|_| COUNTING.load(Relaxed));
    Span(Some(Open {
        stage,
        events: counter.map(|f| (f, f())),
        at: Instant::now(),
    }))
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(open) = self.0.take() {
            close(&open);
        }
    }
}

#[cold]
#[inline(never)]
fn close(open: &Open) {
    let ns = u64::try_from(open.at.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let events = open
        .events
        .map_or(0, |(f, before)| f().wrapping_sub(before));
    // A thread past its teardown has no table: its span goes uncounted.
    let _ = LOCAL.try_with(|local| {
        let cells = &local.0 .0[open.stage as usize];
        cells[0].fetch_add(1, Relaxed);
        cells[1].fetch_add(ns, Relaxed);
        cells[2].fetch_add(events, Relaxed);
    });
}
