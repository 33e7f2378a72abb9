//! Which function a run's CPU time goes to: a sampling profiler for the
//! workspace's own binaries, beside the stage registry
//! (`kgpt_syzlang::stage`), which answers "which stage".
//!
//! [`Sampler::start`] arms a process-wide `ITIMER_PROF` timer; each
//! `SIGPROF` it raises lands on the thread that was burning CPU, whose
//! handler stores the interrupted program counter into a ring allocated
//! up front — an atomic increment and a store, no allocation, no lock,
//! nothing that is not async-signal-safe. [`Sampler::stop`] disarms the
//! timer and hands back the PCs; [`Profile::rows`] symbolises them
//! through binutils' `addr2line -f -i -C` (found on `PATH`), the
//! inline chain included, so a row is a function with its **self**
//! share (the innermost frame of a sample) and its **inclusive** share
//! (any frame of the sample's inline chain). PCs outside the
//! executable are charged to the object they fall in (`[libc.so.6]`).
//!
//! Only a function call attaches it: no option, variable or feature
//! does, and a binary that never calls [`Sampler::start`] installs no
//! handler. It reads the interrupted context's `RIP`, so it samples on
//! x86-64 Linux only; elsewhere [`Sampler::start`] says so.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::time::Duration;

/// CPU time between samples. On a single-threaded run the timer fires
/// no faster than the kernel's tick.
pub const PERIOD: Duration = Duration::from_millis(1);
/// Samples a sampler keeps; later ones are counted as dropped.
pub const CAPACITY: usize = 1 << 20;

/// The ring the handler stores into: null while no sampler runs.
static RING: AtomicPtr<AtomicUsize> = AtomicPtr::new(std::ptr::null_mut());
/// Slots in [`RING`].
static CAP: AtomicUsize = AtomicUsize::new(0);
/// Samples taken, stored or not (past [`CAP`] they are dropped).
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// Handlers running just now, on any thread.
static IN_HANDLER: AtomicUsize = AtomicUsize::new(0);
/// Whether a sampler is running: at most one at a time.
static ACTIVE: AtomicBool = AtomicBool::new(false);

// Orderings: every access is `SeqCst`. A handler counts itself in
// (`IN_HANDLER`) before it reads `RING`; a stopper nulls `RING` before
// it reads `IN_HANDLER`. So either the handler sees null and stores
// nothing, or the stopper sees it running and waits for it — and the
// handler's count out, a release, publishes its store to the stopper's
// read of the ring.

/// A running sampler; [`Sampler::stop`] ends it, and so does a drop.
pub struct Sampler {
    ring: Box<[AtomicUsize]>,
    old: sys::SigAction,
    stopped: bool,
}

/// The PCs a sampler took.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// One interrupted PC a sample, in the order taken.
    pub pcs: Vec<usize>,
    /// Samples past the ring's capacity, not kept.
    pub dropped: usize,
}

/// One function's share of a [`Profile`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Demangled name, or `[object]` for a PC outside the executable.
    pub function: String,
    /// Samples whose innermost frame it is.
    pub self_samples: usize,
    /// Samples with it anywhere in their inline chain.
    pub inclusive_samples: usize,
}

impl Sampler {
    /// Start sampling every [`PERIOD`] of CPU time the process uses,
    /// keeping at most [`CAPACITY`] samples.
    ///
    /// # Errors
    ///
    /// When another sampler runs, on a target it cannot sample, or
    /// when the timer or the handler cannot be installed.
    pub fn start() -> Result<Sampler, String> {
        if !sys::SUPPORTED {
            return Err("the sampler reads x86-64 Linux signal contexts only".into());
        }
        if ACTIVE.swap(true, Ordering::SeqCst) {
            return Err("a sampler is already running".into());
        }
        let ring: Box<[AtomicUsize]> = (0..CAPACITY).map(|_| AtomicUsize::new(0)).collect();
        CAP.store(ring.len(), Ordering::SeqCst);
        TAKEN.store(0, Ordering::SeqCst);
        RING.store(ring.as_ptr().cast_mut(), Ordering::SeqCst);
        let old = match sys::install(on_sigprof) {
            Ok(old) => old,
            Err(e) => {
                RING.store(std::ptr::null_mut(), Ordering::SeqCst);
                ACTIVE.store(false, Ordering::SeqCst);
                return Err(e);
            }
        };
        let sampler = Sampler {
            ring,
            old,
            stopped: false,
        };
        sys::arm(PERIOD)?;
        Ok(sampler)
    }

    /// Disarm the timer, put the old `SIGPROF` action back and hand
    /// back what was sampled.
    #[must_use]
    pub fn stop(mut self) -> Profile {
        self.finish()
    }

    fn finish(&mut self) -> Profile {
        self.stopped = true;
        let _ = sys::arm(Duration::ZERO);
        // Ignoring the signal discards one still pending, so the old
        // action (by default: terminate) never sees it.
        sys::ignore();
        RING.store(std::ptr::null_mut(), Ordering::SeqCst);
        // A handler on another thread may still be storing into the
        // ring, which is freed with the sampler.
        while IN_HANDLER.load(Ordering::SeqCst) != 0 {
            std::hint::spin_loop();
        }
        sys::restore(&self.old);
        let taken = TAKEN.load(Ordering::SeqCst);
        let kept = taken.min(self.ring.len());
        let pcs = self.ring[..kept]
            .iter()
            .map(|pc| pc.load(Ordering::SeqCst))
            .collect();
        ACTIVE.store(false, Ordering::SeqCst);
        Profile {
            pcs,
            dropped: taken - kept,
        }
    }
}

/// The `SIGPROF` handler: one slot of the ring, claimed and stored.
extern "C" fn on_sigprof(_sig: i32, _info: *mut std::ffi::c_void, ctx: *mut std::ffi::c_void) {
    IN_HANDLER.fetch_add(1, Ordering::SeqCst);
    let ring = RING.load(Ordering::SeqCst);
    if !ring.is_null() && !ctx.is_null() {
        let at = TAKEN.fetch_add(1, Ordering::SeqCst);
        if at < CAP.load(Ordering::SeqCst) {
            // SAFETY: `ctx` is the kernel's `ucontext_t` for this
            // signal; `at` is inside the ring `RING` points at, which
            // the sampler frees only after nulling `RING` and seeing no
            // handler running (the orderings above).
            unsafe {
                let pc = sys::interrupted_pc(ctx);
                (*ring.add(at)).store(pc, Ordering::SeqCst);
            }
        }
    }
    IN_HANDLER.fetch_sub(1, Ordering::SeqCst);
}

/// CPU time the process has used, all threads: what the timer
/// samples, and what a run's cost with and without the sampler is
/// best compared by on a shared box, where wall time also holds the
/// waits for a core. `None` where the sampler cannot sample.
#[must_use]
pub fn cpu_time() -> Option<Duration> {
    sys::cpu_time()
}

impl Drop for Sampler {
    fn drop(&mut self) {
        if !self.stopped {
            self.finish();
        }
    }
}

impl Profile {
    /// Samples taken and kept.
    #[must_use]
    pub fn samples(&self) -> usize {
        self.pcs.len()
    }

    /// Symbolise the samples, one row per function, most self samples
    /// first (ties by inclusive samples, then name).
    ///
    /// # Errors
    ///
    /// When `/proc/self/maps` cannot be read or `addr2line` cannot run.
    pub fn rows(&self) -> Result<Vec<Row>, String> {
        let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
        let exe = std::fs::read_link("/proc/self/exe").map_err(|e| e.to_string())?;
        let exe = exe.to_string_lossy().into_owned();
        let mappings: Vec<Mapping> = maps.lines().filter_map(Mapping::parse).collect();
        // The executable is position-independent, as rustc links one
        // on Linux: linked at 0, loaded where its first mapping starts.
        let base = mappings
            .iter()
            .filter(|m| m.path == exe)
            .map(|m| m.start - m.offset)
            .min()
            .ok_or("the executable is not mapped")?;
        // Per sample: the inline chain (innermost first) of its PC.
        let mut in_exe: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        let mut chains: Vec<Option<Vec<String>>> = Vec::with_capacity(self.pcs.len());
        for &pc in &self.pcs {
            match mappings.iter().find(|m| m.start <= pc && pc < m.end) {
                Some(m) if m.path == exe => {
                    in_exe.insert(pc - base, Vec::new());
                    chains.push(None);
                }
                Some(m) => {
                    let object = m.path.rsplit('/').next().unwrap_or(&m.path);
                    chains.push(Some(vec![format!("[{object}]")]));
                }
                None => chains.push(Some(vec!["[unmapped]".into()])),
            }
        }
        symbolise(&exe, &mut in_exe)?;
        let mut rows: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
        for (pc, chain) in self.pcs.iter().zip(&chains) {
            let chain = chain.as_ref().unwrap_or_else(|| &in_exe[&(pc - base)]);
            if let Some(leaf) = chain.first() {
                rows.entry(leaf).or_default().0 += 1;
            }
            let mut seen: Vec<&str> = Vec::with_capacity(chain.len());
            for f in chain {
                if !seen.contains(&f.as_str()) {
                    seen.push(f);
                    rows.entry(f).or_default().1 += 1;
                }
            }
        }
        let mut rows: Vec<Row> = rows
            .into_iter()
            .map(|(function, (self_samples, inclusive_samples))| Row {
                function: function.to_string(),
                self_samples,
                inclusive_samples,
            })
            .collect();
        rows.sort_by(|a, b| {
            (b.self_samples, b.inclusive_samples)
                .cmp(&(a.self_samples, a.inclusive_samples))
                .then_with(|| a.function.cmp(&b.function))
        });
        Ok(rows)
    }
}

/// One line of `/proc/self/maps` that names a file.
struct Mapping {
    start: usize,
    end: usize,
    offset: usize,
    path: String,
}

impl Mapping {
    fn parse(line: &str) -> Option<Mapping> {
        let mut fields = line.split_whitespace();
        let (start, end) = fields.next()?.split_once('-')?;
        let _perms = fields.next()?;
        let offset = fields.next()?;
        let _dev = fields.next()?;
        let _inode = fields.next()?;
        let path = fields.next()?.to_string();
        let hex = |s: &str| usize::from_str_radix(s, 16).ok();
        Some(Mapping {
            start: hex(start)?,
            end: hex(end)?,
            offset: hex(offset)?,
            path,
        })
    }
}

/// Fill each address's inline chain, innermost frame first, from one
/// `addr2line -a -f -i -C` run over all of them.
fn symbolise(exe: &str, chains: &mut BTreeMap<usize, Vec<String>>) -> Result<(), String> {
    if chains.is_empty() {
        return Ok(());
    }
    let addrs: Vec<String> = chains.keys().map(|a| format!("{a:#x}")).collect();
    let out = Command::new("addr2line")
        .args(["-a", "-f", "-i", "-C", "-e", exe])
        .args(&addrs)
        .output()
        .map_err(|e| format!("addr2line: {e}"))?;
    if !out.status.success() {
        return Err(format!("addr2line exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    // `-a` heads each address's group with the address; then a
    // function line and a location line per frame of its inline chain.
    let mut lines = text.lines().peekable();
    let mut keys = chains.keys().copied().collect::<Vec<_>>().into_iter();
    while let Some(head) = lines.next() {
        if !head.starts_with("0x") {
            continue;
        }
        let Some(addr) = keys.next() else { break };
        let mut chain = Vec::new();
        while lines.peek().is_some_and(|l| !l.starts_with("0x")) {
            let function = lines.next().unwrap_or_default();
            let _location = lines.next();
            chain.push(function.to_string());
        }
        if let Some(slot) = chains.get_mut(&addr) {
            *slot = chain;
        }
    }
    Ok(())
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys {
    //! `setitimer`, `sigaction` and `clock_gettime` by hand: `std` links
    //! libc already, so declaring them costs no dependency.

    use std::ffi::c_void;
    use std::time::Duration;

    pub const SUPPORTED: bool = true;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: u64 = 4;
    const SA_RESTART: u64 = 0x1000_0000;
    const SIG_IGN: usize = 1;
    /// `REG_RIP` in `uc_mcontext.gregs`, which starts 40 bytes into a
    /// `ucontext_t` (`uc_flags`, `uc_link`, a 24-byte `stack_t`).
    const RIP_OFFSET: usize = 40 + 16 * 8;

    /// The C library's `struct sigaction` on x86-64 Linux.
    #[repr(C)]
    #[derive(Clone, Copy)]
    pub struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: u64,
        restorer: usize,
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
        fn clock_gettime(clock: i32, now: *mut TimeSpec) -> i32;
    }

    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    #[repr(C)]
    struct TimeSpec {
        sec: i64,
        nsec: i64,
    }

    pub fn cpu_time() -> Option<Duration> {
        let mut now = TimeSpec { sec: 0, nsec: 0 };
        // SAFETY: `now` is a live `struct timespec`.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut now) } != 0 {
            return None;
        }
        let nanos = u32::try_from(now.nsec).ok()?;
        Some(Duration::new(u64::try_from(now.sec).ok()?, nanos))
    }

    type Handler = extern "C" fn(i32, *mut c_void, *mut c_void);

    fn set(action: &SigAction) -> Result<SigAction, String> {
        let mut old = SigAction {
            handler: 0,
            mask: [0; 16],
            flags: 0,
            restorer: 0,
        };
        // SAFETY: both pointers are to live `struct sigaction`s.
        if unsafe { sigaction(SIGPROF, action, &mut old) } != 0 {
            return Err(format!("sigaction: {}", std::io::Error::last_os_error()));
        }
        Ok(old)
    }

    pub fn install(handler: Handler) -> Result<SigAction, String> {
        set(&SigAction {
            handler: handler as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        })
    }

    pub fn ignore() {
        let _ = set(&SigAction {
            handler: SIG_IGN,
            mask: [0; 16],
            flags: 0,
            restorer: 0,
        });
    }

    pub fn restore(old: &SigAction) {
        let _ = set(old);
    }

    /// Arm the profiling timer at `period` (disarm it at zero).
    pub fn arm(period: Duration) -> Result<(), String> {
        let tv = TimeVal {
            sec: i64::try_from(period.as_secs()).unwrap_or(i64::MAX),
            usec: i64::from(period.subsec_micros()),
        };
        let timer = ITimerVal {
            interval: tv,
            value: tv,
        };
        // SAFETY: `timer` is a live `struct itimerval`; the old value
        // is not asked for.
        if unsafe { setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) } != 0 {
            return Err(format!("setitimer: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }

    /// The PC the signal interrupted.
    ///
    /// # Safety
    ///
    /// `ctx` must be the `ucontext_t` the kernel passed the handler.
    pub unsafe fn interrupted_pc(ctx: *mut c_void) -> usize {
        // SAFETY: as the caller promises; `gregs` is 8-byte aligned.
        unsafe { ctx.cast::<u8>().add(RIP_OFFSET).cast::<usize>().read() }
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod sys {
    use std::ffi::c_void;
    use std::time::Duration;

    pub const SUPPORTED: bool = false;

    pub struct SigAction;

    pub fn cpu_time() -> Option<Duration> {
        None
    }

    pub fn install(_: extern "C" fn(i32, *mut c_void, *mut c_void)) -> Result<SigAction, String> {
        Err("unsupported".into())
    }

    pub fn ignore() {}

    pub fn restore(_: &SigAction) {}

    pub fn arm(_: Duration) -> Result<(), String> {
        Err("unsupported".into())
    }

    pub unsafe fn interrupted_pc(_: *mut c_void) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[inline(never)]
    fn spin(n: u64) -> u64 {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..n {
            x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        x
    }

    /// A busy loop is sampled and symbolises to the function that spun,
    /// every sample to one innermost frame; a second sampler waits for
    /// the first.
    #[test]
    fn a_busy_function_is_where_the_samples_land() {
        if !sys::SUPPORTED {
            return;
        }
        let sampler = Sampler::start().expect("armed");
        assert!(Sampler::start().is_err());
        let started = std::time::Instant::now();
        while started.elapsed() < Duration::from_millis(300) {
            std::hint::black_box(spin(100_000));
        }
        let profile = sampler.stop();
        assert!(profile.samples() >= 10, "{} samples", profile.samples());
        assert!(profile.samples() <= CAPACITY);
        assert_eq!(profile.dropped, 0);
        let rows = profile.rows().expect("symbolised");
        let spun: usize = rows
            .iter()
            .filter(|r| r.function.contains("spin"))
            .map(|r| r.inclusive_samples)
            .sum();
        // The sampler takes the leaf PC alone, so in a debug build,
        // which inlines nothing, most samples land in the callees of
        // `spin` rather than in it; other tests may run beside it too.
        assert!(spun > 0, "{rows:?}");
        // Each sample has one innermost frame.
        let leaves: usize = rows.iter().map(|r| r.self_samples).sum();
        assert_eq!(leaves, profile.samples(), "{rows:?}");
        for r in &rows {
            assert!(r.self_samples <= r.inclusive_samples, "{r:?}");
        }
        // Stopped: a new sampler may start.
        let again = Sampler::start().expect("re-armed");
        assert!(again.stop().samples() <= CAPACITY);
    }
}
