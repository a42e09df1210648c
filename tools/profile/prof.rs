//! A `SIGPROF` sampling profiler for `bighouse-perf` on x86-64 Linux
//! (glibc), with no dependencies: `sigaction` and `setitimer` are declared
//! by hand.
//!
//! It is not part of any crate. To profile, copy this file into a
//! throwaway copy's `crates/perf/src/`, add `mod prof;` to its `main.rs` and
//! `let _profile = prof::Profile::from_env();` as the first line of
//! `main`, build with frame pointers and line tables, and run with
//! `BIGHOUSE_PROFILE=<out file>`. `tools/profile/symbolize.py` turns the
//! output into self and inclusive shares per function.
//!
//! Every CPU-time tick (`ITIMER_PROF`) the handler stores the interrupted
//! pc and walks the frame-pointer chain (`[fp + 8]` is the return address,
//! `[fp]` the caller's fp) into a preallocated buffer. The walk only reads
//! inside the main thread's `[stack]` mapping and stops unless the next fp
//! rises; unbounded, it faults on the first frame without a pointer.
//! Samples taken on other threads keep their pc alone.
//!
//! The output file's first line is the executable's load base (the start
//! of the first `/proc/self/maps` line, in hex); each further line is one
//! sample, its frames in hex, innermost first.

use std::fs;
use std::io::{BufWriter, Write};
use std::ptr;
use std::sync::atomic::Ordering::{Acquire, Relaxed, Release};
use std::sync::atomic::{AtomicPtr, AtomicUsize};

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// Byte offset of `uc_mcontext.gregs` in glibc's x86-64 `ucontext_t`.
const GREGS_OFFSET: usize = 40;
const REG_RBP: usize = 10;
const REG_RIP: usize = 16;
/// Frames kept per sample, the pc included.
const DEPTH: usize = 64;
/// Samples kept: over four minutes of CPU time at the 250 Hz the kernel
/// delivers. The buffer is 32 MiB of zeroed pages, touched as it fills.
const SAMPLES: usize = 1 << 16;
/// The sampling interval asked for, in microseconds.
const INTERVAL_US: i64 = 1_000;

/// glibc's x86-64 `struct sigaction` (152 bytes).
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ItimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(signal: i32, action: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ItimerVal, old: *mut ItimerVal) -> i32;
}

/// `SAMPLES × DEPTH` frame slots, zeroed; a row ends at its first zero.
static FRAMES: AtomicPtr<usize> = AtomicPtr::new(ptr::null_mut());
/// Rows claimed so far (may pass `SAMPLES`: the excess is dropped).
static TAKEN: AtomicUsize = AtomicUsize::new(0);
static STACK_LO: AtomicUsize = AtomicUsize::new(0);
static STACK_HI: AtomicUsize = AtomicUsize::new(0);

extern "C" fn on_sigprof(_signal: i32, _info: *mut u8, context: *mut u8) {
    let row = TAKEN.fetch_add(1, Relaxed);
    let frames = FRAMES.load(Acquire);
    if row >= SAMPLES || frames.is_null() {
        return;
    }
    let (lo, hi) = (STACK_LO.load(Relaxed), STACK_HI.load(Relaxed));
    // SAFETY: `context` is the kernel's `ucontext_t` for this signal, and
    // the row is this handler's alone. Every frame read lies inside the
    // `[stack]` mapping, at rising addresses.
    unsafe {
        let gregs = context.add(GREGS_OFFSET).cast::<usize>();
        let out = frames.add(row * DEPTH);
        *out = *gregs.add(REG_RIP);
        let mut fp = *gregs.add(REG_RBP);
        let mut depth = 1;
        while depth < DEPTH && fp % 8 == 0 && fp >= lo && fp + 16 <= hi {
            let ret = *((fp + 8) as *const usize);
            let next = *(fp as *const usize);
            if ret == 0 {
                break;
            }
            *out.add(depth) = ret;
            depth += 1;
            if next <= fp {
                break;
            }
            fp = next;
        }
        if depth < DEPTH {
            *out.add(depth) = 0;
        }
    }
}

/// The running profiler; dropping it stops the timer and writes the file
/// (an error is printed, not raised).
pub struct Profile {
    out: String,
    load_base: usize,
}

impl Profile {
    /// Starts sampling if `BIGHOUSE_PROFILE` names an output file.
    pub fn from_env() -> Option<Profile> {
        let out = std::env::var("BIGHOUSE_PROFILE").ok()?;
        let maps = fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let range = |line: &str| {
            let (lo, hi) = line.split(' ').next()?.split_once('-')?;
            Some((
                usize::from_str_radix(lo, 16).ok()?,
                usize::from_str_radix(hi, 16).ok()?,
            ))
        };
        let load_base = maps
            .lines()
            .next()
            .and_then(range)
            .expect("a first mapping")
            .0;
        let (lo, hi) = maps
            .lines()
            .find(|l| l.ends_with("[stack]"))
            .and_then(range)
            .expect("a [stack] mapping");
        STACK_LO.store(lo, Relaxed);
        STACK_HI.store(hi, Relaxed);
        let frames = Box::leak(vec![0usize; SAMPLES * DEPTH].into_boxed_slice());
        // Release: a handler that sees the buffer sees the stack bounds.
        FRAMES.store(frames.as_mut_ptr(), Release);
        let action = SigAction {
            handler: on_sigprof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let tick = || TimeVal {
            sec: 0,
            usec: INTERVAL_US,
        };
        let timer = ItimerVal {
            interval: tick(),
            value: tick(),
        };
        // SAFETY: both structs have the kernel's layout and outlive the
        // calls; the handler only touches the statics set above.
        unsafe {
            assert_eq!(sigaction(SIGPROF, &action, ptr::null_mut()), 0, "sigaction");
            assert_eq!(
                setitimer(ITIMER_PROF, &timer, ptr::null_mut()),
                0,
                "setitimer"
            );
        }
        Some(Profile { out, load_base })
    }
}

impl Profile {
    /// Stops the timer and writes the samples; returns how many.
    fn write(&self) -> std::io::Result<usize> {
        let stop = ItimerVal {
            interval: TimeVal { sec: 0, usec: 0 },
            value: TimeVal { sec: 0, usec: 0 },
        };
        // SAFETY: as in `from_env`; a zero value disarms the timer.
        unsafe { setitimer(ITIMER_PROF, &stop, ptr::null_mut()) };
        let rows = TAKEN.load(Relaxed).min(SAMPLES);
        let frames = FRAMES.load(Acquire);
        let mut w = BufWriter::new(fs::File::create(&self.out)?);
        writeln!(w, "{:x}", self.load_base)?;
        for row in 0..rows {
            // SAFETY: `frames` holds `SAMPLES * DEPTH` slots and the timer
            // is off, so no handler starts on these rows any more (one
            // still running on another thread could leave its row torn).
            let frames = unsafe { std::slice::from_raw_parts(frames.add(row * DEPTH), DEPTH) };
            let line: Vec<String> = frames
                .iter()
                .take_while(|&&f| f != 0)
                .map(|f| format!("{f:x}"))
                .collect();
            writeln!(w, "{}", line.join(" "))?;
        }
        w.flush()?;
        Ok(rows)
    }
}

impl Drop for Profile {
    fn drop(&mut self) {
        match self.write() {
            Ok(rows) => eprintln!("profile: {rows} samples -> {}", self.out),
            Err(e) => eprintln!("profile: writing {} failed: {e}", self.out),
        }
    }
}
