//! The host side of a run: CPU affinity, CPU-time clocks and
//! `/proc/self/status`.

use std::fmt;

/// Words in an affinity mask: 1024 CPUs, the kernel's default `cpu_set_t`.
const MASK_WORDS: usize = 16;

extern "C" {
    // glibc/musl wrappers of the Linux system calls; `pid` 0 is the
    // calling thread. Both return 0 on success and -1 on failure.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    // POSIX `clock_gettime`; the C `struct timespec` of 64-bit Linux is two
    // 64-bit integers, seconds then nanoseconds.
    fn clock_gettime(clock: i32, time: *mut [i64; 2]) -> i32;
}

/// CPU time consumed by every thread of this process, ended ones included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// CPU time consumed by the calling thread.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads Linux's 64-bit timespec, /proc and affinity masks");

fn cpu_clock_s(clock: i32) -> f64 {
    let mut time = [0i64; 2];
    // SAFETY: `time` is a live, writable buffer with the layout of the
    // target's `struct timespec` (checked by the `compile_error` above).
    let rc = unsafe { clock_gettime(clock, &mut time) };
    assert_eq!(rc, 0, "clock_gettime({clock}): {}", std::io::Error::last_os_error());
    time[0] as f64 + time[1] as f64 * 1e-9
}

/// Seconds of CPU this process has consumed, over all its threads.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Seconds of CPU the calling thread has consumed.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// A set of CPUs the calling thread may run on. Threads spawned later
/// inherit the spawning thread's set, which is how pinning the harness's
/// one thread confines the program's 64+.
#[derive(Clone, PartialEq, Eq)]
pub struct CpuSet([u64; MASK_WORDS]);

impl CpuSet {
    /// The set holding only `cpu`; `None` beyond the mask's width.
    pub fn single(cpu: usize) -> Option<CpuSet> {
        let mut words = [0u64; MASK_WORDS];
        *words.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        Some(CpuSet(words))
    }

    /// The calling thread's current set.
    pub fn current() -> Result<CpuSet, String> {
        let mut words = [0u64; MASK_WORDS];
        // SAFETY: `words` is a live, writable buffer of exactly the byte
        // length passed, which is all `sched_getaffinity` requires.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&words), words.as_mut_ptr()) };
        if rc != 0 {
            return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
        }
        Ok(CpuSet(words))
    }

    /// Restrict the calling thread to this set.
    pub fn apply(&self) -> Result<(), String> {
        // SAFETY: `self.0` is a live buffer of exactly the byte length
        // passed; the kernel only reads it.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc != 0 {
            return Err(format!(
                "sched_setaffinity({self:?}): {}",
                std::io::Error::last_os_error()
            ));
        }
        // Read back: a run that is not where it says it is must not be
        // measured.
        let now = CpuSet::current()?;
        if now != *self {
            return Err(format!("affinity is {now:?} after asking for {self:?}"));
        }
        Ok(())
    }

    pub fn count(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }
}

impl fmt::Debug for CpuSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cpus: Vec<usize> =
            (0..MASK_WORDS * 64).filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1).collect();
        write!(f, "cpus{cpus:?}")
    }
}

/// The value of `key:` in `/proc/<pid>/status` text.
fn status_field<'a>(status: &'a str, key: &str) -> Option<&'a str> {
    status.lines().find_map(|l| l.strip_prefix(key)?.strip_prefix(':')).map(str::trim)
}

/// First CPU of the `Cpus_allowed_list` line (`"0-1"`, `"3,5-7"`, `"2"`).
pub fn first_allowed_cpu(status: &str) -> Option<usize> {
    let list = status_field(status, "Cpus_allowed_list")?;
    let first = list.split(',').next()?.split('-').next()?;
    first.trim().parse().ok()
}

/// `VmHWM` (peak resident set) in KiB.
pub fn vm_hwm_kb(status: &str) -> Option<u64> {
    let v = status_field(status, "VmHWM")?;
    v.strip_suffix("kB")?.trim().parse().ok()
}

fn read_status() -> Result<String, String> {
    std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let kb = vm_hwm_kb(&read_status()?).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Pin the calling thread to the first CPU it is allowed on and return the
/// set it had before. Any failure is an error: the run never silently
/// measures an unpinned process.
pub fn pin_to_first_cpu() -> Result<CpuSet, String> {
    let before = CpuSet::current()?;
    let cpu = first_allowed_cpu(&read_status()?)
        .ok_or("no Cpus_allowed_list line in /proc/self/status")?;
    CpuSet::single(cpu).ok_or(format!("cpu {cpu} is beyond the affinity mask"))?.apply()?;
    Ok(before)
}
