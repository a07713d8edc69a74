//! What the process and machine say about themselves: peak RSS, CPU
//! time, load average, core count, commit. Read from `/proc` and `.git`;
//! recorded with every result, never used to size a workload.

use std::path::Path;

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Process CPU seconds so far (user + system, every thread, exited ones
/// included). Slices of a run are charged their own CPU time, so this is
/// read at nanosecond grain where the platform allows, and at the
/// kernel's clock tick (10 ms) from `/proc` elsewhere.
pub fn cpu_seconds() -> f64 {
    process_cpu_clock().unwrap_or_else(cpu_seconds_from_proc)
}

/// One raw x86_64 syscall of up to three arguments, as `pqos-net` makes
/// its own (the workspace links no libc crate). Negative is `-errno`.
///
/// # Safety
/// The arguments must be valid for syscall `nr`: any pointer among them
/// must point to memory the kernel may read or write for that call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(nr: i64, a0: i64, a1: i64, a2: i64) -> i64 {
    let ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a0,
        in("rsi") a1,
        in("rdx") a2,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn process_cpu_clock() -> Option<f64> {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_PROCESS_CPUTIME_ID: i64 = 2;
    let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
                            // SAFETY: the kernel writes one `timespec` (two i64 on x86_64) to
                            // `ts`, which lives across the call.
    let ret = unsafe {
        syscall3(
            SYS_CLOCK_GETTIME,
            CLOCK_PROCESS_CPUTIME_ID,
            ts.as_mut_ptr() as i64,
            0,
        )
    };
    (ret == 0).then(|| ts[0] as f64 + ts[1] as f64 / 1e9)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn process_cpu_clock() -> Option<f64> {
    None
}

/// Confines this thread, and every thread it spawns from now on, to one
/// CPU — the highest-numbered one it is allowed — and returns which.
/// `None` where the platform offers no way; the run is then unpinned.
///
/// The sandbox is two virtual CPUs of a shared host. Left to roam, the
/// served workloads' threads (generator, I/O loop, engine) wake each
/// other across CPUs, and a round trip is then mostly the hypervisor
/// waking an idle vCPU: 130 µs where the same exchange takes 30 µs on one
/// CPU, faster when a neighbour keeps the other vCPU busy, slower when it
/// does not. On one CPU a hand-off is a context switch, the run costs
/// what the program's own instructions cost, and that is what a change to
/// the program moves. The price: the benchmark is blind to parallel
/// speed-up (batch fan-out, shards on several cores).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: i64 = 203;
    const SYS_SCHED_GETAFFINITY: i64 = 204;
    let mut mask = [0u64; 16]; // 1,024 CPUs
    let bytes = std::mem::size_of_val(&mask) as i64;
    // SAFETY: the kernel writes at most `bytes` bytes to `mask`.
    let got = unsafe { syscall3(SYS_SCHED_GETAFFINITY, 0, bytes, mask.as_mut_ptr() as i64) };
    if got <= 0 {
        return None;
    }
    let (word, bits) = mask.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    mask = [0; 16];
    mask[word] = 1 << bit;
    // SAFETY: the kernel reads `bytes` bytes from `mask`.
    let set = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, bytes, mask.as_ptr() as i64) };
    (set == 0).then_some(word * 64 + bit)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// utime + stime of `/proc/self/stat`; Linux fixes `USER_HZ` at 100.
fn cpu_seconds_from_proc() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let Some(after) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |n: usize| fields.get(n - 3).and_then(|f| f.parse::<f64>().ok());
    match (tick(14), tick(15)) {
        (Some(u), Some(s)) => (u + s) / USER_HZ,
        _ => 0.0,
    }
}

/// The 1-minute load average, as text, for the run header.
pub fn loadavg() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Cores the OS offers this process. Reported only: every thread and
/// connection count in the benchmark is a constant.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// The checked-out commit, when the working directory is a git checkout.
pub fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or_default(),
        None => head.to_string(),
    };
    if id.is_empty() {
        "unknown".into()
    } else {
        id.chars().take(12).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The raw clock and `/proc` tell the same time, a few ticks apart.
    #[test]
    fn cpu_clocks_agree() {
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let fine = cpu_seconds();
        let coarse = cpu_seconds_from_proc();
        assert!(fine >= 0.05, "burned 60 ms, clock says {fine}");
        if coarse > 0.0 {
            assert!((fine - coarse).abs() < 0.05, "{fine} vs {coarse}");
        }
    }
}
