//! CPU pinning for the serving workload, through the raw Linux affinity
//! syscalls (the standard library has no affinity API and the benchmark
//! takes no libc dependency).
//!
//! With the generator and the server free to land on either core of a
//! small VM, loopback latency is bimodal from run to run: a wake-up on an
//! idle vCPU costs about twice one on the waker's own. Pinning every
//! serving thread to one CPU removes that placement lottery.

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest-numbered CPU it may run on. Returns that CPU, or `None`
/// when the affinity cannot be read or set (the run then stays unpinned).
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    const SYS_SCHED_SETAFFINITY: usize = 203;
    const SYS_SCHED_GETAFFINITY: usize = 204;
    // Room for 1024 CPUs, at least the kernel's `nr_cpu_ids`.
    let mut mask = [0u64; 16];
    let len = std::mem::size_of_val(&mask);
    // SAFETY: sched_getaffinity(0, len, buf) writes at most `len` bytes
    // into `buf`; `mask` is a live, writable buffer of exactly `len`
    // bytes. Pid 0 names the calling thread.
    let got = unsafe { syscall3(SYS_SCHED_GETAFFINITY, 0, len, mask.as_mut_ptr() as usize) };
    if got <= 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .find(|(_, &bits)| bits != 0)
        .map(|(word, bits)| word * 64 + bits.trailing_zeros() as usize)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: sched_setaffinity(0, len, buf) only reads `len` bytes from
    // `buf`; `one` is a live buffer of exactly `len` bytes.
    let set = unsafe { syscall3(SYS_SCHED_SETAFFINITY, 0, len, one.as_ptr() as usize) };
    (set == 0).then_some(cpu)
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A three-argument Linux system call.
///
/// # Safety
///
/// The caller must pass a syscall number and arguments for which the
/// kernel's reads and writes through pointer arguments stay inside live
/// buffers the caller owns.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> isize {
    let ret: isize;
    // SAFETY: the x86_64 Linux syscall ABI: number in rax, arguments in
    // rdi/rsi/rdx, result in rax; the instruction clobbers rcx and r11.
    // Pointer validity is the caller's obligation (see `# Safety`).
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    ret
}
