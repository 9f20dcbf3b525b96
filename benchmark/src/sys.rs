//! The two system calls the harness needs and `std` does not offer: setting
//! the CPU affinity mask and reading the process's CPU clock. The harness may
//! depend on nothing outside the repository, hence no `libc`; on a platform
//! this file does not know, both report that they are unavailable and the
//! callers fall back.

/// `sched_setaffinity(0, ..)`: restricts the calling thread, and every thread
/// it spawns from now on, to the CPUs whose bits are set. Returns whether the
/// kernel accepted the mask.
pub fn set_affinity(mask: &[u64; 16]) -> bool {
    // SAFETY: the call reads `size_of_val(mask)` bytes at `mask`, a live
    // array of exactly that size, and writes no memory.
    let result = unsafe {
        syscall3(
            SCHED_SETAFFINITY,
            0,
            std::mem::size_of_val(mask),
            mask.as_ptr() as usize,
        )
    };
    result == Some(0)
}

/// `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`: CPU seconds consumed by every
/// thread of the process, exited ones included, to the nanosecond.
pub fn process_cpu_seconds() -> Option<f64> {
    const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
    // `struct timespec` on the 64-bit platforms below: seconds, nanoseconds.
    let mut timespec = [0i64; 2];
    // SAFETY: the call writes one `timespec` (two 64-bit words) at the
    // pointer, which is a live, writable array of exactly that size.
    let result = unsafe {
        syscall3(
            CLOCK_GETTIME,
            CLOCK_PROCESS_CPUTIME_ID,
            timespec.as_mut_ptr() as usize,
            0,
        )
    };
    (result == Some(0)).then(|| timespec[0] as f64 + timespec[1] as f64 / 1e9)
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const SCHED_SETAFFINITY: usize = 203;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
const CLOCK_GETTIME: usize = 228;

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const SCHED_SETAFFINITY: usize = 122;
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
const CLOCK_GETTIME: usize = 113;

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const SCHED_SETAFFINITY: usize = 0;
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
const CLOCK_GETTIME: usize = 0;

/// A raw Linux system call with three arguments; `None` where this file does
/// not know the platform's calling convention.
///
/// # Safety
///
/// The caller guarantees what the kernel requires of call `number`: that
/// every argument which is a pointer is valid, for the access and the length
/// that call makes, for the duration of the call.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> Option<isize> {
    let result: isize;
    // SAFETY: the `syscall` instruction takes the number in `rax` and the
    // arguments in `rdi`, `rsi`, `rdx`, returns in `rax`, and clobbers only
    // `rcx` and `r11`, all declared; what the kernel does with the arguments
    // is the caller's obligation.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") number as isize => result,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    Some(result)
}

/// See the x86-64 version.
///
/// # Safety
///
/// As the x86-64 version.
#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
unsafe fn syscall3(number: usize, a: usize, b: usize, c: usize) -> Option<isize> {
    let result: isize;
    // SAFETY: `svc 0` takes the number in `x8` and the arguments in
    // `x0..x2`, and returns in `x0`; the rest is the caller's obligation.
    unsafe {
        std::arch::asm!(
            "svc 0",
            in("x8") number,
            inlateout("x0") a as isize => result,
            in("x1") b,
            in("x2") c,
            options(nostack),
        );
    }
    Some(result)
}

/// See the x86-64 version.
///
/// # Safety
///
/// None to uphold: no call is made.
#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
unsafe fn syscall3(_number: usize, _a: usize, _b: usize, _c: usize) -> Option<isize> {
    None
}
