//! Child processes timed from spawn to exit, with their peak resident set.
//!
//! `std::process::Child::wait` discards the kernel's resource usage, so
//! children are reaped with `wait4(2)`, which also reports `ru_maxrss`: the
//! peak resident set of the child and of every descendant it reaped (for
//! `run-job`, the supervisor and its largest worker, whichever is larger).

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Instant;

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 `long`s, of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    ru_utime: [i64; 2],
    ru_stime: [i64; 2],
    ru_maxrss: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// How a reaped child ended.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Exited normally with status 0.
    pub ok: bool,
    /// Peak resident set in MB (10⁶ bytes).
    pub maxrss_mb: f64,
}

/// Reap `child` and report its exit and peak memory. Consumes the child so
/// nothing can reap it twice.
pub fn reap(child: Child) -> Exit {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = RUsage {
        ru_utime: [0; 2],
        ru_stime: [0; 2],
        ru_maxrss: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `ru` are live, writable and laid out as the
        // kernel expects (`int` and 64-bit Linux `struct rusage`); `pid` is
        // our own unreaped child, since `child` is consumed here and std
        // never waits on a `Child` it does not own.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return Exit {
                ok: false,
                maxrss_mb: 0.0,
            };
        }
    }
    drop(child);
    let exited_zero = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Exit {
        ok: exited_zero,
        maxrss_mb: ru.ru_maxrss as f64 * 1024.0 / 1e6,
    }
}

/// One finished command.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub secs: f64,
    pub ok: bool,
    pub maxrss_mb: f64,
}

/// Run `bin args…` to completion: stdout discarded, stderr appended to
/// `log`. Wall time runs from spawn to reap.
pub fn run(bin: &Path, args: &[&str], log: &Path) -> Run {
    let stderr = match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(log)
    {
        Ok(f) => Stdio::from(f),
        Err(_) => Stdio::null(),
    };
    let start = Instant::now();
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn();
    let Ok(child) = child else {
        eprintln!("perfbench: cannot spawn {}", bin.display());
        return Run {
            secs: start.elapsed().as_secs_f64(),
            ok: false,
            maxrss_mb: 0.0,
        };
    };
    let exit = reap(child);
    let secs = start.elapsed().as_secs_f64();
    if !exit.ok {
        eprintln!(
            "perfbench: `{} {}` failed (stderr in {})",
            bin.display(),
            args.join(" "),
            log.display()
        );
    }
    Run {
        secs,
        ok: exit.ok,
        maxrss_mb: exit.maxrss_mb,
    }
}
