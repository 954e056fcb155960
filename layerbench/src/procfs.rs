//! Per-thread and per-process accounting read from `/proc/self`.
//!
//! The benchmark measures the program from outside: it samples every
//! thread of its own process at the edges of a timed phase and groups the
//! differences by thread name. Linux truncates thread names to 15 bytes,
//! so `pbdmm-conn-writer` appears as `pbdmm-conn-writ`; groups therefore
//! match on a name prefix cut to the same 15 bytes.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/*/stat`. Linux fixes
/// it at 100 for user space on every architecture this benchmark runs on.
const TICK_NS: u64 = 10_000_000;

/// Longest thread name the kernel keeps (16 bytes with the terminator).
const COMM_LEN: usize = 15;

/// Counters of one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadCounters {
    /// CPU time: the scheduler's runtime from `schedstat` (ns), or user +
    /// system time from `stat` (10 ms ticks) where `schedstat` is absent.
    pub cpu_ns: u64,
    /// Time spent runnable but waiting for a CPU, from `schedstat`.
    pub runq_wait_ns: u64,
    /// Voluntary context switches (blocking waits), from `status`.
    pub voluntary: u64,
    /// Involuntary context switches (preemptions), from `status`.
    pub involuntary: u64,
}

impl ThreadCounters {
    fn minus(self, earlier: ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            runq_wait_ns: self.runq_wait_ns.saturating_sub(earlier.runq_wait_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
            involuntary: self.involuntary.saturating_sub(earlier.involuntary),
        }
    }

    fn plus(self, other: ThreadCounters) -> ThreadCounters {
        ThreadCounters {
            cpu_ns: self.cpu_ns + other.cpu_ns,
            runq_wait_ns: self.runq_wait_ns + other.runq_wait_ns,
            voluntary: self.voluntary + other.voluntary,
            involuntary: self.involuntary + other.involuntary,
        }
    }
}

/// Process-wide I/O counters from `/proc/self/io`. Linux counts only
/// `read`/`write`-family calls there, not socket `send`/`recv`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounters {
    /// Bytes passed to `write`-family syscalls.
    pub wchar: u64,
    /// Write syscalls.
    pub syscw: u64,
}

/// One sample of every thread of this process plus its I/O counters.
#[derive(Debug, Clone)]
pub struct Sample {
    at: Instant,
    /// `(tid, name) -> counters`.
    threads: BTreeMap<(u32, String), ThreadCounters>,
    io: IoCounters,
}

/// The difference between two samples.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Wall-clock seconds between the samples.
    pub wall_s: f64,
    threads: Vec<(String, ThreadCounters)>,
    /// I/O counter differences.
    pub io: IoCounters,
}

/// Sample every thread of this process. A thread that exits while the
/// directory is walked is skipped.
pub fn sample() -> Result<Sample, String> {
    let at = Instant::now();
    let mut threads = BTreeMap::new();
    let dir = std::fs::read_dir("/proc/self/task").map_err(|e| format!("/proc/self/task: {e}"))?;
    for entry in dir {
        let entry = entry.map_err(|e| format!("/proc/self/task: {e}"))?;
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<u32>() else {
            continue;
        };
        if let Some((name, counters)) = read_thread(&entry.path()) {
            threads.insert((tid, name), counters);
        }
    }
    Ok(Sample {
        at,
        threads,
        io: read_io()?,
    })
}

fn read_thread(dir: &Path) -> Option<(String, ThreadCounters)> {
    let name = std::fs::read_to_string(dir.join("comm")).ok()?;
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    let status = std::fs::read_to_string(dir.join("status")).ok()?;
    // `stat` is "tid (comm) state ..."; comm may hold spaces or parens,
    // so fields are counted after the last ')'. utime and stime are
    // fields 14 and 15 of the line, i.e. 11 and 12 after the comm.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    // `schedstat` is "runtime_ns runq_wait_ns timeslices".
    let schedstat: Vec<u64> = std::fs::read_to_string(dir.join("schedstat"))
        .map(|s| {
            s.split_whitespace()
                .filter_map(|f| f.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    Some((
        name.trim_end().to_string(),
        ThreadCounters {
            cpu_ns: match schedstat.first() {
                Some(&ns) => ns,
                None => (utime + stime) * TICK_NS,
            },
            runq_wait_ns: schedstat.get(1).copied().unwrap_or(0),
            voluntary: status_field(&status, "voluntary_ctxt_switches:")?,
            involuntary: status_field(&status, "nonvoluntary_ctxt_switches:")?,
        },
    ))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().parse().ok())
}

fn read_io() -> Result<IoCounters, String> {
    let text =
        std::fs::read_to_string("/proc/self/io").map_err(|e| format!("/proc/self/io: {e}"))?;
    let field = |key: &str| status_field(&text, key).ok_or_else(|| format!("/proc/self/io: {key}"));
    Ok(IoCounters {
        wchar: field("wchar:")?,
        syscw: field("syscw:")?,
    })
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("/proc/self/status: no VmHWM")?;
    Ok(kib as f64 / 1024.0)
}

impl Sample {
    /// What happened between `self` and `later`. Threads born in between
    /// count from zero; threads gone by `later` are lost, which is why
    /// callers sample before they stop the threads they measure.
    pub fn until(&self, later: &Sample) -> Delta {
        let threads = later
            .threads
            .iter()
            .map(|(key, &now)| {
                let before = self.threads.get(key).copied().unwrap_or_default();
                (key.1.clone(), now.minus(before))
            })
            .collect();
        Delta {
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            threads,
            io: IoCounters {
                wchar: later.io.wchar.saturating_sub(self.io.wchar),
                syscw: later.io.syscw.saturating_sub(self.io.syscw),
            },
        }
    }
}

impl Delta {
    /// Summed counters of every thread whose name starts with `prefix`
    /// (cut to the kernel's 15-byte name limit).
    pub fn group(&self, prefix: &str) -> ThreadCounters {
        let cut = &prefix.as_bytes()[..prefix.len().min(COMM_LEN)];
        self.threads
            .iter()
            .filter(|(name, _)| name.as_bytes().starts_with(cut))
            .fold(ThreadCounters::default(), |acc, (_, c)| acc.plus(*c))
    }

    /// CPU time of every thread of the process, in nanoseconds.
    pub fn process_cpu_ns(&self) -> u64 {
        self.threads.iter().map(|(_, c)| c.cpu_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    #[test]
    fn names_are_matched_on_the_truncated_prefix() {
        let d = Delta {
            wall_s: 1.0,
            threads: vec![
                (
                    "pbdmm-conn".into(),
                    ThreadCounters {
                        cpu_ns: 1,
                        ..Default::default()
                    },
                ),
                (
                    "pbdmm-conn-writ".into(),
                    ThreadCounters {
                        cpu_ns: 10,
                        ..Default::default()
                    },
                ),
                (
                    "pbdmm-coalescer".into(),
                    ThreadCounters {
                        cpu_ns: 100,
                        ..Default::default()
                    },
                ),
            ],
            io: IoCounters::default(),
        };
        assert_eq!(d.group("pbdmm-conn-writer").cpu_ns, 10);
        assert_eq!(d.group("pbdmm-conn").cpu_ns, 11);
        assert_eq!(d.group("pbdmm-co").cpu_ns, 111);
        assert_eq!(d.process_cpu_ns(), 111);
    }

    /// A named thread spinning for ~200 ms reports at least half of that
    /// as CPU; a named thread that only sleeps reports under 5 ms.
    #[test]
    fn spinning_and_idle_threads_are_told_apart() {
        let _cpus = crate::CPU_TEST_LOCK.lock().expect("test lock");
        let started = Arc::new(Barrier::new(3));
        let measured = Arc::new(Barrier::new(3));
        let spawn = |name: &str, spin: bool| {
            let (started, measured) = (Arc::clone(&started), Arc::clone(&measured));
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || {
                    started.wait();
                    let t0 = Instant::now();
                    let mut x = 0u64;
                    while t0.elapsed() < Duration::from_millis(200) {
                        if spin {
                            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
                        } else {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                    measured.wait();
                })
                .expect("spawn test thread")
        };
        let spinner = spawn("procfs-test-spinner", true);
        let sleeper = spawn("procfs-test-sleeper", false);
        let before = sample().expect("sample");
        started.wait();
        // Both threads are parked on `measured` once their 200 ms passed.
        std::thread::sleep(Duration::from_millis(250));
        let d = before.until(&sample().expect("sample"));
        measured.wait();
        spinner.join().expect("spinner");
        sleeper.join().expect("sleeper");
        let spin = d.group("procfs-test-spinner");
        let idle = d.group("procfs-test-sleeper");
        assert!(spin.cpu_ns >= 100_000_000, "spinner cpu {} ns", spin.cpu_ns);
        assert!(idle.cpu_ns < 5_000_000, "sleeper cpu {} ns", idle.cpu_ns);
        assert!(idle.voluntary >= 5, "sleeper switches {}", idle.voluntary);
    }

    #[test]
    fn process_counters_are_readable() {
        read_io().expect("io");
        assert!(peak_rss_mib().expect("rss") > 0.0);
    }
}
