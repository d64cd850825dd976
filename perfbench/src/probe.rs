//! Process probes read from `/proc/self`: CPU time for `cpu_per_air_s`
//! and resident memory for `rss_mb`.
//!
//! Where procfs is missing or unreadable the probes return `None`, and
//! the metric built from them reports [`UNAVAILABLE`] instead of
//! panicking.

/// The value a metric reports when its probe cannot be read.
pub const UNAVAILABLE: f64 = -1.0;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat`. Linux exports these in `USER_HZ`, which is 100 on
/// every architecture the kernel's procfs ABI supports.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (all threads,
/// including exited ones), seconds.
fn cpu_seconds() -> Option<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// `utime + stime` from the text of `/proc/<pid>/stat`, seconds. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the command name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// A `Vm*` field of `/proc/self/status` (e.g. `"VmRSS"`), kB.
fn vm_kb(field: &str) -> Option<u64> {
    parse_vm_kb(&std::fs::read_to_string("/proc/self/status").ok()?, field)
}

/// A `Vm*` field from the text of `/proc/<pid>/status`, kB.
pub fn parse_vm_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find(|l| l.split(':').next() == Some(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Memory the program itself adds while a workload runs: taken just
/// before set-up (after the inputs exist), and read back as the peak.
pub struct RssProbe {
    base_kb: Option<u64>,
    peak_reset: bool,
}

impl RssProbe {
    /// Take the baseline now. The kernel's peak (`VmHWM`) is reset to the
    /// current RSS first (`/proc/self/clear_refs`, value 5), so a peak
    /// reached while the inputs were generated does not count.
    pub fn start() -> Self {
        let peak_reset = std::fs::write("/proc/self/clear_refs", "5").is_ok();
        Self {
            base_kb: vm_kb("VmRSS"),
            peak_reset,
        }
    }

    /// Whether the kernel peak was reset at [`RssProbe::start`]; without
    /// it the peak may include input generation.
    pub fn peak_reset(&self) -> bool {
        self.peak_reset
    }

    /// Peak RSS since [`RssProbe::start`] minus the baseline, MB, or
    /// [`UNAVAILABLE`].
    pub fn peak_mb(&self) -> f64 {
        match (self.base_kb, vm_kb("VmHWM")) {
            (Some(base), Some(hwm)) => hwm.saturating_sub(base) as f64 / 1024.0,
            _ => UNAVAILABLE,
        }
    }
}

/// CPU time consumed between [`CpuProbe::start`] and
/// [`CpuProbe::elapsed_s`].
pub struct CpuProbe {
    base: Option<f64>,
}

impl CpuProbe {
    /// Read the process CPU time now.
    pub fn start() -> Self {
        Self {
            base: cpu_seconds(),
        }
    }

    /// CPU seconds since `start`, or `None` where procfs is unavailable.
    pub fn elapsed_s(&self) -> Option<f64> {
        Some(cpu_seconds()? - self.base?)
    }
}
