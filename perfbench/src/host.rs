//! The record of host and revision stamped on every result.

use std::process::{Command, Stdio};

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Clone, Copy, Debug)]
pub struct CpuJiffies {
    total: u64,
    steal: u64,
}

impl CpuJiffies {
    /// Reads the `cpu` line; `None` where `/proc/stat` is unavailable.
    pub fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        // user nice system idle iowait irq softirq steal guest guest_nice;
        // guest time is already folded into user and nice.
        let fields: Vec<u64> =
            line.split_whitespace().skip(1).take(8).filter_map(|f| f.parse().ok()).collect();
        if fields.len() < 8 {
            return None;
        }
        Some(Self { total: fields.iter().sum(), steal: fields[7] })
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole.
    pub fn steal_share_until(self, later: Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Whether the running kernel nets steal out of task CPU time
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`): `Some(true)`/`Some(false)` when
/// the kernel config is readable, `None` when it is not.
pub fn steal_netted() -> Option<bool> {
    let release = std::fs::read_to_string("/proc/sys/kernel/osrelease").ok()?;
    let config =
        std::fs::read_to_string(format!("/boot/config-{}", release.trim())).ok().or_else(|| {
            let out = Command::new("gzip")
                .args(["-dc", "/proc/config.gz"])
                .stdin(Stdio::null())
                .stderr(Stdio::null())
                .output()
                .ok()?;
            out.status.success().then(|| String::from_utf8_lossy(&out.stdout).into_owned())
        })?;
    Some(config.lines().any(|l| l.trim() == "CONFIG_PARAVIRT_TIME_ACCOUNTING=y"))
}

/// The git revision of the working directory, or `unknown` outside a
/// git checkout. The search stops at the working directory so a
/// checkout nested in an unrelated repository is not misattributed.
pub fn git_revision() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    let ceiling = cwd.parent().map(|p| p.display().to_string()).unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Filesystem type (`/proc/mounts` name) of the mount holding `path`.
pub fn filesystem_of(path: &std::path::Path) -> String {
    let Ok(path) = path.canonicalize() else { return "unknown".to_owned() };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".to_owned();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let _device = fields.next()?;
            let mount = fields.next()?;
            let fstype = fields.next()?;
            path.starts_with(mount).then(|| (mount.len(), fstype.to_owned()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_owned(), |(_, fstype)| fstype)
}
