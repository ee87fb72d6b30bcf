//! Process-level readings from `/proc/self` (Linux). Where a file is
//! missing the reading is an error, so a run never reports a made-up zero.

fn status_field(name: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("no `{name}` in /proc/self/status"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    Ok(status_field("VmHWM:")? / 1024.0)
}

/// Resident set size now (`VmRSS`) in MiB.
pub fn rss_mib() -> Result<f64, String> {
    Ok(status_field("VmRSS:")? / 1024.0)
}

/// Live threads of this process.
pub fn threads() -> Result<f64, String> {
    status_field("Threads:")
}

/// Fields of `/proc/self/stat` after the parenthesised command name, so
/// index 0 is field 3 (`state`) of the whole line.
fn stat_fields() -> Result<Vec<f64>, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    // `state` is a letter; the numeric fields parse, the rest read as NaN.
    Ok(rest
        .split_whitespace()
        .map(|v| v.parse::<f64>().unwrap_or(f64::NAN))
        .collect())
}

fn stat_field(i: usize) -> Result<f64, String> {
    stat_fields()?
        .get(i)
        .copied()
        .filter(|v| v.is_finite())
        .ok_or_else(|| "malformed /proc/self/stat".to_string())
}

/// User + system CPU seconds used by the whole process so far (`utime` and
/// `stime`, fields 14 and 15, in clock ticks of USER_HZ = 100).
pub fn cpu_secs() -> Result<f64, String> {
    Ok((stat_field(11)? + stat_field(12)?) / 100.0)
}

/// Minor page faults of the whole process so far (`minflt`, field 10).
pub fn minor_faults() -> Result<f64, String> {
    stat_field(7)
}

/// CPU seconds the hypervisor has stolen from this machine's vCPUs since
/// boot (the `steal` column of `/proc/stat`, summed over vCPUs).
pub fn steal_secs() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/stat").map_err(|e| format!("reading /proc/stat: {e}"))?;
    // `cpu  user nice system idle iowait irq softirq steal ...`, in clock
    // ticks (USER_HZ = 100).
    stat.lines()
        .next()
        .filter(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .map(|ticks| ticks / 100.0)
        .ok_or_else(|| "malformed /proc/stat".to_string())
}
