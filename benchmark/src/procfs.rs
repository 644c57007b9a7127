//! CPU time and peak resident memory of this process, from `/proc/self`.

/// Kernel clock ticks per second as `/proc/<pid>/stat` reports them.
/// `USER_HZ` is 100 on every Linux ABI, independent of the kernel's own
/// tick rate.
const USER_HZ: f64 = 100.0;

/// Cumulative user and system CPU seconds of the whole process (all
/// threads, including ones that already exited).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// is parenthesised and may itself contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes { user_s: utime as f64 / USER_HZ, sys_s: stime as f64 / USER_HZ })
}

/// Parses the `VmHWM` (peak resident set) line of `/proc/<pid>/status`
/// into megabytes (the kernel reports kB = 1024 bytes).
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = line.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb as f64 / 1024.0)
}

/// This process's CPU times right now.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// This process's peak resident set so far, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    parse_vm_hwm_mb(&std::fs::read_to_string("/proc/self/status").ok()?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "4242 (a b) c) R 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 75 0 0 20 0 3 0 12345 1000000 200 18446744073709551615";
        assert_eq!(parse_stat(line), Some(CpuTimes { user_s: 2.5, sys_s: 0.75 }));
    }

    #[test]
    fn stat_parser_rejects_truncated_input() {
        assert_eq!(parse_stat("1 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parens at all"), None);
    }

    #[test]
    fn vm_hwm_parser_reads_kilobytes() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(20.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tbench\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_procfs_is_readable() {
        let cpu = cpu_times().expect("/proc/self/stat parses");
        assert!(cpu.user_s >= 0.0 && cpu.sys_s >= 0.0);
        assert!(peak_rss_mb().expect("/proc/self/status has VmHWM") > 0.0);
    }
}
