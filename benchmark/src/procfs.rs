//! Process counters from `/proc/self`: the host kernel's view of the
//! run, read from outside the program.
//!
//! Caveats (see the benchmark's README): `utime`/`stime` advance in
//! clock ticks (10 ms at the usual `CLK_TCK` of 100), and `syscw`
//! counts `write`-family calls only — the `recv`-family reads that
//! `TcpStream::read` makes are not in `syscr`, so reads are not
//! reported at all.

use std::fs;

/// Clock ticks per second for `/proc/self/stat` times (`CLK_TCK`; 100
/// on every mainstream Linux configuration).
const CLK_TCK: f64 = 100.0;

/// One reading of the process counters. Fields read as zero where
/// `/proc` is unavailable.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ProcSample {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// `write`-family system calls (`syscw`).
    pub write_syscalls: u64,
    /// Bytes passed to those calls (`wchar`), sockets included.
    pub write_bytes: u64,
    /// Voluntary context switches (blocking, sleeping).
    pub vol_ctxsw: u64,
    /// Involuntary context switches (preemption).
    pub invol_ctxsw: u64,
}

fn field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').trim().parse().ok())
        .unwrap_or(0)
}

impl ProcSample {
    /// Reads the current values.
    pub fn read() -> ProcSample {
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name; utime and stime
        // are the 14th and 15th fields overall (12th and 13th here).
        let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
        let ticks: Vec<u64> = after
            .split_whitespace()
            .skip(11)
            .take(2)
            .map(|t| t.parse().unwrap_or(0))
            .collect();
        let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
        let io = fs::read_to_string("/proc/self/io").unwrap_or_default();
        ProcSample {
            user_s: ticks.first().copied().unwrap_or(0) as f64 / CLK_TCK,
            sys_s: ticks.get(1).copied().unwrap_or(0) as f64 / CLK_TCK,
            write_syscalls: field(&io, "syscw"),
            write_bytes: field(&io, "wchar"),
            vol_ctxsw: field(&status, "voluntary_ctxt_switches"),
            invol_ctxsw: field(&status, "nonvoluntary_ctxt_switches"),
        }
    }

    /// Counter increments since `base`.
    pub fn since(&self, base: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - base.user_s,
            sys_s: self.sys_s - base.sys_s,
            write_syscalls: self.write_syscalls.saturating_sub(base.write_syscalls),
            write_bytes: self.write_bytes.saturating_sub(base.write_bytes),
            vol_ctxsw: self.vol_ctxsw.saturating_sub(base.vol_ctxsw),
            invol_ctxsw: self.invol_ctxsw.saturating_sub(base.invol_ctxsw),
        }
    }

    /// Field-wise sum, for totals over several windows.
    pub fn plus(&self, o: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s + o.user_s,
            sys_s: self.sys_s + o.sys_s,
            write_syscalls: self.write_syscalls + o.write_syscalls,
            write_bytes: self.write_bytes + o.write_bytes,
            vol_ctxsw: self.vol_ctxsw + o.vol_ctxsw,
            invol_ctxsw: self.invol_ctxsw + o.invol_ctxsw,
        }
    }

    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_style_fields() {
        let text = "voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(field(text, "voluntary_ctxt_switches"), 12);
        assert_eq!(field(text, "nonvoluntary_ctxt_switches"), 3);
        assert_eq!(field("syscw: 41\n", "syscw"), 41);
        assert_eq!(field("", "syscw"), 0);
    }
}
