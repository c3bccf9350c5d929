//! Deterministic trace exporters.
//!
//! Two formats, both hand-rolled (the workspace vendors no JSON crate)
//! and both byte-stable given the same event stream, which is what lets
//! the golden-trace tests compare bit-for-bit:
//!
//! - [`to_jsonl`] — one JSON object per event per line, keys in a fixed
//!   order. This is the golden-trace format.
//! - [`to_chrome_trace`] — the Chrome `trace_event` JSON format; open
//!   the file in `chrome://tracing` or <https://ui.perfetto.dev>. Each
//!   group renders as a process with one thread per rank, fabric and
//!   network events land on process 0, flows render as async spans and
//!   block sends as duration spans.

use crate::{EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;

/// A JSON-serializable field value.
enum Val {
    U(u64),
    F(f64),
    B(bool),
    L(Vec<u64>),
}

fn list32(xs: &[u32]) -> Val {
    Val::L(xs.iter().map(|&x| u64::from(x)).collect())
}

/// The stable wire name and field list of an event kind. Shared by both
/// exporters so the two formats can never drift apart.
fn fields(kind: &EventKind) -> (&'static str, Vec<(&'static str, Val)>) {
    use EventKind::*;
    use Val::{B, F, U};
    match kind {
        FlowStarted { flow, bytes } => (
            "flow_started",
            vec![("flow", U(*flow)), ("bytes", U(*bytes))],
        ),
        FlowRateChanged { flow, gbps } => (
            "flow_rate_changed",
            vec![("flow", U(*flow)), ("gbps", F(*gbps))],
        ),
        FlowFinished { flow, aborted } => (
            "flow_finished",
            vec![("flow", U(*flow)), ("aborted", B(*aborted))],
        ),
        SendPosted {
            conn,
            end,
            wr,
            bytes,
        } => (
            "send_posted",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
                ("bytes", U(*bytes)),
            ],
        ),
        RecvPosted { conn, end, wr } => (
            "recv_posted",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
            ],
        ),
        WritePosted {
            conn,
            end,
            tag,
            bytes,
        } => (
            "write_posted",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("tag", U(*tag)),
                ("bytes", U(*bytes)),
            ],
        ),
        WrCompleted {
            conn,
            end,
            wr,
            recv,
        } => (
            "wr_completed",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
                ("recv", B(*recv)),
            ],
        ),
        WriteDelivered { conn, end, tag } => (
            "write_delivered",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("tag", U(*tag)),
            ],
        ),
        RnrArmed { conn, dir } => (
            "rnr_armed",
            vec![("conn", U(u64::from(*conn))), ("dir", U(u64::from(*dir)))],
        ),
        WrFlushed {
            conn,
            end,
            wr,
            recv,
        } => (
            "wr_flushed",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
                ("recv", B(*recv)),
            ],
        ),
        QpBroken { conn } => ("qp_broken", vec![("conn", U(u64::from(*conn)))]),
        NodeCrashed => ("node_crashed", vec![]),
        PayloadDropped { conn, end, wr, imm } => (
            "payload_dropped",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
                ("imm", U(*imm)),
            ],
        ),
        PayloadCorrupted { conn, end, wr, imm } => (
            "payload_corrupted",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("wr", U(*wr)),
                ("imm", U(*imm)),
            ],
        ),
        SendAdmitted {
            to,
            block,
            queued_ns,
        } => (
            "send_admitted",
            vec![
                ("to", U(u64::from(*to))),
                ("block", U(u64::from(*block))),
                ("queued_ns", U(*queued_ns)),
            ],
        ),
        MessageSubmitted { size } => ("message_submitted", vec![("size", U(*size))]),
        TransferStarted { size, blocks, root } => (
            "transfer_started",
            vec![
                ("size", U(*size)),
                ("blocks", U(u64::from(*blocks))),
                ("root", B(*root)),
            ],
        ),
        ResumeStarted {
            size,
            blocks,
            held,
            already_delivered,
        } => (
            "resume_started",
            vec![
                ("size", U(*size)),
                ("blocks", U(u64::from(*blocks))),
                ("held", list32(held)),
                ("already_delivered", B(*already_delivered)),
            ],
        ),
        BufferRequested { size } => ("buffer_requested", vec![("size", U(*size))]),
        ReadyGranted { to } => ("ready_granted", vec![("to", U(u64::from(*to)))]),
        ReadyHeard { from } => ("ready_heard", vec![("from", U(u64::from(*from)))]),
        BlockSendIssued {
            to,
            block,
            step,
            bytes,
            epoch,
        } => (
            "block_send_issued",
            vec![
                ("to", U(u64::from(*to))),
                ("block", U(u64::from(*block))),
                ("step", U(u64::from(*step))),
                ("bytes", U(*bytes)),
                ("epoch", U(*epoch)),
            ],
        ),
        BlockSendCompleted { to } => ("block_send_completed", vec![("to", U(u64::from(*to)))]),
        BlockArrived {
            from,
            block,
            step,
            first,
            epoch,
        } => (
            "block_arrived",
            vec![
                ("from", U(u64::from(*from))),
                ("block", U(u64::from(*block))),
                ("step", U(u64::from(*step))),
                ("first", B(*first)),
                ("epoch", U(*epoch)),
            ],
        ),
        Delivered { size } => ("delivered", vec![("size", U(*size))]),
        Wedged { failed } => ("wedged", vec![("failed", U(u64::from(*failed)))]),
        InputIgnored { peer, failure } => (
            "input_ignored",
            vec![("peer", U(u64::from(*peer))), ("failure", B(*failure))],
        ),
        EpochInstalled {
            epoch,
            rank,
            num_nodes,
            resumes,
            resume_blocks_out,
        } => (
            "epoch_installed",
            vec![
                ("epoch", U(*epoch)),
                ("rank", U(u64::from(*rank))),
                ("num_nodes", U(u64::from(*num_nodes))),
                ("resumes", U(u64::from(*resumes))),
                ("resume_blocks_out", U(u64::from(*resume_blocks_out))),
            ],
        ),
        Suspected { failed } => ("suspected", vec![("failed", U(u64::from(*failed)))]),
        ViewMerged { from, newly } => (
            "view_merged",
            vec![
                ("from", U(u64::from(*from))),
                ("newly", U(u64::from(*newly))),
            ],
        ),
        ReconfigInstalled {
            epoch,
            survivors,
            removed,
            abandoned,
            resumed_blocks,
            forced,
        } => (
            "reconfig_installed",
            vec![
                ("epoch", U(*epoch)),
                ("survivors", list32(survivors)),
                ("removed", list32(removed)),
                ("abandoned", Val::L(abandoned.clone())),
                ("resumed_blocks", U(*resumed_blocks)),
                ("forced", B(*forced)),
            ],
        ),
        NackSent {
            conn,
            end,
            seq,
            span,
        } => (
            "nack_sent",
            vec![
                ("conn", U(u64::from(*conn))),
                ("end", U(u64::from(*end))),
                ("seq", U(*seq)),
                ("span", U(*span)),
            ],
        ),
        RepairSent { conn, seq } => (
            "repair_sent",
            vec![("conn", U(u64::from(*conn))), ("seq", U(*seq))],
        ),
        RepairDelivered { conn, seq, coded } => (
            "repair_delivered",
            vec![
                ("conn", U(u64::from(*conn))),
                ("seq", U(*seq)),
                ("coded", B(*coded)),
            ],
        ),
        ParitySent { conn, seq, data } => (
            "parity_sent",
            vec![
                ("conn", U(u64::from(*conn))),
                ("seq", U(*seq)),
                ("data", U(*data)),
            ],
        ),
        LossEscalated { conn } => ("loss_escalated", vec![("conn", U(u64::from(*conn)))]),
        AtomicSubmitted {
            slot,
            sender,
            null,
            size,
        } => (
            "atomic_submitted",
            vec![
                ("slot", U(*slot)),
                ("sender", U(u64::from(*sender))),
                ("null", B(*null)),
                ("size", U(*size)),
            ],
        ),
        FrontierAdvanced { sender, frontier } => (
            "frontier_advanced",
            vec![
                ("sender", U(u64::from(*sender))),
                ("frontier", U(*frontier)),
            ],
        ),
        StableFrontier { sender, frontier } => (
            "stable_frontier",
            vec![
                ("sender", U(u64::from(*sender))),
                ("frontier", U(*frontier)),
            ],
        ),
        AtomicDelivered {
            slot,
            sender,
            seq,
            size,
        } => (
            "atomic_delivered",
            vec![
                ("slot", U(*slot)),
                ("sender", U(u64::from(*sender))),
                ("seq", U(*seq)),
                ("size", U(*size)),
            ],
        ),
        AtomicTrimmed { slot } => ("atomic_trimmed", vec![("slot", U(*slot))]),
    }
}

fn write_val(out: &mut String, v: &Val) {
    match v {
        Val::U(x) => {
            let _ = write!(out, "{x}");
        }
        // `{:?}` is Rust's shortest-roundtrip float form; always a
        // valid JSON number for the finite rates we record.
        Val::F(x) => {
            let _ = write!(out, "{x:?}");
        }
        Val::B(x) => {
            let _ = write!(out, "{x}");
        }
        Val::L(xs) => {
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{x}");
            }
            out.push(']');
        }
    }
}

/// Serializes events as JSON Lines, one event per line, with a fixed
/// key order: `seq`, `t_ns`, the present scope coordinates (`node`,
/// `group`, `rank`), `kind`, then the kind's fields. Byte-stable for a
/// given event stream — the golden-trace format.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let (name, fs) = fields(&ev.kind);
        let _ = write!(out, "{{\"seq\":{},\"t_ns\":{}", ev.seq, ev.t_ns);
        if let Some(n) = ev.scope.node {
            let _ = write!(out, ",\"node\":{n}");
        }
        if let Some(g) = ev.scope.group {
            let _ = write!(out, ",\"group\":{g}");
        }
        if let Some(r) = ev.scope.rank {
            let _ = write!(out, ",\"rank\":{r}");
        }
        let _ = write!(out, ",\"kind\":\"{name}\"");
        for (k, v) in &fs {
            let _ = write!(out, ",\"{k}\":");
            write_val(&mut out, v);
        }
        out.push_str("}\n");
    }
    out
}

/// Microseconds with nanosecond precision, rendered without going
/// through floating point so the output is byte-stable.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn args_json(fs: &[(&'static str, Val)]) -> String {
    let mut out = String::new();
    out.push('{');
    for (i, (k, v)) in fs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{k}\":");
        write_val(&mut out, v);
    }
    out.push('}');
    out
}

/// Serializes events in the Chrome `trace_event` JSON format.
///
/// Layout: process 0 is the fabric/network (one thread per node);
/// group `g` is process `g + 1` (one thread per rank). Flows render as
/// async spans, block sends as duration spans from issue to sender-side
/// completion, and everything else as instant events.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::new();

    // Process-name metadata, fabric first then groups in order.
    let groups: BTreeSet<u32> = events.iter().filter_map(|e| e.scope.group).collect();
    entries.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"fabric\"}}"
            .to_string(),
    );
    for g in &groups {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"group {g}\"}}}}",
            g + 1
        ));
    }

    // Pending block sends awaiting their sender-side completion,
    // FIFO per (group, rank, receiver) — the engine completes sends to
    // one peer in issue order.
    type SendKey = (u32, u32, u32);
    let mut pending: BTreeMap<SendKey, VecDeque<(u64, u32, u32, u64)>> = BTreeMap::new();

    for ev in events {
        let (pid, tid) = match ev.scope.group {
            Some(g) => (g + 1, ev.scope.rank.unwrap_or(0)),
            None => (0, ev.scope.node.unwrap_or(0)),
        };
        let ts = micros(ev.t_ns);
        let (name, fs) = fields(&ev.kind);
        match &ev.kind {
            EventKind::FlowStarted { flow, .. } => {
                entries.push(format!(
                    "{{\"name\":\"flow\",\"cat\":\"net\",\"ph\":\"b\",\"id\":{flow},\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                    args_json(&fs)
                ));
            }
            EventKind::FlowFinished { flow, .. } => {
                entries.push(format!(
                    "{{\"name\":\"flow\",\"cat\":\"net\",\"ph\":\"e\",\"id\":{flow},\
                     \"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                    args_json(&fs)
                ));
            }
            EventKind::BlockSendIssued {
                to,
                block,
                step,
                bytes,
                ..
            } => {
                if let (Some(g), Some(r)) = (ev.scope.group, ev.scope.rank) {
                    pending
                        .entry((g, r, *to))
                        .or_default()
                        .push_back((ev.t_ns, *block, *step, *bytes));
                }
                entries.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                    args_json(&fs)
                ));
            }
            EventKind::BlockSendCompleted { to } => {
                let issued = ev
                    .scope
                    .group
                    .zip(ev.scope.rank)
                    .and_then(|(g, r)| pending.get_mut(&(g, r, *to))?.pop_front());
                if let Some((t0, block, step, bytes)) = issued {
                    entries.push(format!(
                        "{{\"name\":\"send b{block} -> r{to}\",\"cat\":\"send\",\"ph\":\"X\",\
                         \"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\
                         \"args\":{{\"to\":{to},\"block\":{block},\"step\":{step},\
                         \"bytes\":{bytes}}}}}",
                        micros(t0),
                        micros(ev.t_ns.saturating_sub(t0)),
                    ));
                } else {
                    entries.push(format!(
                        "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                        args_json(&fs)
                    ));
                }
            }
            _ => {
                entries.push(format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                     \"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                    args_json(&fs)
                ));
            }
        }
    }

    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(e);
        if i + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Scope};

    fn sample() -> Vec<TraceEvent> {
        let r = Recorder::full();
        r.set_now(1_000);
        r.record(Scope::group_rank(0, 0), || EventKind::MessageSubmitted {
            size: 64,
        });
        r.record(Scope::group_rank(0, 0), || EventKind::BlockSendIssued {
            to: 1,
            block: 0,
            step: 0,
            bytes: 64,
            epoch: 0,
        });
        r.record_at(1_500, Scope::none(), || EventKind::FlowStarted {
            flow: 7,
            bytes: 64,
        });
        r.set_now(2_345);
        r.record(Scope::none(), || EventKind::FlowRateChanged {
            flow: 7,
            gbps: 12.5,
        });
        r.record(Scope::none(), || EventKind::FlowFinished {
            flow: 7,
            aborted: false,
        });
        r.record(Scope::group_rank(0, 0), || EventKind::BlockSendCompleted {
            to: 1,
        });
        r.record(Scope::group_rank(0, 1), || EventKind::BlockArrived {
            from: 0,
            block: 0,
            step: 0,
            first: true,
            epoch: 0,
        });
        r.record(Scope::group_rank(0, 1), || EventKind::Delivered {
            size: 64,
        });
        r.events()
    }

    #[test]
    fn jsonl_is_stable_and_line_per_event() {
        let ev = sample();
        let a = to_jsonl(&ev);
        let b = to_jsonl(&ev);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), ev.len());
        assert!(a.starts_with(
            "{\"seq\":0,\"t_ns\":1000,\"group\":0,\"rank\":0,\
             \"kind\":\"message_submitted\",\"size\":64}"
        ));
        assert!(a.contains("\"kind\":\"flow_rate_changed\",\"flow\":7,\"gbps\":12.5"));
    }

    #[test]
    fn chrome_trace_pairs_sends_and_flows() {
        let ev = sample();
        let out = to_chrome_trace(&ev);
        assert!(
            out.contains("\"ph\":\"X\""),
            "block send should render as a span"
        );
        assert!(out.contains("\"ph\":\"b\"") && out.contains("\"ph\":\"e\""));
        assert!(out.contains("\"name\":\"send b0 -> r1\""));
        assert!(out.contains("\"ts\":1.000,\"dur\":1.345"));
        assert_eq!(
            out,
            to_chrome_trace(&ev),
            "chrome export must be deterministic"
        );
    }
}
