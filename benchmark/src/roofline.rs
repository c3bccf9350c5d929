//! The in-run loopback roofline: a raw single-thread nonblocking pump
//! that moves a given number of bytes over a given number of loopback
//! socket pairs, with none of RDMC's framing, parsing or protocol. Run
//! in the same invocation as the workload it bounds, it gives a
//! machine-relative yardstick for the TCP backend's aggregate rate.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

const CHUNK: usize = 64 << 10;

struct Pair {
    tx: TcpStream,
    rx: TcpStream,
    to_send: u64,
    to_recv: u64,
}

/// Moves `bytes` in total, split evenly over `connections` loopback
/// socket pairs, writing round-robin from a shared zero buffer and
/// reading into a discard buffer. Returns the achieved rate in Gb/s.
///
/// # Errors
///
/// Any socket error.
pub fn pump_gbps(connections: usize, bytes: u64) -> io::Result<f64> {
    let connections = connections.max(1);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let share = bytes / connections as u64;
    let mut pairs = Vec::with_capacity(connections);
    for i in 0..connections {
        let tx = TcpStream::connect(addr)?;
        let (rx, _) = listener.accept()?;
        for s in [&tx, &rx] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        let n = if i == 0 {
            bytes - share * (connections as u64 - 1)
        } else {
            share
        };
        pairs.push(Pair {
            tx,
            rx,
            to_send: n,
            to_recv: n,
        });
    }
    let zeros = vec![0u8; CHUNK];
    let mut sink = vec![0u8; 4 * CHUNK];
    let start = Instant::now();
    let mut remaining = pairs.iter().filter(|p| p.to_recv > 0).count();
    while remaining > 0 {
        for p in pairs.iter_mut().filter(|p| p.to_recv > 0) {
            while p.to_send > 0 {
                let take = p.to_send.min(CHUNK as u64) as usize;
                match p.tx.write(&zeros[..take]) {
                    Ok(n) => p.to_send -= n as u64,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            loop {
                match p.rx.read(&mut sink) {
                    Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                    Ok(n) => {
                        p.to_recv -= n as u64;
                        if p.to_recv == 0 {
                            remaining -= 1;
                            break;
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(bytes as f64 * 8.0 / start.elapsed().as_secs_f64() / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pump_moves_uneven_totals() {
        let gbps = pump_gbps(3, (1 << 20) + 7).expect("loopback pump");
        assert!(gbps > 0.0);
    }
}
