//! Socket-level chaos injection: a seed-deterministic fault-injecting
//! stream wrapper for transport robustness tests.
//!
//! [`ChaosStream`] decorates any `Read + Write` transport with the
//! failure modes hostile or broken HTTP clients exhibit: abrupt
//! connection teardown mid-header or mid-body, byte-at-a-time
//! slow-loris writes, stalled readers that never collect their
//! response, and corrupted request bytes. Like
//! `qnat_noise::fault::FaultyBackend`, every fault is **a pure function
//! of `(seed, connection index)`** via the shared `splitmix64` mixing
//! discipline — [`ChaosPlan::derive`] gives connection `k` the same
//! [`ChaosMode`] on every run, so the `transport_chaos` suite replays
//! bitwise-identical abuse schedules.
//!
//! Teardown note: dropping the wrapped half of a `TcpStream` sends a
//! FIN (an abrupt close), not a TCP RST — `SO_LINGER(0)` is not
//! reachable from stable `std`. From the server's perspective both
//! truncate the request mid-read, which is the contract under test:
//! the worker must answer 400/408 or close cleanly, never hang.

use qnat_noise::seed::{derive, splitmix64};
use std::io::{self, Read, Write};
use std::time::Duration;

/// What one chaos connection does to the request it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// Send the request untouched and read the response — the control
    /// arm that proves healthy traffic survives alongside the abuse.
    Clean,
    /// Tear the connection down after `after` bytes of the request were
    /// written — mid-header for small offsets, mid-body for larger
    /// ones. Every later write or read on the stream fails.
    ResetAfter {
        /// Bytes allowed out before the teardown.
        after: usize,
    },
    /// Slow-loris: dribble the request one byte at a time with
    /// `delay_ms` between bytes, abandoning the connection (abrupt
    /// close) after `max_bytes` if the request is longer. The server's
    /// *total* read-time guard, not its per-read socket timeout, is
    /// what bounds this client.
    SlowLoris {
        /// Milliseconds between bytes.
        delay_ms: u64,
        /// Bytes written before the client gives up.
        max_bytes: usize,
    },
    /// Write the request intact, then stall instead of reading the
    /// response for `hold_ms`, then close without reading — the
    /// response must land in the kernel buffer without holding the
    /// worker.
    StallAfterWrite {
        /// Milliseconds the client sits on the unread response.
        hold_ms: u64,
    },
    /// XOR-corrupt roughly one in `1/rate_den` request bytes at
    /// seed-deterministic positions, then send normally. The server
    /// must answer 400 (or close), never crash or hang.
    Corrupt {
        /// Corrupt every byte whose per-position roll lands on
        /// `0 mod rate_den` (clamped ≥ 2).
        rate_den: u64,
    },
}

/// The seed-derived abuse schedule for one connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Chaos seed the plan was derived from.
    pub seed: u64,
    /// Connection index within the chaos run.
    pub conn: u64,
    /// The mode connection `conn` runs under.
    pub mode: ChaosMode,
}

impl ChaosPlan {
    /// Derives connection `conn`'s plan from `seed` with the repo's
    /// standard mixing formula `splitmix64(seed ^ splitmix64(conn))` —
    /// the same discipline `FaultyBackend` uses per job, so chaos runs
    /// are exactly reproducible and independent of scheduling order.
    pub fn derive(seed: u64, conn: u64) -> ChaosPlan {
        let h = derive(seed, conn);
        // Independent parameter streams off the same hash.
        let p1 = splitmix64(h ^ 0xC0FF_EE00);
        let p2 = splitmix64(h ^ 0xDEAD_BEEF);
        let mode = match h % 5 {
            0 => ChaosMode::Clean,
            1 => ChaosMode::ResetAfter {
                // 1..=40 covers the request line and early headers
                // (mid-header); larger requests get cut mid-body.
                after: 1 + (p1 % 40) as usize,
            },
            2 => ChaosMode::SlowLoris {
                delay_ms: 1 + p1 % 5,
                max_bytes: 8 + (p2 % 32) as usize,
            },
            3 => ChaosMode::StallAfterWrite {
                hold_ms: 10 + p1 % 40,
            },
            _ => ChaosMode::Corrupt {
                rate_den: 3 + p1 % 6,
            },
        };
        ChaosPlan { seed, conn, mode }
    }
}

/// A fault-injecting wrapper over any bidirectional stream. Writes pass
/// through [`ChaosMode`]'s schedule; once the mode tears the transport
/// down, the inner stream is dropped (closing the socket for
/// `TcpStream`) and every later operation fails with `BrokenPipe`.
#[derive(Debug)]
pub struct ChaosStream<S: Read + Write> {
    inner: Option<S>,
    mode: ChaosMode,
    /// Request bytes written so far (the reset/corruption cursor).
    written: u64,
}

impl<S: Read + Write> ChaosStream<S> {
    /// Wraps `inner` under `plan`'s mode.
    pub fn new(inner: S, plan: ChaosPlan) -> Self {
        ChaosStream {
            inner: Some(inner),
            mode: plan.mode,
            written: 0,
        }
    }

    /// The wrapper's mode (tests branch their assertions on it).
    pub fn mode(&self) -> ChaosMode {
        self.mode
    }

    /// Drops the inner stream — the abrupt-close primitive.
    pub fn tear_down(&mut self) {
        self.inner = None;
    }

    /// `true` once the chaos schedule (or an explicit
    /// [`ChaosStream::tear_down`]) closed the transport.
    pub fn torn_down(&self) -> bool {
        self.inner.is_none()
    }

    fn gone() -> io::Error {
        io::Error::new(io::ErrorKind::BrokenPipe, "chaos tore the connection down")
    }

    fn inner_mut(&mut self) -> io::Result<&mut S> {
        self.inner.as_mut().ok_or_else(Self::gone)
    }

    /// Whether the byte at absolute request offset `pos` gets corrupted
    /// under `Corrupt { rate_den }` — position-keyed, so the schedule is
    /// independent of write-call chunking.
    fn corrupts_at(rate_den: u64, pos: u64) -> bool {
        splitmix64(pos ^ 0x5EED_CAFE).is_multiple_of(rate_den)
    }
}

impl<S: Read + Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        match self.mode {
            ChaosMode::Clean | ChaosMode::StallAfterWrite { .. } => {
                let n = self.inner_mut()?.write(buf)?;
                self.written += n as u64;
                Ok(n)
            }
            ChaosMode::ResetAfter { after } => {
                let left = (after as u64).saturating_sub(self.written);
                if left == 0 {
                    self.tear_down();
                    return Err(Self::gone());
                }
                let n = buf.len().min(usize::try_from(left).unwrap_or(usize::MAX));
                let n = self.inner_mut()?.write(&buf[..n])?;
                self.written += n as u64;
                if self.written >= after as u64 {
                    // Flush what dribbled out, then slam the door.
                    let _ = self.inner_mut().and_then(|s| s.flush());
                    self.tear_down();
                }
                Ok(n)
            }
            ChaosMode::SlowLoris {
                delay_ms,
                max_bytes,
            } => {
                if self.written >= max_bytes as u64 {
                    self.tear_down();
                    return Err(Self::gone());
                }
                std::thread::sleep(Duration::from_millis(delay_ms));
                let inner = self.inner_mut()?;
                let n = inner.write(&buf[..1])?;
                inner.flush()?;
                self.written += n as u64;
                Ok(n)
            }
            ChaosMode::Corrupt { rate_den } => {
                let den = rate_den.max(2);
                let start = self.written;
                let mangled: Vec<u8> = buf
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| {
                        if Self::corrupts_at(den, start + i as u64) {
                            b ^ 0xA5
                        } else {
                            b
                        }
                    })
                    .collect();
                let n = self.inner_mut()?.write(&mangled)?;
                self.written += n as u64;
                Ok(n)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner_mut()?.flush()
    }
}

impl<S: Read + Write> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if let ChaosMode::StallAfterWrite { hold_ms } = self.mode {
            // Sit on the response, then walk away without reading it.
            std::thread::sleep(Duration::from_millis(hold_ms));
            self.tear_down();
            return Ok(0);
        }
        self.inner_mut()?.read(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory duplex: writes land in `sent`, reads drain `feed`.
    struct Loopback {
        sent: Vec<u8>,
        feed: io::Cursor<Vec<u8>>,
    }

    impl Loopback {
        fn new(feed: &[u8]) -> Self {
            Loopback {
                sent: Vec::new(),
                feed: io::Cursor::new(feed.to_vec()),
            }
        }
    }

    impl Read for Loopback {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.feed.read(buf)
        }
    }

    impl Write for Loopback {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn plans_are_seed_deterministic_and_cover_every_mode() {
        let plans: Vec<ChaosPlan> = (0..64).map(|k| ChaosPlan::derive(0xABCD, k)).collect();
        let replay: Vec<ChaosPlan> = (0..64).map(|k| ChaosPlan::derive(0xABCD, k)).collect();
        assert_eq!(plans, replay, "derivation is pure in (seed, conn)");
        let mut seen = [false; 5];
        for p in &plans {
            let idx = match p.mode {
                ChaosMode::Clean => 0,
                ChaosMode::ResetAfter { .. } => 1,
                ChaosMode::SlowLoris { .. } => 2,
                ChaosMode::StallAfterWrite { .. } => 3,
                ChaosMode::Corrupt { .. } => 4,
            };
            seen[idx] = true;
        }
        assert_eq!(seen, [true; 5], "64 connections exercise every mode");
        // A different seed reshuffles the schedule.
        let other: Vec<ChaosPlan> = (0..64).map(|k| ChaosPlan::derive(0xEF01, k)).collect();
        assert_ne!(
            plans.iter().map(|p| p.mode).collect::<Vec<_>>(),
            other.iter().map(|p| p.mode).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reset_cuts_exactly_at_the_offset() {
        let plan = ChaosPlan {
            seed: 0,
            conn: 0,
            mode: ChaosMode::ResetAfter { after: 5 },
        };
        let mut s = ChaosStream::new(Loopback::new(b""), plan);
        assert_eq!(s.write(b"abc").expect("under the cut"), 3);
        assert_eq!(s.write(b"defgh").expect("partial up to the cut"), 2);
        assert!(s.torn_down(), "the cut closes the stream");
        assert!(s.write(b"x").is_err(), "writes after the cut fail");
        assert!(s.read(&mut [0u8; 4]).is_err(), "reads after the cut fail");
    }

    #[test]
    fn slow_loris_dribbles_single_bytes_then_gives_up() {
        let plan = ChaosPlan {
            seed: 0,
            conn: 0,
            mode: ChaosMode::SlowLoris {
                delay_ms: 0,
                max_bytes: 3,
            },
        };
        let mut s = ChaosStream::new(Loopback::new(b""), plan);
        let mut sent = 0usize;
        while sent < 3 {
            sent += s.write(&b"abcdef"[sent..]).expect("dribble");
        }
        assert!(s.write(b"rest").is_err(), "gives up past max_bytes");
        assert!(s.torn_down());
    }

    #[test]
    fn corruption_is_deterministic_and_chunking_invariant() {
        let plan = ChaosPlan {
            seed: 0,
            conn: 0,
            mode: ChaosMode::Corrupt { rate_den: 3 },
        };
        let payload = b"GET /healthz HTTP/1.1\r\n\r\n";
        let mut one = ChaosStream::new(Loopback::new(b""), plan);
        one.write_all(payload).expect("whole write");
        let mut split = ChaosStream::new(Loopback::new(b""), plan);
        split.write_all(&payload[..7]).expect("head");
        split.write_all(&payload[7..]).expect("tail");
        let whole = one.inner.take().expect("alive").sent;
        let parts = split.inner.take().expect("alive").sent;
        assert_eq!(whole, parts, "corruption keys on absolute offsets");
        assert_ne!(whole, payload.to_vec(), "some byte actually flipped");
    }

    #[test]
    fn stall_after_write_passes_the_request_then_never_reads() {
        let plan = ChaosPlan {
            seed: 0,
            conn: 0,
            mode: ChaosMode::StallAfterWrite { hold_ms: 1 },
        };
        let mut s = ChaosStream::new(Loopback::new(b"HTTP/1.1 200 OK\r\n\r\n"), plan);
        s.write_all(b"GET / HTTP/1.1\r\n\r\n")
            .expect("request goes out");
        assert_eq!(
            s.read(&mut [0u8; 8]).expect("stall reads as EOF"),
            0,
            "the response is abandoned unread"
        );
        assert!(s.torn_down());
    }
}
