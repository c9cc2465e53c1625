//! Deterministic fault injection for the wire transport.
//!
//! [`ChaosProxy`] sits between a client and a [`NetServer`](crate::NetServer)
//! as a frame-aware TCP proxy: it parses the client→server byte stream at
//! frame boundaries and applies a scripted [`Fault`] per proxied connection —
//! connection resets, truncated frames, duplicated frames, stalls — while
//! copying the server→client direction verbatim. Faults trigger on *frame
//! counts*, never on timing, so a given [`ChaosPlan`] replays the same
//! byte-level failure on every run; combined with the seeded plan generator
//! ([`ChaosPlan::seeded`]) and the server's deterministic journal recovery,
//! an entire chaos scenario is reproducible from a single `u64`.
//!
//! Pump kills — the fourth fault class — are injected server-side via
//! [`NetConfig::pump_kills`](crate::NetConfig::pump_kills), since they
//! target the dispatch thread rather than the transport.

use crate::wire::MAX_FRAME_LEN;
use rand::prelude::{Rng, SeedableRng, StdRng};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// One scripted transport fault, applied to the client→server direction of
/// a single proxied connection. Frame indices count client frames from zero
/// **including the `Hello`**.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Forward `after_frames` frames, then sever both directions — the
    /// client sees a connection reset; the server sees an unclean end.
    /// Everything past the cut is tail loss, exactly like a crashed peer.
    Reset {
        /// Client frames forwarded before the cut.
        after_frames: u64,
    },
    /// Forward frame `frame` only up to `keep_bytes` of its encoding
    /// (length prefix included), then sever — the server reads a torn
    /// frame, the classic partial-write crash.
    Truncate {
        /// Zero-based index of the frame to tear.
        frame: u64,
        /// Bytes of the frame's encoding that still arrive.
        keep_bytes: usize,
    },
    /// Forward frame `frame` twice. Safe only for frames whose replay is
    /// idempotent at the server (an `AdvanceTo` to the same time, a
    /// `Resume` ping); duplicating an event frame corrupts the stream by
    /// design — chaos tests use this to check liveness, not parity.
    Duplicate {
        /// Zero-based index of the frame to double.
        frame: u64,
    },
    /// Hold frame `frame` for `millis` before forwarding it, unchanged and
    /// in order: pure latency injection.
    Stall {
        /// Zero-based index of the frame to delay.
        frame: u64,
        /// Delay in milliseconds.
        millis: u64,
    },
}

/// A scripted schedule of faults: entry `i` applies to the `i`-th accepted
/// connection; connections past the end are proxied transparently — which
/// is what lets a retrying client finally succeed.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Per-connection faults, in accept order. `None` = transparent.
    pub conns: Vec<Option<Fault>>,
}

impl ChaosPlan {
    /// A plan that proxies every connection transparently.
    pub fn transparent() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// A seeded random plan: `faulty_conns` connections each get one fault
    /// drawn deterministically from the full vocabulary, with trigger
    /// frames in `[1, frame_span)` (index 0 — the `Hello` — is spared so a
    /// handshake always completes and the fault lands mid-session).
    /// Connections after the faulty prefix are transparent.
    pub fn seeded(seed: u64, faulty_conns: usize, frame_span: u64) -> ChaosPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let span = frame_span.max(2);
        let conns = (0..faulty_conns)
            .map(|_| {
                let frame = rng.gen_range(1..span);
                Some(match rng.gen_range(0..3u32) {
                    0 => Fault::Reset {
                        after_frames: frame,
                    },
                    1 => Fault::Truncate {
                        frame,
                        // At least the length prefix, never the whole frame.
                        keep_bytes: rng.gen_range(1..5usize),
                    },
                    _ => Fault::Stall {
                        frame,
                        millis: rng.gen_range(1..20u64),
                    },
                })
            })
            .collect();
        ChaosPlan { conns }
    }
}

/// A frame-aware TCP proxy applying a [`ChaosPlan`]. Bound to loopback;
/// dropping it (or calling [`shutdown`](ChaosProxy::shutdown)) joins every
/// thread it spawned.
pub struct ChaosProxy {
    addr: SocketAddr,
    upstream: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Arc<Mutex<Vec<Worker>>>,
}

/// One live proxied connection: the thread plus socket handles kept so
/// [`ChaosProxy::shutdown`] can sever a still-copying pair instead of
/// blocking on its join.
struct Worker {
    handle: JoinHandle<()>,
    client: TcpStream,
    server: TcpStream,
}

impl ChaosProxy {
    /// Binds an ephemeral loopback port proxying to `upstream` under `plan`.
    pub fn spawn(upstream: SocketAddr, plan: ChaosPlan) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Arc<Mutex<Vec<Worker>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            std::thread::spawn(move || {
                let mut conn_index = 0usize;
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(client) = stream else { continue };
                    let fault = plan.conns.get(conn_index).copied().flatten();
                    conn_index += 1;
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    let (Ok(client_keep), Ok(server_keep)) =
                        (client.try_clone(), server.try_clone())
                    else {
                        sever(&client, &server);
                        continue;
                    };
                    let handle = std::thread::spawn(move || proxy_conn(client, server, fault));
                    workers.lock().expect("proxy worker list").push(Worker {
                        handle,
                        client: client_keep,
                        server: server_keep,
                    });
                }
            })
        };
        Ok(ChaosProxy {
            addr,
            upstream,
            stop,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The loopback address clients should connect to instead of the server.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins every proxy thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // unblock accept
        let _ = self.upstream; // upstream lives as long as the proxy
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let workers = std::mem::take(&mut *self.workers.lock().expect("proxy worker list"));
        for worker in &workers {
            // Unblock copiers still mid-read so every join below terminates.
            sever(&worker.client, &worker.server);
        }
        for worker in workers {
            let _ = worker.handle.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Severs both directions of both sockets.
fn sever(a: &TcpStream, b: &TcpStream) {
    let _ = a.shutdown(Shutdown::Both);
    let _ = b.shutdown(Shutdown::Both);
}

/// Runs one proxied connection to completion: the server→client direction
/// is a verbatim copy on a helper thread; the client→server direction is
/// re-framed here so faults land on exact frame boundaries.
fn proxy_conn(client: TcpStream, server: TcpStream, fault: Option<Fault>) {
    let downstream = {
        let (Ok(mut server_read), Ok(mut client_write)) = (server.try_clone(), client.try_clone())
        else {
            sever(&client, &server);
            return;
        };
        std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            while let Ok(n) = server_read.read(&mut buf) {
                if n == 0 || client_write.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
            // Propagate the server-side close so a client blocked on a read
            // observes EOF rather than a stall.
            let _ = client_write.shutdown(Shutdown::Both);
        })
    };

    let mut client_read = client.try_clone().ok();
    let mut server_write = server.try_clone().ok();
    if let (Some(client_read), Some(server_write)) = (&mut client_read, &mut server_write) {
        forward_frames(client_read, server_write, fault, &client, &server);
    } else {
        sever(&client, &server);
    }
    let _ = downstream.join();
}

/// Reads client frames one at a time and forwards them, applying `fault`.
fn forward_frames(
    from: &mut TcpStream,
    to: &mut TcpStream,
    fault: Option<Fault>,
    client: &TcpStream,
    server: &TcpStream,
) {
    let mut index: u64 = 0;
    loop {
        if let Some(Fault::Reset { after_frames }) = fault {
            if index == after_frames {
                sever(client, server);
                return;
            }
        }
        let mut prefix = [0u8; 4];
        if from.read_exact(&mut prefix).is_err() {
            // Client went away: half-close towards the server so its reader
            // sees a normal end of stream.
            let _ = to.shutdown(Shutdown::Write);
            return;
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len == 0 || len > MAX_FRAME_LEN {
            // Hostile length: forward the prefix as-is and let the server's
            // codec answer with its typed error.
            if to.write_all(&prefix).is_err() {
                sever(client, server);
            }
            return;
        }
        let mut frame = vec![0u8; 4 + len];
        frame[..4].copy_from_slice(&prefix);
        if from.read_exact(&mut frame[4..]).is_err() {
            let _ = to.shutdown(Shutdown::Write);
            return;
        }
        match fault {
            Some(Fault::Truncate {
                frame: at,
                keep_bytes,
            }) if index == at => {
                let keep = keep_bytes.min(frame.len());
                let _ = to.write_all(&frame[..keep]);
                sever(client, server);
                return;
            }
            Some(Fault::Duplicate { frame: at }) if index == at => {
                if to.write_all(&frame).is_err() || to.write_all(&frame).is_err() {
                    sever(client, server);
                    return;
                }
            }
            Some(Fault::Stall { frame: at, millis }) if index == at => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                if to.write_all(&frame).is_err() {
                    sever(client, server);
                    return;
                }
            }
            _ => {
                if to.write_all(&frame).is_err() {
                    sever(client, server);
                    return;
                }
            }
        }
        index += 1;
    }
}
