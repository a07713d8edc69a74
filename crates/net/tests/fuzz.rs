//! Adversarial exercise of the event loop: torn writes, partial lines,
//! slow readers leaning on the backpressure path, and abrupt closes —
//! the loop must neither panic nor wedge, and every line that made it
//! through intact must have been answered.

use pqos_net::{EventLoop, NetConfig, NetEvent};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

/// Deterministic xorshift64* so failures replay from the printed seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// An echo server with deliberately small buffers so the fuzz run hits
/// the high-water and hard-cap paths quickly.
fn spawn_server() -> (SocketAddr, thread::JoinHandle<()>) {
    let cfg = NetConfig {
        max_line: 4096,
        high_water: 8 * 1024,
        hard_cap: 64 * 1024,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ev = EventLoop::bind(listener, cfg).unwrap();
    let addr = ev.local_addr().unwrap();
    let handle = thread::spawn(move || {
        ev.run(|event, ctx| {
            if let NetEvent::Line(token, line) = event {
                if line == b"quit" {
                    ctx.shutdown();
                } else {
                    let mut reply = Vec::with_capacity(line.len() + 1);
                    reply.extend_from_slice(line);
                    reply.push(b'\n');
                    ctx.send(token, &reply);
                }
            }
        })
        .unwrap();
    });
    (addr, handle)
}

/// Sends `total` numbered lines in randomly torn chunks while reading
/// echoes, and verifies every line comes back verbatim and in order.
fn torn_writer(addr: SocketAddr, rng: &mut Rng, total: usize) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = Vec::new();
    for i in 0..total {
        let pad = "x".repeat(rng.below(64) as usize);
        wire.extend_from_slice(format!("line-{i}-{pad}\n").as_bytes());
    }
    let expected = wire.clone();

    let reader = {
        let mut stream = stream.try_clone().unwrap();
        let want = expected.len();
        thread::spawn(move || {
            let mut got = Vec::new();
            let mut buf = [0u8; 1024];
            while got.len() < want {
                match stream.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => got.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(e) => panic!("echo read failed: {e}"),
                }
            }
            got
        })
    };

    let mut sent = 0;
    while sent < wire.len() {
        let chunk = 1 + rng.below(17) as usize;
        let end = (sent + chunk).min(wire.len());
        stream.write_all(&wire[sent..end]).unwrap();
        sent = end;
        if rng.below(4) == 0 {
            thread::sleep(Duration::from_micros(rng.below(300)));
        }
    }
    let got = reader.join().unwrap();
    assert_eq!(got, expected, "echoed stream diverged");
}

#[test]
fn fuzz_torn_writes_echo_intact() {
    let (addr, handle) = spawn_server();
    let seed = 0xD5_2005u64;
    let mut threads = Vec::new();
    for t in 0..4u64 {
        let mut rng = Rng(seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1);
        threads.push(thread::spawn(move || torn_writer(addr, &mut rng, 200)));
    }
    for t in threads {
        t.join().unwrap();
    }
    TcpStream::connect(addr)
        .unwrap()
        .write_all(b"quit\n")
        .unwrap();
    handle.join().unwrap();
}

#[test]
fn fuzz_abrupt_closers_never_wedge_the_loop() {
    let (addr, handle) = spawn_server();
    let mut rng = Rng(0xFEED_FACE | 1);
    // A horde of clients that write garbage fragments — often without a
    // final newline — and vanish without reading a byte.
    for _ in 0..64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let n = rng.below(600) as usize;
        let mut junk = Vec::with_capacity(n);
        for _ in 0..n {
            // Mostly printable noise, sprinkled with newlines.
            let b = if rng.below(10) == 0 {
                b'\n'
            } else {
                b' ' + (rng.below(90) as u8)
            };
            junk.push(b);
        }
        let _ = stream.write_all(&junk);
        drop(stream);
    }
    // A few clients that send an overlong line (> max_line 4096).
    for _ in 0..4 {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(&vec![b'y'; 16 * 1024]);
        // Server may drop the conn mid-write (EPIPE here) — that is the
        // expected outcome, not a failure.
        thread::sleep(Duration::from_millis(5));
    }
    // The loop is still alive and still correct.
    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    probe.write_all(b"still-there\n").unwrap();
    let mut buf = [0u8; 64];
    let mut got = Vec::new();
    while !got.ends_with(b"\n") {
        let n = probe.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server hung up on the healthy probe");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, b"still-there\n");
    probe.write_all(b"quit\n").unwrap();
    handle.join().unwrap();
}

#[test]
fn fuzz_slow_reader_is_backpressured_then_dropped() {
    // Replies here are NOT driven by the subscriber's own lines: any
    // connection that says "subscribe" gets 4 KiB lines pushed whenever a
    // second connection says "push", the way answers arrive regardless of
    // what the peer is doing. (A paused reader sends no lines, so it could
    // not drive the pushes itself.) A subscriber that never reads must be
    // dropped at the hard cap rather than buffered without bound.
    let cfg = NetConfig {
        max_line: 4096,
        high_water: 8 * 1024,
        hard_cap: 64 * 1024,
    };
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let ev = EventLoop::bind(listener, cfg).unwrap();
    let addr = ev.local_addr().unwrap();
    let handle = thread::spawn(move || {
        let mut subscribers: Vec<u64> = Vec::new();
        let payload = {
            let mut p = vec![b'z'; 4095];
            p.push(b'\n');
            p
        };
        ev.run(move |event, ctx| match event {
            NetEvent::Line(token, line) => {
                if line == b"quit" {
                    ctx.shutdown();
                } else if line == b"subscribe" {
                    subscribers.push(token);
                } else if line == b"push" {
                    // Push hard: kernel socket buffers must fill before
                    // backpressure shows, and they are megabytes deep.
                    for &token in &subscribers {
                        for _ in 0..16 {
                            if ctx.send(token, &payload).is_none() {
                                break;
                            }
                        }
                    }
                } else {
                    let mut reply = line.to_vec();
                    reply.push(b'\n');
                    ctx.send(token, &reply);
                }
            }
            NetEvent::Closed(token) => subscribers.retain(|&t| t != token),
            _ => {}
        })
        .unwrap();
    });

    let mut slow = TcpStream::connect(addr).unwrap();
    slow.write_all(b"subscribe\n").unwrap();
    let mut pusher = TcpStream::connect(addr).unwrap();
    // Never read; the server's eventual close arrives as a reset (it
    // closed with data we refused to consume), surfacing as a write
    // error on these occasional pings.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut dropped = false;
    while Instant::now() < deadline {
        pusher.write_all(b"push\n").unwrap();
        match slow.write_all(b"ping\n") {
            Ok(()) => thread::sleep(Duration::from_millis(20)),
            Err(_) => {
                dropped = true;
                break;
            }
        }
    }
    assert!(dropped, "slow subscriber was never disconnected");

    let mut probe = TcpStream::connect(addr).unwrap();
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    probe.write_all(b"after-pressure\n").unwrap();
    let mut buf = [0u8; 64];
    let mut got = Vec::new();
    while !got.ends_with(b"\n") {
        let n = probe.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server hung up on the healthy probe");
        got.extend_from_slice(&buf[..n]);
    }
    assert_eq!(got, b"after-pressure\n");
    probe.write_all(b"quit\n").unwrap();
    handle.join().unwrap();
}
