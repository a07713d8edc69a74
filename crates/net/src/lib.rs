//! `pqos-net`: a hand-rolled nonblocking connection layer.
//!
//! One thread owns every socket. On linux/x86_64 it sleeps in a raw
//! `epoll_wait` (no libc — see the private `sys` module); elsewhere a portable polling
//! fallback drives the same nonblocking sockets. The loop speaks a
//! newline-delimited framing: callers receive whole lines and queue
//! whole replies, and never touch a socket directly.
//!
//! ```text
//!            accept/read/write readiness        callback
//!   kernel ────────────────────────────▶ loop ───────────▶ NetEvent
//!                                         ▲                  │
//!   other threads ── Waker::wake() ───────┘     Ctx::send ◀──┘
//! ```
//!
//! The loop runs in passes: sleep, read what is ready, run the callback
//! over what arrived (every `Line`, then one `Batch`), then write.
//! [`Ctx::send`] only queues; once the pass's callbacks have run, every
//! connection they queued bytes on gets one `write` — however many
//! replies it was sent — and only then do the
//! [`NetEvent::Flushed`] notifications go out. Likewise any number of
//! [`Waker::wake`] calls between two sleeps cost one wake-up.
//!
//! Events delivered to the callback:
//! - [`NetEvent::Opened`] — a connection was accepted.
//! - [`NetEvent::Line`] — one complete line, without the trailing `\n`.
//! - [`NetEvent::Batch`] — once per pass that delivered a line, after
//!   the last of them: a callback that queues work on `Line` does it
//!   here, and what it sends leaves in the same pass's write.
//! - [`NetEvent::Flushed`] — write progress: the total number of bytes
//!   flushed to the socket so far (pairs with the watermark returned by
//!   [`Ctx::send`] for at-the-wire accounting).
//! - [`NetEvent::Closed`] — the connection is gone (peer close, error,
//!   overlong line, or backpressure overflow). Its token is dead.
//! - [`NetEvent::Wake`] — some thread called [`Waker::wake`]; drain
//!   whatever queue that thread filled.
//! - [`NetEvent::Tick`] — periodic heartbeat (`NetConfig::tick`) for
//!   housekeeping such as drain polling.
//!
//! Backpressure is bounded on both sides: a line longer than
//! `max_line` kills the connection, and a peer that stops reading has
//! its reads paused at `high_water` queued reply bytes and is dropped
//! at `hard_cap` — both judged on bytes its socket has refused, not on
//! what one pass happened to queue.

mod driver;
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sys;

pub use driver::Waker;

use driver::{Poll, Ready};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Identifies one connection for the lifetime of the loop. Tokens are
/// never reused.
pub type Token = u64;

const LISTENER_TOKEN: Token = 0;
const READ_CHUNK: usize = 64 * 1024;
/// How long a draining loop waits for unflushed replies before giving
/// up on their connections.
const DRAIN_GRACE: Duration = Duration::from_secs(3);

/// Tuning knobs for the event loop. The defaults fit the JSON-lines
/// protocol: requests are a few hundred bytes, replies likewise (dumps
/// can reach a few hundred KiB).
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// A connection sending a line longer than this is dropped.
    pub max_line: usize,
    /// Queued reply bytes at which the connection's reads are paused.
    pub high_water: usize,
    /// Queued reply bytes at which a slow reader is dropped.
    pub hard_cap: usize,
    /// Cadence of [`NetEvent::Tick`].
    pub tick: Duration,
}

impl Default for NetConfig {
    fn default() -> NetConfig {
        NetConfig {
            max_line: 1024 * 1024,
            high_water: 256 * 1024,
            hard_cap: 4 * 1024 * 1024,
            tick: Duration::from_millis(200),
        }
    }
}

/// What the loop tells its callback. Line payloads exclude the
/// trailing newline.
#[derive(Debug)]
pub enum NetEvent<'a> {
    Opened(Token),
    Line(Token, &'a [u8]),
    /// The pass's last `Line` has been delivered: what the lines asked
    /// for can be worked off now and its replies still leave in this
    /// pass's write.
    Batch,
    /// Total bytes flushed to this connection's socket so far.
    Flushed(Token, u64),
    Closed(Token),
    Wake,
    Tick,
}

#[cfg(test)]
thread_local! {
    /// `write` calls issued on connection sockets by this thread's loop.
    static SOCKET_WRITES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

struct Conn {
    stream: TcpStream,
    fd: i32,
    /// The peer's current line so far: bytes read past the last newline.
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    out_sent: usize,
    flushed_total: u64,
    queued_total: u64,
    peer_closed: bool,
    reg_read: bool,
    reg_write: bool,
    /// Queued on since its last write, so listed in `LoopState::touched`.
    touched: bool,
    /// Listed in `LoopState::dirty`.
    flush_dirty: bool,
}

impl Conn {
    fn pending(&self) -> usize {
        self.outbuf.len() - self.out_sent
    }

    /// Writes as much of the outbuf as the socket will take. Returns
    /// whether any bytes moved; errors mean the connection is dead.
    fn flush(&mut self) -> io::Result<bool> {
        let mut progress = false;
        loop {
            if self.out_sent == self.outbuf.len() {
                self.outbuf.clear();
                self.out_sent = 0;
                break;
            }
            #[cfg(test)]
            SOCKET_WRITES.with(|writes| writes.set(writes.get() + 1));
            match self.stream.write(&self.outbuf[self.out_sent..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.out_sent += n;
                    self.flushed_total += n as u64;
                    progress = true;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        // Reclaim flushed prefix once it is worth the memmove.
        if self.out_sent > READ_CHUNK {
            self.outbuf.drain(..self.out_sent);
            self.out_sent = 0;
        }
        Ok(progress)
    }
}

enum Ev {
    Opened(Token),
    Line(Token, Vec<u8>),
    Closed(Token),
}

struct LoopState {
    poll: Poll,
    conns: HashMap<Token, Conn>,
    cfg: NetConfig,
    draining: bool,
    drain_since: Option<Instant>,
    /// Tokens `Ctx::send` queued bytes on, owed this pass's one write.
    touched: Vec<Token>,
    /// Tokens whose `Flushed` notification is owed this pass.
    dirty: Vec<Token>,
    /// Tokens closed by the callback or a failed write, owed a `Closed`
    /// event.
    closed_pending: Vec<Token>,
}

impl LoopState {
    fn kill(&mut self, token: Token) -> bool {
        if let Some(conn) = self.conns.remove(&token) {
            self.poll.delete(conn.fd, token);
            true
        } else {
            false
        }
    }

    /// Offers the connection's queued bytes to its socket: progress owes a
    /// `Flushed`, an error kills the connection and owes a `Closed`.
    fn write(&mut self, token: Token) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.touched = false;
        match conn.flush() {
            Ok(true) if !conn.flush_dirty => {
                conn.flush_dirty = true;
                self.dirty.push(token);
            }
            Ok(_) => {}
            Err(_) => {
                self.kill(token);
                self.closed_pending.push(token);
            }
        }
    }

    /// The end-of-pass write: each touched connection, once. (A token
    /// listed twice — `send` wrote it through and queued on it again — finds
    /// nothing left to write the second time.)
    fn write_touched(&mut self) {
        while let Some(token) = self.touched.pop() {
            self.write(token);
        }
    }
}

/// Handle the callback uses to act on the loop: queue replies, close
/// connections, begin the shutdown drain.
pub struct Ctx<'a> {
    state: &'a mut LoopState,
}

impl Ctx<'_> {
    /// Queues `bytes` on the connection; the loop writes them, with
    /// everything else queued on it this pass, once the pass's callbacks
    /// have run. Returns the connection's total queued-byte watermark
    /// (compare against [`NetEvent::Flushed`] to learn when these bytes
    /// hit the wire), or `None` if the connection is gone — including the
    /// case where this very send overflowed the hard cap or hit a write
    /// error and killed it (a `Closed` event follows).
    ///
    /// `send` itself writes in one case: when the queue would reach
    /// `high_water` it first offers the socket what is already queued, so
    /// that backpressure judges bytes the socket refused — a burst of
    /// large replies inside one pass streams out instead of tripping
    /// `hard_cap`.
    pub fn send(&mut self, token: Token, bytes: &[u8]) -> Option<u64> {
        let (high_water, hard_cap) = (self.state.cfg.high_water, self.state.cfg.hard_cap);
        let mut conn = self.state.conns.get_mut(&token)?;
        if conn.pending() > 0 && conn.pending() + bytes.len() >= high_water {
            self.state.write(token);
            conn = self.state.conns.get_mut(&token)?;
        }
        if conn.pending() + bytes.len() > hard_cap {
            self.state.kill(token);
            self.state.closed_pending.push(token);
            return None;
        }
        conn.outbuf.extend_from_slice(bytes);
        conn.queued_total += bytes.len() as u64;
        if !conn.touched {
            conn.touched = true;
            self.state.touched.push(token);
        }
        Some(conn.queued_total)
    }

    /// Drops the connection now. A `Closed` event follows.
    pub fn close(&mut self, token: Token) {
        if self.state.kill(token) {
            self.state.closed_pending.push(token);
        }
    }

    /// Stops accepting and exits the loop once every queued reply is
    /// flushed (or `DRAIN_GRACE` passes).
    pub fn shutdown(&mut self) {
        if !self.state.draining {
            self.state.draining = true;
            self.state.drain_since = Some(Instant::now());
        }
    }

    pub fn is_draining(&self) -> bool {
        self.state.draining
    }

    pub fn open_conns(&self) -> usize {
        self.state.conns.len()
    }
}

/// The event loop: owns the listener, every accepted connection, and
/// the readiness driver.
pub struct EventLoop {
    listener: TcpListener,
    listener_fd: i32,
    accepting: bool,
    next_token: Token,
    state: LoopState,
}

#[cfg(unix)]
fn fd_of<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}

#[cfg(not(unix))]
fn fd_of<T>(_t: &T) -> i32 {
    -1
}

impl EventLoop {
    /// Takes ownership of a bound listener and prepares the driver.
    pub fn bind(listener: TcpListener, cfg: NetConfig) -> io::Result<EventLoop> {
        EventLoop::bind_on(Poll::new(), listener, cfg)
    }

    fn bind_on(mut poll: Poll, listener: TcpListener, cfg: NetConfig) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let listener_fd = fd_of(&listener);
        poll.add(listener_fd, LISTENER_TOKEN, true, false)?;
        Ok(EventLoop {
            listener,
            listener_fd,
            accepting: true,
            next_token: 1,
            state: LoopState {
                poll,
                conns: HashMap::new(),
                cfg,
                draining: false,
                drain_since: None,
                touched: Vec::new(),
                dirty: Vec::new(),
                closed_pending: Vec::new(),
            },
        })
    }

    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle other threads use to interrupt [`EventLoop::run`]'s
    /// sleep. Wakes coalesce: the callback sees at least one
    /// [`NetEvent::Wake`] after the last `wake()`, not one per call.
    pub fn waker(&self) -> Waker {
        self.state.poll.waker()
    }

    /// Runs the loop until a callback calls [`Ctx::shutdown`] and the
    /// outbound queues drain. The callback observes every event; it
    /// must not block, or the whole plane stalls.
    pub fn run<F>(mut self, mut cb: F) -> io::Result<()>
    where
        F: FnMut(NetEvent<'_>, &mut Ctx<'_>),
    {
        let mut ready: Vec<Ready> = Vec::new();
        let mut events: Vec<Ev> = Vec::new();
        // Where every `read` lands before it is framed.
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut next_tick = Instant::now() + self.state.cfg.tick;
        loop {
            let now = Instant::now();
            let mut timeout = next_tick.saturating_duration_since(now);
            if !self.state.poll.readiness() {
                // No readiness source: poll the sockets on a short leash.
                timeout = timeout.min(Duration::from_millis(1));
            }
            if !self.state.dirty.is_empty() || !self.state.closed_pending.is_empty() {
                // Notifications the last pass's second write left owing.
                timeout = Duration::ZERO;
            }
            let woke = self.state.poll.wait(timeout, &mut ready)?;

            if self.state.draining && self.accepting {
                self.state.poll.delete(self.listener_fd, LISTENER_TOKEN);
                self.accepting = false;
            }

            // The fallback driver reports every registered token ready;
            // the nonblocking sockets sort out the truth.
            for &r in &ready {
                if r.token == LISTENER_TOKEN {
                    self.accept_ready(&mut events);
                } else {
                    self.drive_conn(r, &mut chunk, &mut events);
                }
            }

            let mut ctx = Ctx {
                state: &mut self.state,
            };
            if woke {
                cb(NetEvent::Wake, &mut ctx);
            }
            let mut lines = false;
            for ev in events.drain(..) {
                match ev {
                    Ev::Opened(token) => cb(NetEvent::Opened(token), &mut ctx),
                    Ev::Line(token, line) => {
                        lines = true;
                        cb(NetEvent::Line(token, &line), &mut ctx);
                    }
                    Ev::Closed(token) => cb(NetEvent::Closed(token), &mut ctx),
                }
            }
            if lines {
                cb(NetEvent::Batch, &mut ctx);
            }
            let now = Instant::now();
            if now >= next_tick {
                cb(NetEvent::Tick, &mut ctx);
                next_tick = now + ctx.state.cfg.tick;
            }

            // Everything the pass queued goes out in one write per
            // connection; then write-progress notifications and the closes
            // the callback or a failed write caused. What those handlers
            // queue is written before the pass ends.
            ctx.state.write_touched();
            while let Some(token) = ctx.state.dirty.pop() {
                if let Some(conn) = ctx.state.conns.get_mut(&token) {
                    conn.flush_dirty = false;
                    let total = conn.flushed_total;
                    cb(NetEvent::Flushed(token, total), &mut ctx);
                }
            }
            while let Some(token) = ctx.state.closed_pending.pop() {
                cb(NetEvent::Closed(token), &mut ctx);
            }
            ctx.state.write_touched();

            self.sweep();

            if self.state.draining {
                let flushed = self.state.conns.values().all(|c| c.pending() == 0);
                let grace_up = self
                    .state
                    .drain_since
                    .map(|t| t.elapsed() >= DRAIN_GRACE)
                    .unwrap_or(true);
                if flushed || grace_up {
                    return Ok(());
                }
            }
        }
    }

    fn accept_ready(&mut self, events: &mut Vec<Ev>) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let fd = fd_of(&stream);
                    if self.state.poll.add(fd, token, true, false).is_err() {
                        continue;
                    }
                    self.state.conns.insert(
                        token,
                        Conn {
                            stream,
                            fd,
                            inbuf: Vec::new(),
                            outbuf: Vec::new(),
                            out_sent: 0,
                            flushed_total: 0,
                            queued_total: 0,
                            peer_closed: false,
                            reg_read: true,
                            reg_write: false,
                            touched: false,
                            flush_dirty: false,
                        },
                    );
                    events.push(Ev::Opened(token));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failures (EMFILE and friends): give
                // up for this iteration, the next wait retries.
                Err(_) => break,
            }
        }
    }

    /// Performs I/O on one ready connection, extracting complete lines
    /// and detecting death. Removes connections that died reading and
    /// records their `Closed` event inline so it dispatches after their
    /// final lines.
    fn drive_conn(&mut self, ready: Ready, chunk: &mut [u8], events: &mut Vec<Ev>) {
        let token = ready.token;
        let (max_line, high_water) = (self.state.cfg.max_line, self.state.cfg.high_water);
        if ready.writable || ready.error {
            self.state.write(token);
        }
        let Some(conn) = self.state.conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;

        if ready.readable && !conn.peer_closed && conn.pending() < high_water {
            'read: loop {
                match conn.stream.read(chunk) {
                    Ok(0) => {
                        conn.peer_closed = true;
                        break;
                    }
                    Ok(n) => {
                        // Lines complete as soon as their newline lands;
                        // only the unterminated tail stays with the
                        // connection.
                        let mut rest = &chunk[..n];
                        while let Some(pos) = rest.iter().position(|&b| b == b'\n') {
                            if conn.inbuf.len() + pos > max_line {
                                dead = true;
                                break 'read;
                            }
                            let mut line = std::mem::take(&mut conn.inbuf);
                            line.extend_from_slice(&rest[..pos]);
                            events.push(Ev::Line(token, line));
                            rest = &rest[pos + 1..];
                        }
                        conn.inbuf.extend_from_slice(rest);
                        if conn.inbuf.len() > max_line {
                            dead = true;
                            break;
                        }
                        if n < chunk.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
        }

        if conn.peer_closed && conn.pending() == 0 {
            dead = true;
        }
        if dead {
            self.state.kill(token);
            events.push(Ev::Closed(token));
        }
    }

    /// Reconciles each connection's driver interest with its current
    /// state: reads pause above the high-water mark, write interest
    /// exists only while the outbuf holds bytes.
    fn sweep(&mut self) {
        let state = &mut self.state;
        for (&token, conn) in state.conns.iter_mut() {
            let want_read = !conn.peer_closed && conn.pending() < state.cfg.high_water;
            let want_write = conn.pending() > 0;
            if (want_read != conn.reg_read || want_write != conn.reg_write)
                && state
                    .poll
                    .modify(conn.fd, token, want_read, want_write)
                    .is_ok()
            {
                conn.reg_read = want_read;
                conn.reg_write = want_write;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::thread;

    /// Every test runs over both drivers: the best the platform has
    /// (epoll on linux/x86_64) and the portable fallback, forced.
    const DRIVERS: [fn() -> Poll; 2] = [Poll::new, Poll::sleep];

    fn bind(driver: fn() -> Poll, cfg: NetConfig) -> (EventLoop, SocketAddr) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let ev = EventLoop::bind_on(driver(), listener, cfg).unwrap();
        let addr = ev.local_addr().unwrap();
        (ev, addr)
    }

    /// An echo server; `quit` is answered `bye` and shuts it down.
    fn spawn_echo(
        driver: fn() -> Poll,
        cfg: NetConfig,
    ) -> (
        SocketAddr,
        Waker,
        thread::JoinHandle<io::Result<()>>,
        mpsc::Receiver<String>,
    ) {
        let (ev, addr) = bind(driver, cfg);
        let waker = ev.waker();
        let (note_tx, note_rx) = mpsc::channel();
        let handle = thread::spawn(move || {
            ev.run(move |event, ctx| match event {
                NetEvent::Line(token, line) => {
                    if line == b"quit" {
                        ctx.send(token, b"bye\n");
                        ctx.shutdown();
                    } else {
                        let mut reply = line.to_vec();
                        reply.push(b'\n');
                        ctx.send(token, &reply);
                    }
                }
                NetEvent::Wake => {
                    let _ = note_tx.send("wake".to_string());
                }
                NetEvent::Closed(token) => {
                    let _ = note_tx.send(format!("closed {token}"));
                }
                _ => {}
            })
        });
        (addr, waker, handle, note_rx)
    }

    fn read_line(reader: &mut impl BufRead) -> String {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    }

    #[test]
    fn echoes_lines_split_across_arbitrary_writes() {
        for driver in DRIVERS {
            let (addr, _waker, handle, _notes) = spawn_echo(driver, NetConfig::default());
            let mut client = TcpStream::connect(addr).unwrap();
            // One line delivered in three torn writes, then two in one.
            client.write_all(b"hel").unwrap();
            client.flush().unwrap();
            thread::sleep(Duration::from_millis(10));
            client.write_all(b"lo wor").unwrap();
            thread::sleep(Duration::from_millis(10));
            client.write_all(b"ld\nsecond\nthird\n").unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            assert_eq!(read_line(&mut reader), "hello world\n");
            assert_eq!(read_line(&mut reader), "second\n");
            assert_eq!(read_line(&mut reader), "third\n");
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    #[test]
    fn waker_interrupts_the_sleep() {
        for driver in DRIVERS {
            let (addr, waker, handle, notes) = spawn_echo(driver, NetConfig::default());
            waker.wake();
            let note = notes.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(note, "wake");
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
            // Waking after exit is a no-op, not a panic.
            waker.wake();
        }
    }

    /// A wake is owed for every item pushed before it, however the pushes
    /// interleave with the loop clearing its pending flag. The tick is an
    /// hour, so nothing but a wake can deliver an item: a lost wake-up
    /// leaves the count short and the test times out.
    #[test]
    fn no_wake_up_is_lost() {
        const ITEMS: u64 = 100_000;
        for driver in DRIVERS {
            let cfg = NetConfig {
                tick: Duration::from_secs(3600),
                ..NetConfig::default()
            };
            let (ev, _addr) = bind(driver, cfg);
            let waker = ev.waker();
            let (item_tx, items) = mpsc::channel::<u64>();
            let (done_tx, done) = mpsc::channel();
            let consumer = thread::spawn(move || {
                let mut next = 0;
                ev.run(|event, ctx| {
                    assert!(!matches!(event, NetEvent::Tick), "delivered by a tick");
                    if let NetEvent::Wake = event {
                        while let Ok(item) = items.try_recv() {
                            assert_eq!(item, next);
                            next += 1;
                        }
                        if next == ITEMS {
                            ctx.shutdown();
                        }
                    }
                })
                .unwrap();
                done_tx.send(next).unwrap();
            });
            let producer = thread::spawn(move || {
                for item in 0..ITEMS {
                    item_tx.send(item).unwrap();
                    waker.wake();
                }
            });
            let delivered = done
                .recv_timeout(Duration::from_secs(30))
                .expect("a wake-up was lost: the loop is asleep with items queued");
            assert_eq!(delivered, ITEMS);
            producer.join().unwrap();
            consumer.join().unwrap();
        }
    }

    #[test]
    fn overlong_line_drops_the_connection() {
        for driver in DRIVERS {
            // Unterminated, and terminated within the same read: neither
            // is delivered.
            for wire in [vec![b'x'; 256], [&[b'x'; 200][..], b"\n"].concat()] {
                let cfg = NetConfig {
                    max_line: 64,
                    ..NetConfig::default()
                };
                let (addr, _waker, handle, notes) = spawn_echo(driver, cfg);
                let mut bad = TcpStream::connect(addr).unwrap();
                bad.write_all(&wire).unwrap();
                let note = notes.recv_timeout(Duration::from_secs(5)).unwrap();
                assert!(note.starts_with("closed"), "expected a close, got {note}");
                let mut echoed = Vec::new();
                let _ = bad.read_to_end(&mut echoed);
                assert!(echoed.is_empty(), "an overlong line was answered");
                // The loop survives: a well-behaved client still gets
                // service, up to exactly `max_line` bytes a line.
                let mut good = TcpStream::connect(addr).unwrap();
                let longest = format!("{}\n", "y".repeat(64));
                good.write_all(longest.as_bytes()).unwrap();
                let mut reader = BufReader::new(good.try_clone().unwrap());
                assert_eq!(read_line(&mut reader), longest);
                good.write_all(b"quit\n").unwrap();
                handle.join().unwrap().unwrap();
            }
        }
    }

    #[test]
    fn abrupt_close_emits_closed_and_loop_survives() {
        for driver in DRIVERS {
            let (addr, _waker, handle, notes) = spawn_echo(driver, NetConfig::default());
            let client = TcpStream::connect(addr).unwrap();
            drop(client);
            let note = notes.recv_timeout(Duration::from_secs(5)).unwrap();
            assert!(note.starts_with("closed"), "expected a close, got {note}");
            let mut quitter = TcpStream::connect(addr).unwrap();
            quitter.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    /// "One syscall per batch, not per response": however many replies
    /// one pass queues on a connection, they reach the socket in one
    /// `write`, intact and in order, pass after pass.
    #[test]
    fn a_pass_of_sends_costs_one_write() {
        const REPLIES: usize = 40;
        for driver in DRIVERS {
            let (ev, addr) = bind(driver, NetConfig::default());
            let (cost_tx, costs) = mpsc::channel();
            let handle = thread::spawn(move || {
                let mut before = 0;
                ev.run(move |event, ctx| match event {
                    NetEvent::Line(_, b"quit") => ctx.shutdown(),
                    NetEvent::Line(token, burst) => {
                        before = SOCKET_WRITES.get();
                        for i in 0..REPLIES {
                            let reply = format!("{}-{i}\n", String::from_utf8_lossy(burst));
                            ctx.send(token, reply.as_bytes());
                        }
                        assert_eq!(SOCKET_WRITES.get(), before, "send wrote eagerly");
                    }
                    NetEvent::Flushed(..) => {
                        cost_tx.send(SOCKET_WRITES.get() - before).unwrap();
                    }
                    _ => {}
                })
            });
            let mut client = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            for burst in ["a", "b", "c"] {
                client.write_all(format!("{burst}\n").as_bytes()).unwrap();
                for i in 0..REPLIES {
                    assert_eq!(read_line(&mut reader), format!("{burst}-{i}\n"));
                }
                let cost = costs.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(cost, 1, "{REPLIES} replies in one pass");
            }
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    /// `Batch` closes a pass that delivered lines — once, after the last
    /// of them — and no other pass: a wake, a tick or an accept alone get
    /// none.
    #[test]
    fn a_pass_of_lines_ends_in_exactly_one_batch() {
        for driver in DRIVERS {
            let cfg = NetConfig {
                tick: Duration::from_millis(5),
                ..NetConfig::default()
            };
            let (ev, addr) = bind(driver, cfg);
            let waker = ev.waker();
            let (note_tx, notes) = mpsc::channel();
            let handle = thread::spawn(move || {
                ev.run(move |event, ctx| {
                    let note = match event {
                        NetEvent::Line(_, b"quit") => return ctx.shutdown(),
                        NetEvent::Line(_, line) => String::from_utf8_lossy(line).into_owned(),
                        NetEvent::Batch => "batch".into(),
                        NetEvent::Opened(_) => "opened".into(),
                        NetEvent::Wake => "wake".into(),
                        NetEvent::Tick => "tick".into(),
                        NetEvent::Flushed(..) | NetEvent::Closed(_) => return,
                    };
                    let _ = note_tx.send(note);
                })
            });
            // Reads notes up to and including `until`; none may be a batch.
            let no_batch_until = |until: &str| loop {
                let note = notes.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_ne!(note, "batch", "a pass without lines delivered a batch");
                if note == until {
                    break;
                }
            };
            waker.wake();
            no_batch_until("wake");
            no_batch_until("tick");
            no_batch_until("tick");
            let mut client = TcpStream::connect(addr).unwrap();
            no_batch_until("opened");
            // A batch owed by the accept's pass would precede its tick.
            no_batch_until("tick");
            client.write_all(b"l1\nl2\nl3\nl4\nl5\n").unwrap();
            let pass: Vec<String> = notes.iter().filter(|note| note != "tick").take(6).collect();
            assert_eq!(pass, ["l1", "l2", "l3", "l4", "l5", "batch"]);
            no_batch_until("tick");
            no_batch_until("tick");
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    /// Work queued on `Line` and answered from `Batch` still leaves in
    /// the pass's one `write`.
    #[test]
    fn replies_sent_from_the_batch_cost_the_pass_one_write() {
        for driver in DRIVERS {
            let (ev, addr) = bind(driver, NetConfig::default());
            let (cost_tx, costs) = mpsc::channel();
            let handle = thread::spawn(move || {
                let mut queued: Vec<(Token, Vec<u8>)> = Vec::new();
                let mut before = 0;
                ev.run(move |event, ctx| match event {
                    NetEvent::Line(_, b"quit") => ctx.shutdown(),
                    NetEvent::Line(token, line) => queued.push((token, line.to_vec())),
                    NetEvent::Batch => {
                        before = SOCKET_WRITES.get();
                        for (token, mut reply) in queued.drain(..) {
                            reply.extend_from_slice(b"-done\n");
                            ctx.send(token, &reply);
                        }
                        assert_eq!(SOCKET_WRITES.get(), before, "send wrote eagerly");
                    }
                    NetEvent::Flushed(..) => {
                        cost_tx.send(SOCKET_WRITES.get() - before).unwrap();
                    }
                    _ => {}
                })
            });
            let mut client = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            client.write_all(b"a\nb\nc\nd\ne\n").unwrap();
            for line in ["a", "b", "c", "d", "e"] {
                assert_eq!(read_line(&mut reader), format!("{line}-done\n"));
            }
            let cost = costs.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(cost, 1, "five replies from one batch");
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    /// A burst of large replies inside one pass streams out through the
    /// socket instead of tripping `hard_cap` on bytes nobody refused.
    #[test]
    fn a_burst_past_the_hard_cap_is_written_through() {
        const REPLY: usize = 24 * 1024;
        const REPLIES: usize = 8;
        for driver in DRIVERS {
            let cfg = NetConfig {
                high_water: 32 * 1024,
                hard_cap: 64 * 1024,
                ..NetConfig::default()
            };
            let (ev, addr) = bind(driver, cfg);
            let handle = thread::spawn(move || {
                ev.run(move |event, ctx| match event {
                    NetEvent::Line(_, b"quit") => ctx.shutdown(),
                    NetEvent::Line(token, _) => {
                        let mut reply = vec![b'd'; REPLY - 1];
                        reply.push(b'\n');
                        for _ in 0..REPLIES {
                            assert!(ctx.send(token, &reply).is_some(), "killed at the cap");
                        }
                    }
                    _ => {}
                })
            });
            let mut client = TcpStream::connect(addr).unwrap();
            client.write_all(b"dump\n").unwrap();
            let mut got = vec![0u8; REPLY * REPLIES];
            client.read_exact(&mut got).unwrap();
            assert_eq!(got.iter().filter(|&&b| b == b'\n').count(), REPLIES);
            client.write_all(b"quit\n").unwrap();
            handle.join().unwrap().unwrap();
        }
    }

    /// `Flushed` keeps pace with the wire: by the time a client has read a
    /// reply and answered it, the loop has reported that reply's watermark
    /// flushed. And the reply queued by the very handler that calls
    /// `shutdown()` is read before EOF.
    #[test]
    fn flushed_is_reported_before_the_client_can_answer() {
        for driver in DRIVERS {
            let (ev, addr) = bind(driver, NetConfig::default());
            let handle = thread::spawn(move || {
                let (mut watermark, mut flushed) = (0, 0);
                ev.run(move |event, ctx| match event {
                    NetEvent::Line(token, line) => {
                        // The client sends a line only after reading the
                        // reply to the one before.
                        assert!(flushed >= watermark, "{flushed} < {watermark}");
                        let mut reply = line.to_vec();
                        reply.push(b'\n');
                        watermark = ctx.send(token, &reply).unwrap();
                        if line == b"last" {
                            ctx.shutdown();
                        }
                    }
                    NetEvent::Flushed(_, total) => {
                        assert!(total >= flushed && total <= watermark);
                        flushed = total;
                    }
                    _ => {}
                })
            });
            let mut client = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(client.try_clone().unwrap());
            for i in 0..200 {
                let line = format!("ping-{i}\n");
                client.write_all(line.as_bytes()).unwrap();
                assert_eq!(read_line(&mut reader), line);
            }
            client.write_all(b"last\n").unwrap();
            let mut tail = String::new();
            reader.read_to_string(&mut tail).unwrap();
            assert_eq!(tail, "last\n");
            handle.join().unwrap().unwrap();
        }
    }
}
