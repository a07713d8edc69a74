//! Raw `epoll` bindings for linux/x86_64, made of direct syscalls.
//!
//! The workspace is deliberately zero-dependency, so there is no `libc`
//! to lean on: the five syscalls the event loop needs — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `pipe2` (the waker), and `read`/`write`/
//! `close` on the waker pipe — are issued with inline assembly against
//! the stable linux syscall ABI. Everything here is private to the
//! crate; the portable fallback driver in [`crate::driver`] covers every
//! other platform without any of this.
//!
//! The linux syscall numbers and flag values used below are ABI — fixed
//! forever on x86_64 — so hardcoding them is as stable as libc itself.

#![allow(clippy::missing_safety_doc)]

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// x86_64 syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
const SYS_READ: i64 = 0;
const SYS_WRITE: i64 = 1;
const SYS_CLOSE: i64 = 3;
const SYS_EPOLL_WAIT: i64 = 232;
const SYS_EPOLL_CTL: i64 = 233;
const SYS_EPOLL_CREATE1: i64 = 291;
const SYS_PIPE2: i64 = 293;

const EINTR: i64 = 4;
const EAGAIN: i64 = 11;

const O_NONBLOCK: i64 = 0x800;
const O_CLOEXEC: i64 = 0x8_0000;
const EPOLL_CLOEXEC: i64 = 0x8_0000;

pub const EPOLL_CTL_ADD: i64 = 1;
pub const EPOLL_CTL_DEL: i64 = 2;
pub const EPOLL_CTL_MOD: i64 = 3;

pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
pub const EPOLLRDHUP: u32 = 0x2000;

/// One readiness record as the kernel fills it. On x86_64 the struct is
/// packed (12 bytes): the kernel ABI predates the alignment rules.
#[repr(C, packed)]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    pub events: u32,
    pub data: u64,
}

/// Issues a raw 4-argument syscall. Returns the kernel's result:
/// negative values are `-errno`.
#[inline]
unsafe fn syscall4(nr: i64, a0: i64, a1: i64, a2: i64, a3: i64) -> i64 {
    let ret: i64;
    std::arch::asm!(
        "syscall",
        inlateout("rax") nr => ret,
        in("rdi") a0,
        in("rsi") a1,
        in("rdx") a2,
        in("r10") a3,
        out("rcx") _,
        out("r11") _,
        options(nostack),
    );
    ret
}

fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error((-ret) as i32))
    } else {
        Ok(ret)
    }
}

/// A raw fd owned by this module (the epoll instance or a pipe end);
/// closed on drop.
struct OwnedFd(i32);

impl Drop for OwnedFd {
    fn drop(&mut self) {
        unsafe {
            let _ = syscall4(SYS_CLOSE, self.0 as i64, 0, 0, 0);
        }
    }
}

/// The write end of the waker pipe, shared by every [`EpollWaker`].
pub struct PipeWriter {
    fd: OwnedFd,
    /// Whether a wake is owed to the loop: a byte is in the pipe, or the
    /// loop has read it and not yet cleared this flag. `wake` writes the
    /// pipe only when it flips the flag false -> true, so any number of
    /// wakes between two sleeps cost one `write`.
    ///
    /// Both sides use `SeqCst`, and need it. The producer pushes its item
    /// and then swaps the flag; the loop stores `false` and then reads the
    /// queue — a store followed by a load of another location, which
    /// `Release`/`Acquire` (and x86's store buffer) may reorder. Were the
    /// queue read to overtake the store, the loop could see the queue empty
    /// while the producer's swap still saw `true` and skipped the write:
    /// the item would wait for the next `Tick`. The loop also clears the
    /// flag only *after* draining the pipe; cleared before, the drain could
    /// eat the byte of a wake that had just flipped the flag, leaving it
    /// `true` over an empty pipe, and every later wake would be skipped.
    /// (`no_wake_up_is_lost` catches the second mistake; the first it
    /// cannot be relied on to catch on x86-64, where the store and the load
    /// sit a callback apart — the argument above is the check.)
    pending: AtomicBool,
}

/// Wakes a blocked `epoll_wait` from any thread by writing one byte into
/// the waker pipe, unless a wake is already pending. Cheap to clone.
#[derive(Clone)]
pub struct EpollWaker(Arc<PipeWriter>);

impl EpollWaker {
    pub fn wake(&self) {
        if self.0.pending.swap(true, Ordering::SeqCst) {
            return;
        }
        let byte = [1u8];
        // A closed read end (loop exited) means nobody cares: fine to
        // ignore.
        unsafe {
            let _ = syscall4(SYS_WRITE, self.0.fd.0 as i64, byte.as_ptr() as i64, 1, 0);
        }
    }
}

/// An epoll instance plus its self-pipe waker.
pub struct Epoll {
    epfd: OwnedFd,
    pipe_read: OwnedFd,
    pipe_write: Arc<PipeWriter>,
    events: Vec<EpollEvent>,
}

/// Token reserved for the waker pipe's read end.
pub const WAKER_DATA: u64 = u64::MAX;

impl Epoll {
    /// Creates the epoll instance and the waker pipe, registering the
    /// pipe's read end under [`WAKER_DATA`].
    pub fn new() -> io::Result<Epoll> {
        let epfd =
            OwnedFd(check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })? as i32);
        let mut fds = [0i32; 2];
        check(unsafe {
            syscall4(
                SYS_PIPE2,
                fds.as_mut_ptr() as i64,
                O_NONBLOCK | O_CLOEXEC,
                0,
                0,
            )
        })?;
        let pipe_read = OwnedFd(fds[0]);
        let pipe_write = Arc::new(PipeWriter {
            fd: OwnedFd(fds[1]),
            pending: AtomicBool::new(false),
        });
        let epoll = Epoll {
            epfd,
            pipe_read,
            pipe_write,
            events: vec![EpollEvent::default(); 256],
        };
        epoll.ctl(EPOLL_CTL_ADD, epoll.pipe_read.0, EPOLLIN, WAKER_DATA)?;
        Ok(epoll)
    }

    pub fn waker(&self) -> EpollWaker {
        EpollWaker(Arc::clone(&self.pipe_write))
    }

    fn ctl(&self, op: i64, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let event = EpollEvent { events, data };
        check(unsafe {
            syscall4(
                SYS_EPOLL_CTL,
                self.epfd.0 as i64,
                op,
                fd as i64,
                &event as *const EpollEvent as i64,
            )
        })
        .map(|_| ())
    }

    /// Registers `fd` under `data` with the given interest set.
    pub fn add(&self, fd: i32, data: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest(readable, writable), data)
    }

    /// Replaces `fd`'s interest set.
    pub fn modify(&self, fd: i32, data: u64, readable: bool, writable: bool) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest(readable, writable), data)
    }

    /// Removes `fd` from the interest set. Errors are swallowed: the fd
    /// may already be closed, which deregisters implicitly.
    pub fn delete(&self, fd: i32) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Blocks until readiness or `timeout_ms`. Hands each ready
    /// `(data, events)` pair to `each` and returns whether the waker fired
    /// (its pipe is drained and its flag cleared here, not surfaced).
    pub fn wait(&mut self, timeout_ms: i64, mut each: impl FnMut(u64, u32)) -> io::Result<bool> {
        let n = loop {
            let ret = unsafe {
                syscall4(
                    SYS_EPOLL_WAIT,
                    self.epfd.0 as i64,
                    self.events.as_mut_ptr() as i64,
                    self.events.len() as i64,
                    timeout_ms,
                )
            };
            if ret == -EINTR {
                continue;
            }
            break check(ret)? as usize;
        };
        let mut woke = false;
        for event in &self.events[..n] {
            let (data, bits) = (event.data, event.events);
            if data == WAKER_DATA {
                woke = true;
                self.drain_waker();
                self.pipe_write.pending.store(false, Ordering::SeqCst);
            } else {
                each(data, bits);
            }
        }
        if n == self.events.len() {
            // A full return means there may be more; grow for next time.
            let len = self.events.len() * 2;
            self.events.resize(len, EpollEvent::default());
        }
        Ok(woke)
    }

    fn drain_waker(&self) {
        let mut buf = [0u8; 64];
        loop {
            let ret = unsafe {
                syscall4(
                    SYS_READ,
                    self.pipe_read.0 as i64,
                    buf.as_mut_ptr() as i64,
                    buf.len() as i64,
                    0,
                )
            };
            if ret == -EINTR {
                continue;
            }
            if ret <= 0 || (ret as usize) < buf.len() {
                // Drained (EAGAIN lands here too via ret == -EAGAIN).
                debug_assert!(ret > 0 || ret == -EAGAIN || ret == 0);
                break;
            }
        }
    }
}

fn interest(readable: bool, writable: bool) -> u32 {
    let mut bits = EPOLLRDHUP;
    if readable {
        bits |= EPOLLIN;
    }
    if writable {
        bits |= EPOLLOUT;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    /// One wait, collecting what it reports.
    fn wait(epoll: &mut Epoll, timeout_ms: i64) -> (bool, Vec<(u64, u32)>) {
        let mut ready = Vec::new();
        let woke = epoll.wait(timeout_ms, |data, bits| ready.push((data, bits)));
        (woke.unwrap(), ready)
    }

    #[test]
    fn epoll_sees_a_readable_socket_and_the_waker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), 7, true, false).unwrap();

        // Nothing pending: a zero-timeout wait returns empty.
        let (woke, ready) = wait(&mut epoll, 0);
        assert!(!woke);
        assert!(ready.is_empty());

        // A connecting client makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let (woke, ready) = wait(&mut epoll, 5_000);
        assert!(!woke);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].0, 7);
        assert_ne!(ready[0].1 & EPOLLIN, 0);

        // Accept it and watch the conversation both ways.
        let (server_side, _) = listener.accept().unwrap();
        server_side.set_nonblocking(true).unwrap();
        epoll.add(server_side.as_raw_fd(), 9, true, true).unwrap();
        client.write_all(b"hello\n").unwrap();
        let mut saw_conn = false;
        for _ in 0..10 {
            let (_, ready) = wait(&mut epoll, 5_000);
            if ready.iter().any(|&(d, bits)| d == 9 && bits & EPOLLIN != 0) {
                saw_conn = true;
                break;
            }
        }
        assert!(saw_conn, "connection readability never surfaced");

        // The waker fires from another thread (twice: the second finds a
        // wake pending and writes nothing) and is drained internally.
        epoll.delete(server_side.as_raw_fd());
        let waker = epoll.waker();
        std::thread::spawn(move || {
            waker.wake();
            waker.wake();
        })
        .join()
        .unwrap();
        let (woke, _) = wait(&mut epoll, 5_000);
        assert!(woke);
        // Drained: an immediate re-poll is quiet.
        let (woke, _) = wait(&mut epoll, 0);
        assert!(!woke);
        // ... and the flag was cleared with it: the next wake is seen.
        epoll.waker().wake();
        let (woke, _) = wait(&mut epoll, 5_000);
        assert!(woke);
    }
}
