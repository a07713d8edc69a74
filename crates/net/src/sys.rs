//! Raw `epoll` bindings for linux/x86_64, made of direct syscalls.
//!
//! The workspace is deliberately zero-dependency, so there is no `libc`
//! to lean on: the four syscalls the event loop needs — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait` and `close` on the epoll instance — are
//! issued with inline assembly against the stable linux syscall ABI.
//! Everything here is private to the crate; the portable fallback driver
//! in [`crate::driver`] covers every other platform without any of this.
//!
//! The linux syscall numbers and flag values used below are ABI — fixed
//! forever on x86_64 — so hardcoding them is as stable as libc itself.

use std::io;

// x86_64 syscall numbers (arch/x86/entry/syscalls/syscall_64.tbl).
const SYS_CLOSE: i64 = 3;
const SYS_EPOLL_WAIT: i64 = 232;
const SYS_EPOLL_CTL: i64 = 233;
const SYS_EPOLL_CREATE1: i64 = 291;

const EINTR: i64 = 4;

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
///
/// # Safety
///
/// `nr` must be a syscall this module knows, and every pointer among the
/// arguments must stay valid, for the length that syscall reads or
/// writes, until it returns.
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

/// A raw fd owned by this module (the epoll instance); closed on drop.
struct OwnedFd(i32);

impl Drop for OwnedFd {
    fn drop(&mut self) {
        // SAFETY: `close` takes no pointer; the fd is this module's own and
        // is closed only here.
        unsafe {
            let _ = syscall4(SYS_CLOSE, self.0 as i64, 0, 0, 0);
        }
    }
}

/// An epoll instance and the buffer its readiness records land in.
pub struct Epoll {
    epfd: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Epoll {
    /// Creates the epoll instance.
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: `epoll_create1` takes a flag word and no pointer.
        let epfd =
            OwnedFd(check(unsafe { syscall4(SYS_EPOLL_CREATE1, EPOLL_CLOEXEC, 0, 0, 0) })? as i32);
        Ok(Epoll {
            epfd,
            events: vec![EpollEvent::default(); 256],
        })
    }

    fn ctl(&self, op: i64, fd: i32, events: u32, data: u64) -> io::Result<()> {
        let event = EpollEvent { events, data };
        // SAFETY: `event` is the kernel's packed layout and outlives the
        // call, which only reads it.
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

    /// Blocks until readiness or `timeout_ms`, and hands each ready
    /// `(data, events)` pair to `each`.
    pub fn wait(&mut self, timeout_ms: i64, mut each: impl FnMut(u64, u32)) -> io::Result<()> {
        let n = loop {
            // SAFETY: the kernel writes at most `events.len()` records, into
            // a buffer this call borrows mutably.
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
        for event in &self.events[..n] {
            each(event.data, event.events);
        }
        if n == self.events.len() {
            // A full return means there may be more; grow for next time.
            let len = self.events.len() * 2;
            self.events.resize(len, EpollEvent::default());
        }
        Ok(())
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
    fn wait(epoll: &mut Epoll, timeout_ms: i64) -> Vec<(u64, u32)> {
        let mut ready = Vec::new();
        epoll
            .wait(timeout_ms, |data, bits| ready.push((data, bits)))
            .unwrap();
        ready
    }

    #[test]
    fn epoll_sees_a_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut epoll = Epoll::new().unwrap();
        epoll.add(listener.as_raw_fd(), 7, true, false).unwrap();

        // Nothing pending: a zero-timeout wait returns empty.
        assert!(wait(&mut epoll, 0).is_empty());

        // A connecting client makes the listener readable.
        let mut client = TcpStream::connect(addr).unwrap();
        let ready = wait(&mut epoll, 5_000);
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
            let ready = wait(&mut epoll, 5_000);
            if ready.iter().any(|&(d, bits)| d == 9 && bits & EPOLLIN != 0) {
                saw_conn = true;
                break;
            }
        }
        assert!(saw_conn, "connection readability never surfaced");
    }
}
