//! Readiness driver behind the event loop.
//!
//! On linux/x86_64 this is the raw-syscall epoll from [`crate::sys`]:
//! the loop sleeps in `epoll_wait` and only touches sockets the kernel
//! reports ready. Everywhere else (and if epoll creation fails at
//! runtime) a portable fallback takes over: it has no readiness source,
//! so it sleeps out the timeout, reports *every* registered token as
//! ready and relies on the sockets being nonblocking — correct, just not
//! as efficient.

use std::io;
use std::time::Duration;

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::sys;

/// Readiness bits reported per token, driver-independent.
#[derive(Clone, Copy)]
pub struct Ready {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
}

pub enum Poll {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Epoll(sys::Epoll),
    /// Portable fallback: token bookkeeping and a plain sleep.
    Sleep { tokens: Vec<u64> },
}

impl Poll {
    /// Picks the best driver available: epoll where the raw syscalls
    /// exist, the sleep-poller otherwise.
    pub fn new() -> Poll {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        if let Ok(epoll) = sys::Epoll::new() {
            return Poll::Epoll(epoll);
        }
        Poll::sleep()
    }

    /// The portable fallback driver.
    pub fn sleep() -> Poll {
        Poll::Sleep { tokens: Vec::new() }
    }

    /// Whether the driver has a real readiness source. When false the
    /// caller should keep wait timeouts short: every wait reports every
    /// token ready and the sockets themselves (nonblocking) say no.
    pub fn readiness(&self) -> bool {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(_) => true,
            Poll::Sleep { .. } => false,
        }
    }

    pub fn add(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => epoll.add(fd, token, readable, writable),
            Poll::Sleep { tokens } => {
                tokens.push(token);
                Ok(())
            }
        }
    }

    pub fn modify(
        &mut self,
        fd: i32,
        token: u64,
        readable: bool,
        writable: bool,
    ) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => epoll.modify(fd, token, readable, writable),
            Poll::Sleep { .. } => Ok(()),
        }
    }

    pub fn delete(&mut self, fd: i32, token: u64) {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => {
                let _ = token;
                epoll.delete(fd);
            }
            Poll::Sleep { tokens } => {
                let _ = fd;
                tokens.retain(|&t| t != token);
            }
        }
    }

    /// Sleeps until readiness or `timeout`; readiness records land in
    /// `out`.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Ready>) -> io::Result<()> {
        out.clear();
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => {
                // Round sub-millisecond timeouts up so a short deadline
                // does not degenerate into a busy `epoll_wait(0)` spin.
                let ms = timeout.as_micros().div_ceil(1000).min(i64::MAX as u128) as i64;
                epoll.wait(ms, |token, bits| {
                    out.push(Ready {
                        token,
                        readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                        writable: bits & sys::EPOLLOUT != 0,
                        error: bits & sys::EPOLLERR != 0,
                    })
                })
            }
            Poll::Sleep { tokens } => {
                std::thread::sleep(timeout);
                for &token in tokens.iter() {
                    out.push(Ready {
                        token,
                        readable: true,
                        writable: true,
                        error: false,
                    });
                }
                Ok(())
            }
        }
    }
}
