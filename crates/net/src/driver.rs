//! Readiness driver behind the event loop.
//!
//! On linux/x86_64 this is the raw-syscall epoll from [`crate::sys`]:
//! the loop sleeps in `epoll_wait` and only touches sockets the kernel
//! reports ready. Everywhere else (and if epoll creation fails at
//! runtime) a portable fallback takes over: it has no readiness source,
//! so it reports *every* registered token as ready on a short cadence
//! and relies on the sockets being nonblocking — correct, just not as
//! efficient. The [`Waker`] is a pipe write guarded by a pending flag in
//! epoll mode and a mutex/condvar flag in fallback mode: either way any
//! number of wakes between two sleeps of the loop cost one, and surface as
//! at least one wake-up after the last of them. Both are `Clone + Send`
//! and safe to fire from any thread, including after the loop has exited.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
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

/// Wakes a blocked `Poll::wait` from another thread.
#[derive(Clone)]
pub struct Waker(WakerInner);

#[derive(Clone)]
enum WakerInner {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Pipe(sys::EpollWaker),
    Flag(Arc<Flag>),
}

impl Waker {
    pub fn wake(&self) {
        match &self.0 {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            WakerInner::Pipe(pipe) => pipe.wake(),
            WakerInner::Flag(flag) => flag.raise(),
        }
    }
}

pub struct Flag {
    raised: Mutex<bool>,
    bell: Condvar,
}

impl Flag {
    fn raise(&self) {
        *self.raised.lock().unwrap() = true;
        self.bell.notify_all();
    }
}

pub enum Poll {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    Epoll(sys::Epoll),
    /// Portable fallback: token bookkeeping plus a condvar to sleep on.
    Sleep { tokens: Vec<u64>, flag: Arc<Flag> },
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
        Poll::Sleep {
            tokens: Vec::new(),
            flag: Arc::new(Flag {
                raised: Mutex::new(false),
                bell: Condvar::new(),
            }),
        }
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

    pub fn waker(&self) -> Waker {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => Waker(WakerInner::Pipe(epoll.waker())),
            Poll::Sleep { flag, .. } => Waker(WakerInner::Flag(Arc::clone(flag))),
        }
    }

    pub fn add(&mut self, fd: i32, token: u64, readable: bool, writable: bool) -> io::Result<()> {
        match self {
            #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
            Poll::Epoll(epoll) => epoll.add(fd, token, readable, writable),
            Poll::Sleep { tokens, .. } => {
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
            Poll::Sleep { tokens, .. } => {
                let _ = fd;
                tokens.retain(|&t| t != token);
            }
        }
    }

    /// Sleeps until readiness, a wake, or `timeout`. Returns whether the
    /// waker fired; readiness records land in `out`.
    pub fn wait(&mut self, timeout: Duration, out: &mut Vec<Ready>) -> io::Result<bool> {
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
            Poll::Sleep { tokens, flag } => {
                let mut raised = flag.raised.lock().unwrap();
                if !*raised {
                    let (guard, _) = flag.bell.wait_timeout(raised, timeout).unwrap();
                    raised = guard;
                }
                let woke = std::mem::replace(&mut *raised, false);
                drop(raised);
                for &token in tokens.iter() {
                    out.push(Ready {
                        token,
                        readable: true,
                        writable: true,
                        error: false,
                    });
                }
                Ok(woke)
            }
        }
    }
}
