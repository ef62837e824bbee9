//! The readiness facade: one type, three backends — epoll on Linux,
//! kqueue on macOS, portable `poll(2)` everywhere (and on demand, for
//! tests that want the fallback exercised on any host).
//!
//! A [`Poller`] owns the platform readiness object plus a self-pipe;
//! [`Waker`] handles (clonable, thread-safe, fd-backed) write one
//! byte to interrupt a wait from any thread, which is how the
//! [`SubmitQueue`](crate::SubmitQueue) handoff turns into a syscall.
//! EINTR is retried here, with the timeout recomputed, so callers
//! never see a spurious early return from a signal.

// LOCK ORDER: no locks — readiness state is single-threaded; wakers use a pipe.

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::submit::Wake;
use crate::sys;

/// Identifies a registration; returned in every [`Event`]. The
/// all-ones value is reserved for the poller's own waker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(pub usize);

/// The reserved token reported when a [`Waker`] interrupted the wait.
pub const WAKE_TOKEN: Token = Token(usize::MAX);

/// Which readiness directions a registration asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake on readability.
    pub read: bool,
    /// Wake on writability.
    pub write: bool,
}

impl Interest {
    /// Readable only.
    pub const READ: Interest = Interest { read: true, write: false };
    /// Writable only.
    pub const WRITE: Interest = Interest { read: false, write: true };
}

/// One readiness delivery out of [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The registration (or [`WAKE_TOKEN`]).
    pub token: Token,
    /// A read will not block.
    pub readable: bool,
    /// A write will not block.
    pub writable: bool,
    /// Error/hangup condition (delivered regardless of interest).
    pub error: bool,
}

enum Backend {
    #[cfg(target_os = "linux")]
    Epoll { epfd: RawFd },
    #[cfg(target_os = "macos")]
    Kqueue { kq: RawFd },
    /// Portable fallback: interest list rebuilt into a pollfd array
    /// per wait. O(n) per call, which is fine as a fallback and ideal
    /// for exercising the backend-independent plumbing in tests.
    Fallback { registered: Vec<(RawFd, u64, Interest)> },
}

/// A clonable, fd-backed handle that interrupts [`Poller::wait`] from
/// any thread.
#[derive(Clone, Debug)]
pub struct Waker {
    inner: std::sync::Arc<WakeFd>,
}

#[derive(Debug)]
struct WakeFd {
    fd: RawFd,
}

impl Drop for WakeFd {
    fn drop(&mut self) {
        sys::close_fd(self.fd);
    }
}

impl Wake for Waker {
    fn wake(&self) {
        sys::write_wake_byte(self.inner.fd);
    }
}

/// The readiness multiplexer. Single consumer: exactly one thread
/// calls [`wait`](Self::wait); any thread may use a [`Waker`].
pub struct Poller {
    backend: Backend,
    wake_read: RawFd,
    waker: Waker,
}

impl std::fmt::Debug for Poller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { .. } => "epoll",
            #[cfg(target_os = "macos")]
            Backend::Kqueue { .. } => "kqueue",
            Backend::Fallback { .. } => "poll",
        };
        f.debug_struct("Poller").field("backend", &backend).finish()
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        match &self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => sys::close_fd(*epfd),
            #[cfg(target_os = "macos")]
            Backend::Kqueue { kq } => sys::close_fd(*kq),
            Backend::Fallback { .. } => {}
        }
        sys::close_fd(self.wake_read);
    }
}

impl Poller {
    /// The platform-default backend (epoll on Linux, kqueue on macOS,
    /// `poll(2)` elsewhere).
    ///
    /// # Errors
    ///
    /// Propagates backend/self-pipe creation failures.
    pub fn new() -> io::Result<Self> {
        #[cfg(target_os = "linux")]
        {
            Self::from_backend(Backend::Epoll { epfd: sys::epoll_create()? })
        }
        #[cfg(target_os = "macos")]
        {
            Self::from_backend(Backend::Kqueue { kq: sys::kqueue_create()? })
        }
        #[cfg(not(any(target_os = "linux", target_os = "macos")))]
        {
            Self::with_poll_fallback()
        }
    }

    /// Forces the portable `poll(2)` backend — every platform has it,
    /// so tests can pin it down even where epoll/kqueue exist.
    ///
    /// # Errors
    ///
    /// Propagates self-pipe creation failures.
    pub fn with_poll_fallback() -> io::Result<Self> {
        Self::from_backend(Backend::Fallback { registered: Vec::new() })
    }

    fn from_backend(backend: Backend) -> io::Result<Self> {
        let (wake_read, wake_write) = sys::wake_pipe()?;
        let waker = Waker { inner: std::sync::Arc::new(WakeFd { fd: wake_write }) };
        let mut poller = Poller { backend, wake_read, waker };
        poller.backend_register(wake_read, u64::MAX, Interest::READ)?;
        Ok(poller)
    }

    /// A handle that interrupts this poller's waits; clone freely.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// Propagates registration failures (closed fds included — a
    /// closed fd is an error, never UB).
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "token reserved for waker"));
        }
        self.backend_register(fd, token.0 as u64, interest)
    }

    fn backend_register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                sys::epoll_add(*epfd, fd, token, interest.read, interest.write)
            }
            #[cfg(target_os = "macos")]
            Backend::Kqueue { kq } => {
                sys::kqueue_register(*kq, fd, token, interest.read, interest.write)
            }
            Backend::Fallback { registered } => {
                if registered.iter().any(|&(f, _, _)| f == fd) {
                    return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered"));
                }
                registered.push((fd, token, interest));
                Ok(())
            }
        }
    }

    /// Changes an existing registration's token and/or interest.
    ///
    /// # Errors
    ///
    /// Propagates modification failures; a closed (hence deregistered)
    /// fd reports an error rather than silently re-registering.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "token reserved for waker"));
        }
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                sys::epoll_modify(*epfd, fd, token.0 as u64, interest.read, interest.write)
            }
            #[cfg(target_os = "macos")]
            Backend::Kqueue { kq } => {
                sys::kqueue_register(*kq, fd, token.0 as u64, interest.read, interest.write)
            }
            Backend::Fallback { registered } => {
                match registered.iter_mut().find(|&&mut (f, _, _)| f == fd) {
                    Some(entry) => {
                        entry.1 = token.0 as u64;
                        entry.2 = interest;
                        Ok(())
                    }
                    None => Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered")),
                }
            }
        }
    }

    /// Stops watching `fd`. Harmless on an already-closed fd (the
    /// kernel dropped the registration with the fd).
    pub fn deregister(&mut self, fd: RawFd) {
        match &mut self.backend {
            #[cfg(target_os = "linux")]
            Backend::Epoll { epfd } => {
                let _ = sys::epoll_remove(*epfd, fd);
            }
            #[cfg(target_os = "macos")]
            Backend::Kqueue { kq } => sys::kqueue_remove(*kq, fd),
            Backend::Fallback { registered } => registered.retain(|&(f, _, _)| f != fd),
        }
    }

    /// Blocks until readiness, a wake, or the timeout; `None` waits
    /// forever. Replaces the contents of `events`. A [`Waker`] firing
    /// shows up as one event carrying [`WAKE_TOKEN`] (the self-pipe
    /// is drained here). EINTR retries with the timeout recomputed.
    ///
    /// # Errors
    ///
    /// Propagates backend failures other than EINTR.
    pub fn wait(
        &mut self,
        events: &mut Vec<Event>,
        timeout: Option<Duration>,
    ) -> io::Result<usize> {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        loop {
            let timeout_ms: i32 = match deadline {
                None => -1,
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    // Round up so we never spin on a sub-millisecond
                    // remainder.
                    let ms = left.as_nanos().div_ceil(1_000_000);
                    ms.min(i32::MAX as u128) as i32
                }
            };
            let mut raw: Vec<sys::RawEvent> = Vec::new();
            let result = match &mut self.backend {
                #[cfg(target_os = "linux")]
                Backend::Epoll { epfd } => {
                    sys::epoll_wait_events(*epfd, &mut raw, 1024, timeout_ms)
                }
                #[cfg(target_os = "macos")]
                Backend::Kqueue { kq } => sys::kqueue_wait_events(*kq, &mut raw, 1024, timeout_ms),
                Backend::Fallback { registered } => {
                    let mut entries: Vec<sys::PollEntry> = registered
                        .iter()
                        .map(|&(fd, _, interest)| {
                            sys::PollEntry::new(fd, interest.read, interest.write)
                        })
                        .collect();
                    match sys::poll_entries(&mut entries, timeout_ms) {
                        Ok(_) => {
                            for (entry, &(_, token, _)) in entries.iter().zip(registered.iter()) {
                                if entry.readable || entry.writable || entry.error {
                                    raw.push(sys::RawEvent {
                                        token,
                                        readable: entry.readable,
                                        writable: entry.writable,
                                        error: entry.error,
                                    });
                                }
                            }
                            Ok(raw.len())
                        }
                        Err(e) => Err(e),
                    }
                }
            };
            match result {
                Ok(_) => {
                    for ev in &raw {
                        if ev.token == u64::MAX {
                            sys::drain_fd(self.wake_read);
                            events.push(Event {
                                token: WAKE_TOKEN,
                                readable: false,
                                writable: false,
                                error: false,
                            });
                        } else {
                            events.push(Event {
                                token: Token(ev.token as usize),
                                readable: ev.readable,
                                writable: ev.writable,
                                error: ev.error,
                            });
                        }
                    }
                    return Ok(events.len());
                }
                Err(e) if sys::is_interrupted(&e) => {
                    // A signal cut the wait short; the deadline math at
                    // the top of the loop absorbs the elapsed time.
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            return Ok(0);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    fn backends() -> Vec<Poller> {
        vec![
            Poller::new().expect("platform poller"),
            Poller::with_poll_fallback().expect("fallback"),
        ]
    }

    #[test]
    fn readiness_is_delivered_with_the_registered_token() {
        for mut poller in backends() {
            let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
            let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
            poller.register(rx.as_raw_fd(), Token(5), Interest::READ).expect("register");
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
            assert_eq!(n, 0, "{poller:?}: nothing ready yet");
            tx.send_to(b"x", rx.local_addr().expect("addr")).expect("send");
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).expect("wait");
            assert_eq!(n, 1, "{poller:?}");
            assert_eq!(events[0].token, Token(5));
            assert!(events[0].readable);
        }
    }

    /// A wake with nothing submitted is the poller-level "spurious
    /// wakeup": the wait returns with only the WAKE_TOKEN event, and
    /// the next wait times out cleanly (the pipe was drained).
    #[test]
    fn spurious_wake_returns_once_then_the_pipe_is_clean() {
        for mut poller in backends() {
            let waker = poller.waker();
            waker.wake();
            waker.wake(); // coalesces: still one wake event
            let mut events = Vec::new();
            let n = poller.wait(&mut events, Some(Duration::from_secs(2))).expect("wait");
            assert_eq!(n, 1, "{poller:?}");
            assert_eq!(events[0].token, WAKE_TOKEN);
            let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
            assert_eq!(n, 0, "{poller:?}: drained, no residual readiness");
        }
    }

    #[test]
    fn waker_crosses_threads() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            waker.wake();
        });
        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_secs(5))).expect("wait");
        assert_eq!(n, 1);
        assert!(started.elapsed() < Duration::from_secs(4), "woke well before the timeout");
        handle.join().expect("waker thread");
    }

    /// Closed-fd reregistration: the kernel dropped the registration
    /// with the fd, so a reregister must surface an error (and a
    /// register of a dead fd too) — never a panic or silent success.
    /// A sibling test thread may reopen the closed fd *number* at any
    /// moment: the reregister still fails (that descriptor is not in
    /// this poller), but a register would succeed, so the dead-fd
    /// register uses a number no process can have open.
    #[cfg(target_os = "linux")]
    #[test]
    fn reregistering_a_closed_fd_is_a_reported_error() {
        let mut poller = Poller::new().expect("poller");
        let fd = {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
            let fd = sock.as_raw_fd();
            poller.register(fd, Token(1), Interest::READ).expect("register live fd");
            fd
            // socket drops: fd closes, kernel auto-deregisters
        };
        assert!(poller.reregister(fd, Token(2), Interest::WRITE).is_err());
        assert!(poller.register(RawFd::MAX, Token(3), Interest::READ).is_err());
    }

    /// EINTR handling: a directed signal interrupts the wait, and the
    /// poller retries instead of returning early or erroring.
    #[cfg(target_os = "linux")]
    #[test]
    fn a_signal_mid_wait_is_retried_not_surfaced() {
        crate::sys::install_interrupt_handler();
        let mut poller = Poller::new().expect("poller");
        let target = crate::sys::current_thread();
        let interrupter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            crate::sys::interrupt_thread(target);
        });
        let mut events = Vec::new();
        let started = Instant::now();
        // The signal lands ~40ms in; the wait must absorb it and run
        // to its 250ms timeout.
        let n = poller.wait(&mut events, Some(Duration::from_millis(250))).expect("wait");
        assert_eq!(n, 0, "no readiness, signal absorbed");
        assert!(
            started.elapsed() >= Duration::from_millis(200),
            "EINTR retried with the timeout recomputed, not returned early: {:?}",
            started.elapsed()
        );
        interrupter.join().expect("interrupter thread");
    }

    /// Same EINTR discipline on the portable fallback backend.
    #[cfg(target_os = "linux")]
    #[test]
    fn fallback_backend_retries_eintr_too() {
        crate::sys::install_interrupt_handler();
        let mut poller = Poller::with_poll_fallback().expect("poller");
        let target = crate::sys::current_thread();
        let interrupter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            crate::sys::interrupt_thread(target);
        });
        let mut events = Vec::new();
        let started = Instant::now();
        let n = poller.wait(&mut events, Some(Duration::from_millis(250))).expect("wait");
        assert_eq!(n, 0);
        assert!(started.elapsed() >= Duration::from_millis(200));
        interrupter.join().expect("interrupter thread");
    }
}
