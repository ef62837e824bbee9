//! The readiness facade: one [`Poller`] over `poll(2)`, the same code
//! on every platform.
//!
//! `poll(2)` scans every registered fd on each wait, but a node's loop
//! watches few of them: a CE's one ingress socket, the AD's one
//! connection per replica, the listener and the waker — 8 fds in the
//! benchmark's socket workload, about 200 in the CI scale run. At 8 fds
//! a wait costs what one on a kernel-kept interest set does; at 200 a
//! ready wait costs about 8 µs more and a woken one about 40 µs more,
//! on runs that wake the loop a few hundred times (ROADMAP item 10 has
//! the measurements).
//!
//! A [`Poller`] owns the `pollfd` array plus a self-pipe; [`Waker`]
//! handles (clonable, thread-safe, fd-backed) write one byte to
//! interrupt a wait from any thread, which is how the
//! [`SubmitQueue`](crate::SubmitQueue) handoff turns into a syscall.
//! EINTR is retried here, with the timeout recomputed, so callers
//! never see a spurious early return from a signal.

// LOCK ORDER: no locks — readiness state is single-threaded; wakers use a pipe.

use std::io;
use std::os::fd::RawFd;
use std::time::{Duration, Instant};

use crate::submit::Wake;
use crate::sys::{self, PollFd};

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
    /// Error/hangup condition, or an fd closed while still registered
    /// (delivered regardless of interest).
    pub error: bool,
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
///
/// The interest list is the `pollfd` array itself: `fds[i]` is watched
/// under `tokens[i]`, and entry 0 is the wake pipe's read end. Only
/// `register`, `reregister` and `deregister` change the two arrays, so
/// a wait allocates nothing.
#[derive(Debug)]
pub struct Poller {
    fds: Vec<PollFd>,
    tokens: Vec<Token>,
    waker: Waker,
}

impl Drop for Poller {
    fn drop(&mut self) {
        sys::close_fd(self.fds[0].fd());
    }
}

impl Poller {
    /// A poller with nothing registered but its own waker.
    ///
    /// # Errors
    ///
    /// Propagates self-pipe creation failures.
    pub fn new() -> io::Result<Self> {
        let (wake_read, wake_write) = sys::wake_pipe()?;
        let waker = Waker { inner: std::sync::Arc::new(WakeFd { fd: wake_write }) };
        Ok(Poller {
            fds: vec![PollFd::new(wake_read, true, false)],
            tokens: vec![WAKE_TOKEN],
            waker,
        })
    }

    /// A handle that interrupts this poller's waits; clone freely.
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Starts watching `fd` under `token`.
    ///
    /// # Errors
    ///
    /// A closed fd, an fd already registered, or the waker's token.
    pub fn register(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        Self::check(fd, token)?;
        if self.position(fd).is_some() {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "fd registered"));
        }
        self.fds.push(PollFd::new(fd, interest.read, interest.write));
        self.tokens.push(token);
        Ok(())
    }

    /// Changes an existing registration's token and/or interest.
    ///
    /// # Errors
    ///
    /// A closed fd, an fd not registered, or the waker's token.
    pub fn reregister(&mut self, fd: RawFd, token: Token, interest: Interest) -> io::Result<()> {
        Self::check(fd, token)?;
        let i = self
            .position(fd)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "fd not registered"))?;
        self.fds[i].set_interest(interest.read, interest.write);
        self.tokens[i] = token;
        Ok(())
    }

    /// Stops watching `fd`; a no-op if it is not registered.
    ///
    /// Deregister an fd *before* closing it. `poll(2)` keeps watching
    /// the number: a closed fd left registered reports an `error`
    /// event on every wait, and an fd that later reuses the number is
    /// watched under the old token.
    pub fn deregister(&mut self, fd: RawFd) {
        if let Some(i) = self.position(fd) {
            self.fds.swap_remove(i);
            self.tokens.swap_remove(i);
        }
    }

    fn check(fd: RawFd, token: Token) -> io::Result<()> {
        if token == WAKE_TOKEN {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "token reserved for waker"));
        }
        sys::check_open(fd)
    }

    /// Where `fd` sits in the arrays; never the wake pipe's entry 0.
    fn position(&self, fd: RawFd) -> Option<usize> {
        self.fds.iter().skip(1).position(|pfd| pfd.fd() == fd).map(|i| i + 1)
    }

    /// Blocks until readiness, a wake, or the timeout; `None` waits
    /// forever. Replaces the contents of `events`, in registration
    /// order. A [`Waker`] firing shows up as one event carrying
    /// [`WAKE_TOKEN`] (the self-pipe is drained here). EINTR retries
    /// with the timeout recomputed.
    ///
    /// # Errors
    ///
    /// Propagates `poll(2)` failures other than EINTR.
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
            match sys::poll_fds(&mut self.fds, timeout_ms) {
                Ok(0) => return Ok(0),
                Ok(_) => break,
                Err(e) if sys::is_interrupted(&e) => {
                    // A signal cut the wait short; the deadline math at
                    // the top of the loop absorbs the elapsed time.
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        return Ok(0);
                    }
                }
                Err(e) => return Err(e),
            }
        }
        for (pfd, &token) in self.fds.iter().zip(&self.tokens) {
            let (readable, writable, error) = (pfd.readable(), pfd.writable(), pfd.error());
            if !(readable || writable || error) {
                continue;
            }
            if token == WAKE_TOKEN {
                sys::drain_fd(pfd.fd());
                events.push(Event { token, readable: false, writable: false, error: false });
            } else {
                events.push(Event { token, readable, writable, error });
            }
        }
        Ok(events.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::UdpSocket;
    use std::os::fd::AsRawFd;

    #[test]
    fn readiness_is_delivered_with_the_registered_token() {
        let mut poller = Poller::new().expect("poller");
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        poller.register(rx.as_raw_fd(), Token(5), Interest::READ).expect("register");
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert_eq!(n, 0, "nothing ready yet");
        tx.send_to(b"x", rx.local_addr().expect("addr")).expect("send");
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, Token(5));
        assert!(events[0].readable);
    }

    /// Reregistering rebinds the token and the interest; deregistering
    /// one fd leaves the others watched under their own tokens.
    #[test]
    fn reregister_rebinds_and_deregister_stops_one_fd() {
        let mut poller = Poller::new().expect("poller");
        let a = UdpSocket::bind("127.0.0.1:0").expect("bind a");
        let b = UdpSocket::bind("127.0.0.1:0").expect("bind b");
        poller.register(a.as_raw_fd(), Token(1), Interest::READ).expect("register a");
        poller.register(b.as_raw_fd(), Token(2), Interest::READ).expect("register b");
        assert!(poller.register(a.as_raw_fd(), Token(3), Interest::READ).is_err(), "twice");
        let mut events = Vec::new();
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).expect("wait"), 0);
        poller.reregister(a.as_raw_fd(), Token(7), Interest::WRITE).expect("reregister");
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).expect("wait"), 1);
        assert_eq!(events[0].token, Token(7), "reregister rebinds the token");
        assert!(events[0].writable && !events[0].readable);
        poller.reregister(b.as_raw_fd(), Token(2), Interest::WRITE).expect("reregister b");
        poller.deregister(a.as_raw_fd());
        poller.deregister(a.as_raw_fd()); // not registered: a no-op
        assert!(poller.reregister(a.as_raw_fd(), Token(7), Interest::READ).is_err());
        assert_eq!(poller.wait(&mut events, Some(Duration::ZERO)).expect("wait"), 1);
        assert_eq!(events[0].token, Token(2));
    }

    /// A wake with nothing submitted is the poller-level "spurious
    /// wakeup": the wait returns with only the WAKE_TOKEN event, and
    /// the next wait times out cleanly (the pipe was drained).
    #[test]
    fn spurious_wake_returns_once_then_the_pipe_is_clean() {
        let mut poller = Poller::new().expect("poller");
        let waker = poller.waker();
        waker.wake();
        waker.wake(); // coalesces: still one wake event
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_secs(2))).expect("wait");
        assert_eq!(n, 1);
        assert_eq!(events[0].token, WAKE_TOKEN);
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert_eq!(n, 0, "drained, no residual readiness");
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

    /// A registered socket duplicated to a number no other thread is
    /// handed (see [`sys::dup_at_least`]), so closing it leaves that
    /// number closed for the rest of the test.
    fn high_fd(poller: &mut Poller, token: Token) -> RawFd {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let fd = sys::dup_at_least(sock.as_raw_fd(), 128);
        poller.register(fd, token, Interest::READ).expect("register live fd");
        fd
    }

    /// Closed fds: a reregister of one that was closed while
    /// registered, and a register of one that was never open, are
    /// reported errors — never a panic or a silent success.
    #[test]
    fn reregistering_a_closed_fd_is_a_reported_error() {
        let mut poller = Poller::new().expect("poller");
        let fd = high_fd(&mut poller, Token(1));
        sys::close_fd(fd);
        assert!(poller.reregister(fd, Token(2), Interest::WRITE).is_err());
        assert!(poller.register(RawFd::MAX, Token(3), Interest::READ).is_err());
        assert!(poller.register(fd, Token(4), Interest::READ).is_err());
    }

    /// An fd closed without deregistering is reported at once as an
    /// error on its token, so a caller looping on `wait` learns of it
    /// instead of spinning through empty wakeups until the timeout.
    #[test]
    fn a_closed_fd_left_registered_is_an_error_event() {
        let mut poller = Poller::new().expect("poller");
        let fd = high_fd(&mut poller, Token(9));
        sys::close_fd(fd);
        let mut events = Vec::new();
        let n = poller.wait(&mut events, Some(Duration::from_millis(200))).expect("wait");
        assert_eq!(n, 1, "the closed fd is reported, not silently skipped");
        assert_eq!(events[0].token, Token(9));
        assert!(events[0].error && !events[0].readable && !events[0].writable);
        poller.deregister(fd);
        let n = poller.wait(&mut events, Some(Duration::from_millis(10))).expect("wait");
        assert_eq!(n, 0, "deregistered: nothing left to report");
    }

    /// EINTR handling: a directed signal interrupts the wait, and the
    /// poller retries instead of returning early or erroring.
    #[test]
    fn a_signal_mid_wait_is_retried_not_surfaced() {
        sys::install_interrupt_handler();
        let mut poller = Poller::new().expect("poller");
        let target = sys::current_thread();
        let interrupter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(40));
            sys::interrupt_thread(target);
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
}
