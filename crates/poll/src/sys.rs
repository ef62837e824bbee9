//! Raw readiness syscalls — the only unsafe file in the crate, and the
//! only one in the workspace's `src` directories (pinned by the
//! `cargo xtask analyze` unsafe allowlist).
//!
//! Everything here is a thin, totally-safe-to-call wrapper over a
//! libc-less `extern "C"` surface: `poll(2)`, the one readiness
//! backend on every platform; an `fcntl(2)` liveness check for the fds
//! it is asked to watch; non-blocking `connect(2)` (std offers no way
//! to start a TCP connect without blocking); and the self-pipe the
//! event loop uses as its waker. No function in this file blocks
//! except [`poll_fds`] and [`await_writable`], which take an explicit
//! timeout. Callers never see a raw pointer: inputs and outputs are
//! plain values and slices.
//!
//! The deliberate constraint is *dependency-free*: no `libc` crate, so
//! the numeric constants and struct layouts below are transcribed from
//! the kernel/libc ABI per target. Each is annotated with its source
//! value; the unit tests at the bottom exercise every wrapper on a
//! real kernel.

// LOCK ORDER: no locks — stateless syscall wrappers.

use std::io;
use std::mem;
use std::net::{SocketAddr, TcpStream};
use std::os::fd::{FromRawFd, RawFd};
use std::time::Duration;

use core::ffi::{c_int, c_uint, c_void};

// ---------------------------------------------------------------------------
// extern "C" surface
// ---------------------------------------------------------------------------

extern "C" {
    fn close(fd: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
    fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
    fn connect(fd: c_int, addr: *const c_void, len: u32) -> c_int;
    fn getsockopt(fd: c_int, level: c_int, name: c_int, value: *mut c_void, len: *mut u32)
        -> c_int;
    fn poll(fds: *mut PollFd, nfds: c_uint, timeout: c_int) -> c_int;
    #[cfg(test)]
    fn signal(signum: c_int, handler: extern "C" fn(c_int)) -> usize;
    #[cfg(test)]
    fn pthread_self() -> usize;
    #[cfg(test)]
    fn pthread_kill(thread: usize, sig: c_int) -> c_int;
}

#[cfg(not(target_os = "linux"))]
extern "C" {
    fn pipe(fds: *mut c_int) -> c_int;
}

#[cfg(target_os = "linux")]
extern "C" {
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

// ---------------------------------------------------------------------------
// ABI constants (transcribed; see module docs)
// ---------------------------------------------------------------------------

const F_GETFD: c_int = 1;
const F_GETFL: c_int = 3;
const F_SETFL: c_int = 4;
const SOCK_STREAM: c_int = 1;
const AF_INET: c_int = 2;

#[cfg(target_os = "linux")]
mod abi {
    use core::ffi::c_int;
    pub const O_NONBLOCK: c_int = 0o4000;
    pub const O_CLOEXEC: c_int = 0o2000000;
    pub const EINTR: i32 = 4;
    pub const EINPROGRESS: i32 = 115;
    pub const SOL_SOCKET: c_int = 1;
    pub const SO_ERROR: c_int = 4;
    pub const AF_INET6: c_int = 10;
    #[cfg(test)]
    pub const SIGUSR1: c_int = 10;
}

#[cfg(target_os = "macos")]
mod abi {
    use core::ffi::c_int;
    pub const O_NONBLOCK: c_int = 0x0004;
    pub const O_CLOEXEC: c_int = 0x0100_0000;
    pub const EINTR: i32 = 4;
    pub const EINPROGRESS: i32 = 36;
    pub const SOL_SOCKET: c_int = 0xffff;
    pub const SO_ERROR: c_int = 0x1007;
    pub const AF_INET6: c_int = 30;
    #[cfg(test)]
    pub const SIGUSR1: c_int = 30;
}

#[cfg(all(unix, not(any(target_os = "linux", target_os = "macos"))))]
mod abi {
    // Conservative defaults shared by the BSDs.
    use core::ffi::c_int;
    pub const O_NONBLOCK: c_int = 0x0004;
    pub const O_CLOEXEC: c_int = 0x0010_0000;
    pub const EINTR: i32 = 4;
    pub const EINPROGRESS: i32 = 36;
    pub const SOL_SOCKET: c_int = 0xffff;
    pub const SO_ERROR: c_int = 0x1007;
    pub const AF_INET6: c_int = 28;
    #[cfg(test)]
    pub const SIGUSR1: c_int = 30;
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;
const POLLERR: i16 = 0x8;
const POLLHUP: i16 = 0x10;
const POLLNVAL: i16 = 0x20;

/// `struct pollfd`: one fd, the directions it is watched for, and what
/// the last [`poll_fds`] call reported for it.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

impl PollFd {
    /// Watches `fd` for the given directions; nothing reported yet.
    pub fn new(fd: RawFd, read: bool, write: bool) -> Self {
        let mut pfd = PollFd { fd, events: 0, revents: 0 };
        pfd.set_interest(read, write);
        pfd
    }

    /// The watched fd.
    pub fn fd(&self) -> RawFd {
        self.fd
    }

    /// Replaces the watched directions.
    pub fn set_interest(&mut self, read: bool, write: bool) {
        self.events = if read { POLLIN } else { 0 } | if write { POLLOUT } else { 0 };
    }

    /// A read will not block (data, or a hangup that reads as EOF).
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLHUP) != 0
    }

    /// A write will not block.
    pub fn writable(&self) -> bool {
        self.revents & POLLOUT != 0
    }

    /// Error, hangup, or an fd that was closed while watched
    /// (`POLLNVAL`); reported whatever the interest.
    pub fn error(&self) -> bool {
        self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

// ---------------------------------------------------------------------------
// errno plumbing
// ---------------------------------------------------------------------------

fn last_error() -> io::Error {
    io::Error::last_os_error()
}

/// Whether `err` is the transient "interrupted by a signal" failure
/// that readiness waits must retry.
pub fn is_interrupted(err: &io::Error) -> bool {
    err.raw_os_error() == Some(abi::EINTR)
}

// ---------------------------------------------------------------------------
// fd plumbing: non-blocking flags, close, pipes
// ---------------------------------------------------------------------------

/// Sets `O_NONBLOCK` on an arbitrary fd.
pub fn set_nonblocking(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl on a caller-supplied fd reads/writes no memory;
    // an invalid fd yields EBADF, reported as an error.
    let flags = unsafe { fcntl(fd, F_GETFL, 0) };
    if flags < 0 {
        return Err(last_error());
    }
    let rc = unsafe { fcntl(fd, F_SETFL, flags | abi::O_NONBLOCK) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// Whether `fd` is an open descriptor (`fcntl(F_GETFD)`).
///
/// # Errors
///
/// `EBADF` for a closed or out-of-range fd.
pub fn check_open(fd: RawFd) -> io::Result<()> {
    // SAFETY: fcntl(F_GETFD) reads no memory; an invalid fd yields
    // EBADF, reported as an error.
    if unsafe { fcntl(fd, F_GETFD, 0) } < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// Closes an fd, ignoring errors (close-on-teardown best effort).
pub fn close_fd(fd: RawFd) {
    // SAFETY: close reads no memory; double-close is prevented by the
    // single-owner discipline in Poller/Waker (each fd has exactly one
    // closing owner).
    unsafe {
        let _ = close(fd);
    }
}

/// Creates the waker self-pipe: `(read_end, write_end)`, both
/// non-blocking and close-on-exec.
pub fn wake_pipe() -> io::Result<(RawFd, RawFd)> {
    let mut fds = [0 as c_int; 2];
    #[cfg(target_os = "linux")]
    {
        // SAFETY: pipe2 writes exactly two c_ints into the array we
        // hand it.
        let rc = unsafe { pipe2(fds.as_mut_ptr(), abi::O_NONBLOCK | abi::O_CLOEXEC) };
        if rc < 0 {
            return Err(last_error());
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        // SAFETY: pipe writes exactly two c_ints into the array.
        let rc = unsafe { pipe(fds.as_mut_ptr()) };
        if rc < 0 {
            return Err(last_error());
        }
        for fd in fds {
            if let Err(e) = set_nonblocking(fd) {
                close_fd(fds[0]);
                close_fd(fds[1]);
                return Err(e);
            }
        }
    }
    Ok((fds[0], fds[1]))
}

/// Writes one byte to the wake pipe. A full pipe means a wake is
/// already pending, which is exactly as good — EAGAIN is success.
pub fn write_wake_byte(fd: RawFd) {
    let byte = [1u8];
    // SAFETY: write reads 1 byte from our stack buffer.
    unsafe {
        let _ = write(fd, byte.as_ptr().cast(), 1);
    }
}

/// Drains every pending byte from the wake pipe's read end; returns
/// how many were pending.
pub fn drain_fd(fd: RawFd) -> usize {
    let mut total = 0usize;
    let mut buf = [0u8; 64];
    loop {
        // SAFETY: read writes at most buf.len() bytes into our stack
        // buffer.
        let n = unsafe { read(fd, buf.as_mut_ptr().cast(), buf.len()) };
        if n <= 0 {
            return total;
        }
        total += n as usize;
    }
}

// ---------------------------------------------------------------------------
// non-blocking TCP connect
// ---------------------------------------------------------------------------

/// `struct sockaddr_in` / `sockaddr_in6`, built by value so `connect`
/// never sees a pointer into anything but our stack.
#[repr(C)]
struct SockAddrV4Raw {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    family: u16,
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    len: u8,
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    family: u8,
    port_be: u16,
    addr_be: u32,
    zero: [u8; 8],
}

#[repr(C)]
struct SockAddrV6Raw {
    #[cfg(any(target_os = "linux", target_os = "android"))]
    family: u16,
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    len: u8,
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    family: u8,
    port_be: u16,
    flowinfo: u32,
    addr: [u8; 16],
    scope_id: u32,
}

/// Starts a TCP connect without blocking: the socket is created
/// non-blocking, `connect(2)` returns immediately (`EINPROGRESS` is
/// the expected success), and the caller learns the outcome from a
/// writability event plus [`take_socket_error`].
///
/// # Errors
///
/// Propagates socket-creation failures and synchronous connect
/// refusals (anything but `EINPROGRESS`).
pub fn connect_nonblocking(addr: SocketAddr) -> io::Result<TcpStream> {
    let family = match addr {
        SocketAddr::V4(_) => AF_INET,
        SocketAddr::V6(_) => abi::AF_INET6,
    };
    // SAFETY: socket reads no memory.
    let fd = unsafe { socket(family, SOCK_STREAM, 0) };
    if fd < 0 {
        return Err(last_error());
    }
    if let Err(e) = set_nonblocking(fd) {
        close_fd(fd);
        return Err(e);
    }
    let rc = match addr {
        SocketAddr::V4(v4) => {
            let raw = SockAddrV4Raw {
                #[cfg(not(any(target_os = "linux", target_os = "android")))]
                len: mem::size_of::<SockAddrV4Raw>() as u8,
                family: AF_INET as _,
                port_be: v4.port().to_be(),
                addr_be: u32::from_ne_bytes(v4.ip().octets()),
                zero: [0; 8],
            };
            // SAFETY: connect reads size_of::<SockAddrV4Raw>() bytes
            // from the struct we pass, which lives until the call
            // returns.
            unsafe {
                connect(fd, (&raw as *const SockAddrV4Raw).cast(), mem::size_of_val(&raw) as u32)
            }
        }
        SocketAddr::V6(v6) => {
            let raw = SockAddrV6Raw {
                #[cfg(not(any(target_os = "linux", target_os = "android")))]
                len: mem::size_of::<SockAddrV6Raw>() as u8,
                family: abi::AF_INET6 as _,
                port_be: v6.port().to_be(),
                flowinfo: v6.flowinfo(),
                addr: v6.ip().octets(),
                scope_id: v6.scope_id(),
            };
            // SAFETY: as above, for the v6 layout.
            unsafe {
                connect(fd, (&raw as *const SockAddrV6Raw).cast(), mem::size_of_val(&raw) as u32)
            }
        }
    };
    if rc < 0 {
        let err = last_error();
        if err.raw_os_error() != Some(abi::EINPROGRESS) {
            close_fd(fd);
            return Err(err);
        }
    }
    // SAFETY: fd is a freshly created, connected-or-connecting socket
    // we exclusively own; from_raw_fd transfers that ownership to the
    // TcpStream, which becomes its single closer.
    Ok(unsafe { TcpStream::from_raw_fd(fd) })
}

/// Reads and clears `SO_ERROR` — the deferred outcome of a
/// non-blocking connect, checked once the socket reports writable.
///
/// # Errors
///
/// Returns the stored socket error, or the `getsockopt` failure.
pub fn take_socket_error(fd: RawFd) -> io::Result<()> {
    let mut err: c_int = 0;
    let mut len: u32 = mem::size_of::<c_int>() as u32;
    // SAFETY: getsockopt writes at most `len` bytes into `err`, which
    // is sized exactly for it.
    let rc = unsafe {
        getsockopt(fd, abi::SOL_SOCKET, abi::SO_ERROR, (&mut err as *mut c_int).cast(), &mut len)
    };
    if rc < 0 {
        return Err(last_error());
    }
    if err != 0 {
        return Err(io::Error::from_raw_os_error(err));
    }
    Ok(())
}

/// Waits up to `timeout` for `fd` to become writable (one-fd
/// `poll(2)`, EINTR retried). Used for the bounded *setup-time*
/// connect — the event loop itself never calls this.
///
/// # Errors
///
/// Propagates poll failures other than EINTR.
pub fn await_writable(fd: RawFd, timeout: Duration) -> io::Result<bool> {
    let deadline = std::time::Instant::now() + timeout;
    loop {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        let ms = remaining.as_millis().min(c_int::MAX as u128) as c_int;
        let mut pfd = PollFd::new(fd, false, true);
        match poll_fds(std::slice::from_mut(&mut pfd), ms) {
            Err(err) if is_interrupted(&err) && std::time::Instant::now() < deadline => continue,
            Err(err) => return Err(err),
            Ok(ready) => return Ok(ready > 0 && (pfd.writable() || pfd.error())),
        }
    }
}

// ---------------------------------------------------------------------------
// poll(2)
// ---------------------------------------------------------------------------

/// `poll(2)` over `fds`: fills each entry's outcome and returns how
/// many fds are ready. `timeout_ms < 0` waits forever. EINTR is *not*
/// retried here — the caller (the Poller, which owns the
/// retry-with-recomputed-timeout policy) sees
/// `io::ErrorKind::Interrupted`.
///
/// # Errors
///
/// Propagates the raw poll failure, including EINTR.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: c_int) -> io::Result<usize> {
    // SAFETY: poll reads/writes exactly fds.len() PollFd records in
    // the slice, which outlives the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------------
// test support: signals and fd numbers (the crate's tests only)
// ---------------------------------------------------------------------------

#[cfg(test)]
extern "C" fn noop_signal_handler(_sig: c_int) {}

/// An opaque handle to the calling thread, targetable by
/// [`interrupt_thread`].
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct ThreadHandle(usize);

/// Installs a no-op handler for SIGUSR1 so a directed signal
/// interrupts a blocking wait with EINTR instead of killing the
/// process. (poll is never auto-restarted after a signal
/// handler runs, per signal(7) — which is exactly what the EINTR
/// negative test needs.)
#[cfg(test)]
pub(crate) fn install_interrupt_handler() {
    // SAFETY: signal installs a pointer to our no-op extern "C"
    // handler; the handler itself touches no state.
    unsafe {
        let _ = signal(abi::SIGUSR1, noop_signal_handler);
    }
}

/// The calling thread's handle.
#[cfg(test)]
pub(crate) fn current_thread() -> ThreadHandle {
    // SAFETY: pthread_self reads no memory.
    ThreadHandle(unsafe { pthread_self() })
}

/// A duplicate of `fd` numbered `min` or above. Fresh fds take the
/// lowest free number, so while the process holds fewer than `min`
/// fds no other thread is handed this number, open or closed — a test
/// can close it and know it stays closed.
#[cfg(test)]
pub(crate) fn dup_at_least(fd: RawFd, min: RawFd) -> RawFd {
    const F_DUPFD: c_int = 0;
    // SAFETY: fcntl(F_DUPFD) reads no memory.
    let dup = unsafe { fcntl(fd, F_DUPFD, min) };
    assert!(dup >= min, "F_DUPFD: {}", last_error());
    dup
}

/// Sends SIGUSR1 to exactly `thread` (EINTR lands on the waiter, not
/// on whichever thread the kernel fancies).
#[cfg(test)]
pub(crate) fn interrupt_thread(thread: ThreadHandle) {
    // SAFETY: pthread_kill reads no memory; an already-exited thread
    // yields ESRCH, ignored.
    unsafe {
        let _ = pthread_kill(thread.0, abi::SIGUSR1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, UdpSocket};

    #[test]
    fn wake_pipe_round_trips_and_drains() {
        let (r, w) = wake_pipe().expect("pipe");
        assert_eq!(drain_fd(r), 0, "fresh pipe is empty");
        write_wake_byte(w);
        write_wake_byte(w);
        assert_eq!(drain_fd(r), 2);
        assert_eq!(drain_fd(r), 0, "drained pipe is empty again");
        close_fd(r);
        close_fd(w);
    }

    #[test]
    fn nonblocking_connect_completes_against_a_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let stream = connect_nonblocking(addr).expect("starts connecting");
        use std::os::fd::AsRawFd;
        assert!(await_writable(stream.as_raw_fd(), Duration::from_secs(2)).expect("poll"));
        take_socket_error(stream.as_raw_fd()).expect("connect succeeded");
        let (mut accepted, _) = listener.accept().expect("accept");
        let mut s = stream;
        s.write_all(b"hi").expect("write");
        let mut buf = [0u8; 2];
        accepted.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"hi");
    }

    #[test]
    fn nonblocking_connect_to_a_dead_port_reports_the_error() {
        // Bind-then-drop reserves a port that refuses connections.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("bind");
            l.local_addr().expect("addr")
        };
        match connect_nonblocking(dead) {
            // Synchronous refusal (loopback fast path) is fine.
            Err(_) => {}
            Ok(stream) => {
                use std::os::fd::AsRawFd;
                let fd = stream.as_raw_fd();
                assert!(await_writable(fd, Duration::from_secs(2)).expect("poll"));
                assert!(take_socket_error(fd).is_err(), "SO_ERROR holds the refusal");
            }
        }
    }

    #[test]
    fn poll_entries_sees_udp_readability() {
        use std::os::fd::AsRawFd;
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let mut fds = [PollFd::new(rx.as_raw_fd(), true, false)];
        let ready = poll_fds(&mut fds, 0).expect("poll");
        assert_eq!(ready, 0, "nothing sent yet");
        assert!(!fds[0].readable());
        tx.send_to(b"x", rx.local_addr().expect("addr")).expect("send");
        let ready = poll_fds(&mut fds, 2_000).expect("poll");
        assert_eq!(ready, 1);
        assert!(fds[0].readable());
        assert!(!fds[0].writable() && !fds[0].error());
    }
}
