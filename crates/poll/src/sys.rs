//! Raw readiness syscalls — the only unsafe file in the crate, and the
//! only one in the workspace's `src` directories (pinned by the
//! `cargo xtask analyze` unsafe allowlist).
//!
//! Everything here is a thin, totally-safe-to-call wrapper over a
//! libc-less `extern "C"` surface: epoll on Linux, kqueue on macOS, a
//! portable `poll(2)` fallback, non-blocking `connect(2)` (std offers
//! no way to start a TCP connect without blocking), and the self-pipe
//! the event loop uses as its waker. No function in this file blocks
//! except [`poll_entries`]/backend waits, which take an explicit
//! timeout. Callers never see a raw pointer: inputs and outputs are
//! plain values, slices and `Vec`s.
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
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn pipe2(fds: *mut c_int, flags: c_int) -> c_int;
}

#[cfg(target_os = "macos")]
extern "C" {
    fn kqueue() -> c_int;
    fn kevent(
        kq: c_int,
        changelist: *const KEvent,
        nchanges: c_int,
        eventlist: *mut KEvent,
        nevents: c_int,
        timeout: *const Timespec,
    ) -> c_int;
}

// ---------------------------------------------------------------------------
// ABI constants (transcribed; see module docs)
// ---------------------------------------------------------------------------

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
    // Conservative defaults shared by the BSDs; the poll(2) fallback
    // backend is the only one compiled on these targets.
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

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

#[cfg(target_os = "linux")]
mod epoll_abi {
    use core::ffi::c_int;
    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x001;
    pub const EPOLLOUT: u32 = 0x004;
    pub const EPOLLERR: u32 = 0x008;
    pub const EPOLLHUP: u32 = 0x010;
}

/// `struct epoll_event`: packed on x86_64 only, matching the kernel
/// UAPI's `EPOLL_PACKED` attribute.
#[cfg(target_os = "linux")]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

#[cfg(target_os = "macos")]
#[repr(C)]
#[derive(Clone, Copy)]
struct KEvent {
    ident: usize,
    filter: i16,
    flags: u16,
    fflags: u32,
    data: isize,
    udata: *mut c_void,
}

#[cfg(target_os = "macos")]
#[repr(C)]
struct Timespec {
    tv_sec: isize,
    tv_nsec: isize,
}

#[cfg(target_os = "macos")]
mod kqueue_abi {
    pub const EVFILT_READ: i16 = -1;
    pub const EVFILT_WRITE: i16 = -2;
    pub const EV_ADD: u16 = 0x0001;
    pub const EV_DELETE: u16 = 0x0002;
    pub const EV_EOF: u16 = 0x8000;
    pub const EV_ERROR: u16 = 0x4000;
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
        let mut pfd = PollFd { fd, events: POLLOUT, revents: 0 };
        // SAFETY: poll reads/writes exactly one PollFd from our stack.
        let rc = unsafe { poll(&mut pfd, 1, ms) };
        if rc < 0 {
            let err = last_error();
            if is_interrupted(&err) && std::time::Instant::now() < deadline {
                continue;
            }
            return Err(err);
        }
        return Ok(rc > 0 && pfd.revents & (POLLOUT | POLLERR | POLLHUP) != 0);
    }
}

// ---------------------------------------------------------------------------
// portable poll(2) backend
// ---------------------------------------------------------------------------

/// One fd's interest and outcome in a [`poll_entries`] call.
#[derive(Debug, Clone, Copy)]
pub struct PollEntry {
    /// The fd to watch.
    pub fd: RawFd,
    /// Watch for readability.
    pub want_read: bool,
    /// Watch for writability.
    pub want_write: bool,
    /// Out: readable (or hung up — a read will not block).
    pub readable: bool,
    /// Out: writable.
    pub writable: bool,
    /// Out: error/hangup condition.
    pub error: bool,
}

impl PollEntry {
    /// A fresh entry with no outcome bits set.
    pub fn new(fd: RawFd, want_read: bool, want_write: bool) -> Self {
        PollEntry { fd, want_read, want_write, readable: false, writable: false, error: false }
    }
}

/// `poll(2)` over `entries`; fills each entry's outcome bits and
/// returns how many fds are ready. `timeout_ms < 0` waits forever.
/// EINTR is *not* retried here — the caller (the Poller, which owns
/// the retry-with-recomputed-timeout policy) sees
/// `io::ErrorKind::Interrupted`.
///
/// # Errors
///
/// Propagates the raw poll failure, including EINTR.
pub fn poll_entries(entries: &mut [PollEntry], timeout_ms: c_int) -> io::Result<usize> {
    let mut fds: Vec<PollFd> = entries
        .iter()
        .map(|e| PollFd {
            fd: e.fd,
            events: if e.want_read { POLLIN } else { 0 } | if e.want_write { POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    // SAFETY: poll reads/writes exactly fds.len() PollFd records in
    // the Vec's buffer, which outlives the call.
    let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_uint, timeout_ms) };
    if rc < 0 {
        return Err(last_error());
    }
    for (entry, pfd) in entries.iter_mut().zip(&fds) {
        entry.readable = pfd.revents & (POLLIN | POLLHUP) != 0;
        entry.writable = pfd.revents & POLLOUT != 0;
        entry.error = pfd.revents & (POLLERR | POLLHUP) != 0;
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------------
// epoll backend (Linux)
// ---------------------------------------------------------------------------

/// One readiness event out of a backend wait.
#[derive(Debug, Clone, Copy)]
pub struct RawEvent {
    /// The registration's token.
    pub token: u64,
    /// A read will not block.
    pub readable: bool,
    /// A write will not block.
    pub writable: bool,
    /// Error or hangup (delivered regardless of interest).
    pub error: bool,
}

#[cfg(target_os = "linux")]
fn epoll_interest(read: bool, write: bool) -> u32 {
    let mut events = 0u32;
    if read {
        events |= epoll_abi::EPOLLIN;
    }
    if write {
        events |= epoll_abi::EPOLLOUT;
    }
    events
}

/// Creates an epoll instance (close-on-exec).
///
/// # Errors
///
/// Propagates the creation failure.
#[cfg(target_os = "linux")]
pub fn epoll_create() -> io::Result<RawFd> {
    // SAFETY: epoll_create1 reads no memory.
    let fd = unsafe { epoll_create1(epoll_abi::EPOLL_CLOEXEC) };
    if fd < 0 {
        return Err(last_error());
    }
    Ok(fd)
}

#[cfg(target_os = "linux")]
fn epoll_ctl_op(epfd: RawFd, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
    let mut ev = EpollEvent { events, data: token };
    // SAFETY: epoll_ctl reads one EpollEvent from our stack (ignored
    // for DEL); invalid fds yield EBADF/ENOENT, reported as errors.
    let rc = unsafe { epoll_ctl(epfd, op, fd, &mut ev) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// Registers `fd` with the epoll set.
///
/// # Errors
///
/// Propagates the registration failure (e.g. a closed fd).
#[cfg(target_os = "linux")]
pub fn epoll_add(epfd: RawFd, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
    epoll_ctl_op(epfd, epoll_abi::EPOLL_CTL_ADD, fd, token, epoll_interest(read, write))
}

/// Changes an existing registration's interest set.
///
/// # Errors
///
/// Propagates the modification failure (e.g. a closed fd).
#[cfg(target_os = "linux")]
pub fn epoll_modify(epfd: RawFd, fd: RawFd, token: u64, read: bool, write: bool) -> io::Result<()> {
    epoll_ctl_op(epfd, epoll_abi::EPOLL_CTL_MOD, fd, token, epoll_interest(read, write))
}

/// Removes `fd` from the epoll set.
///
/// # Errors
///
/// Propagates the removal failure (already-closed fds are fine to
/// ignore at the call site).
#[cfg(target_os = "linux")]
pub fn epoll_remove(epfd: RawFd, fd: RawFd) -> io::Result<()> {
    epoll_ctl_op(epfd, epoll_abi::EPOLL_CTL_DEL, fd, 0, 0)
}

/// Waits for events on the epoll set; appends to `out` and returns
/// the count. `timeout_ms < 0` waits forever. EINTR is surfaced as
/// `io::ErrorKind::Interrupted` for the caller's retry policy.
///
/// # Errors
///
/// Propagates the raw wait failure, including EINTR.
#[cfg(target_os = "linux")]
pub fn epoll_wait_events(
    epfd: RawFd,
    out: &mut Vec<RawEvent>,
    capacity: usize,
    timeout_ms: c_int,
) -> io::Result<usize> {
    let capacity = capacity.max(1);
    let mut raw: Vec<EpollEvent> = vec![EpollEvent { events: 0, data: 0 }; capacity];
    // SAFETY: epoll_wait writes at most `capacity` EpollEvent records
    // into the Vec's buffer, which outlives the call; the return value
    // bounds how many we read back.
    let rc = unsafe { epoll_wait(epfd, raw.as_mut_ptr(), capacity as c_int, timeout_ms) };
    if rc < 0 {
        return Err(last_error());
    }
    for ev in raw.iter().take(rc as usize) {
        let events = ev.events;
        let data = ev.data;
        out.push(RawEvent {
            token: data,
            readable: events & (epoll_abi::EPOLLIN | epoll_abi::EPOLLHUP) != 0,
            writable: events & epoll_abi::EPOLLOUT != 0,
            error: events & (epoll_abi::EPOLLERR | epoll_abi::EPOLLHUP) != 0,
        });
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------------
// kqueue backend (macOS)
// ---------------------------------------------------------------------------

/// Creates a kqueue instance.
///
/// # Errors
///
/// Propagates the creation failure.
#[cfg(target_os = "macos")]
pub fn kqueue_create() -> io::Result<RawFd> {
    // SAFETY: kqueue reads no memory.
    let fd = unsafe { kqueue() };
    if fd < 0 {
        return Err(last_error());
    }
    Ok(fd)
}

#[cfg(target_os = "macos")]
fn kevent_change(kq: RawFd, fd: RawFd, filter: i16, flags: u16, token: u64) -> io::Result<()> {
    let change = KEvent {
        ident: fd as usize,
        filter,
        flags,
        fflags: 0,
        data: 0,
        udata: token as *mut c_void,
    };
    // SAFETY: kevent reads one KEvent from our stack; no eventlist.
    let rc = unsafe { kevent(kq, &change, 1, std::ptr::null_mut(), 0, std::ptr::null()) };
    if rc < 0 {
        return Err(last_error());
    }
    Ok(())
}

/// (Re)registers `fd`'s read/write filters; kqueue treats ADD of an
/// existing filter as modify, so add and modify share this call.
///
/// # Errors
///
/// Propagates the registration failure (e.g. a closed fd).
#[cfg(target_os = "macos")]
pub fn kqueue_register(
    kq: RawFd,
    fd: RawFd,
    token: u64,
    read: bool,
    write: bool,
) -> io::Result<()> {
    use kqueue_abi::*;
    if read {
        kevent_change(kq, fd, EVFILT_READ, EV_ADD, token)?;
    } else {
        let _ = kevent_change(kq, fd, EVFILT_READ, EV_DELETE, token);
    }
    if write {
        kevent_change(kq, fd, EVFILT_WRITE, EV_ADD, token)?;
    } else {
        let _ = kevent_change(kq, fd, EVFILT_WRITE, EV_DELETE, token);
    }
    Ok(())
}

/// Removes both filters for `fd` (best effort — closing an fd already
/// removed its filters).
#[cfg(target_os = "macos")]
pub fn kqueue_remove(kq: RawFd, fd: RawFd) {
    use kqueue_abi::*;
    let _ = kevent_change(kq, fd, EVFILT_READ, EV_DELETE, 0);
    let _ = kevent_change(kq, fd, EVFILT_WRITE, EV_DELETE, 0);
}

/// Waits for events on the kqueue; appends to `out` and returns the
/// count. `timeout_ms < 0` waits forever. EINTR surfaces as
/// `io::ErrorKind::Interrupted`.
///
/// # Errors
///
/// Propagates the raw wait failure, including EINTR.
#[cfg(target_os = "macos")]
pub fn kqueue_wait_events(
    kq: RawFd,
    out: &mut Vec<RawEvent>,
    capacity: usize,
    timeout_ms: c_int,
) -> io::Result<usize> {
    use kqueue_abi::*;
    let capacity = capacity.max(1);
    let mut raw: Vec<KEvent> = vec![
        KEvent {
            ident: 0,
            filter: 0,
            flags: 0,
            fflags: 0,
            data: 0,
            udata: std::ptr::null_mut()
        };
        capacity
    ];
    let ts;
    let ts_ptr = if timeout_ms < 0 {
        std::ptr::null()
    } else {
        ts = Timespec {
            tv_sec: (timeout_ms / 1000) as isize,
            tv_nsec: (timeout_ms % 1000) as isize * 1_000_000,
        };
        &ts as *const Timespec
    };
    // SAFETY: kevent writes at most `capacity` KEvent records into the
    // Vec's buffer; the return value bounds how many we read back.
    let rc =
        unsafe { kevent(kq, std::ptr::null(), 0, raw.as_mut_ptr(), capacity as c_int, ts_ptr) };
    if rc < 0 {
        return Err(last_error());
    }
    for ev in raw.iter().take(rc as usize) {
        out.push(RawEvent {
            token: ev.udata as u64,
            readable: ev.filter == EVFILT_READ,
            writable: ev.filter == EVFILT_WRITE,
            error: ev.flags & (EV_EOF | EV_ERROR) != 0,
        });
    }
    Ok(rc as usize)
}

// ---------------------------------------------------------------------------
// EINTR test support (the poller's tests only)
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
/// process. (epoll_wait/poll are never auto-restarted after a signal
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
        let mut entries = [PollEntry::new(rx.as_raw_fd(), true, false)];
        let ready = poll_entries(&mut entries, 0).expect("poll");
        assert_eq!(ready, 0, "nothing sent yet");
        assert!(!entries[0].readable);
        tx.send_to(b"x", rx.local_addr().expect("addr")).expect("send");
        let ready = poll_entries(&mut entries, 2_000).expect("poll");
        assert_eq!(ready, 1);
        assert!(entries[0].readable);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_lifecycle_add_modify_wait_remove() {
        use std::os::fd::AsRawFd;
        let ep = epoll_create().expect("epoll_create");
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        epoll_add(ep, rx.as_raw_fd(), 7, true, false).expect("add");
        let mut out = Vec::new();
        assert_eq!(epoll_wait_events(ep, &mut out, 8, 0).expect("wait"), 0);
        tx.send_to(b"x", rx.local_addr().expect("addr")).expect("send");
        out.clear();
        assert_eq!(epoll_wait_events(ep, &mut out, 8, 2_000).expect("wait"), 1);
        assert_eq!(out[0].token, 7);
        assert!(out[0].readable);
        epoll_modify(ep, rx.as_raw_fd(), 9, true, true).expect("modify");
        out.clear();
        assert_eq!(epoll_wait_events(ep, &mut out, 8, 0).expect("wait"), 1);
        assert_eq!(out[0].token, 9, "modify rebinds the token");
        epoll_remove(ep, rx.as_raw_fd()).expect("remove");
        close_fd(ep);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn epoll_registration_of_a_closed_fd_is_an_error_not_a_crash() {
        let ep = epoll_create().expect("epoll_create");
        let dead_fd = {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
            use std::os::fd::AsRawFd;
            sock.as_raw_fd()
            // socket drops here, closing the fd
        };
        assert!(epoll_add(ep, dead_fd, 1, true, false).is_err());
        close_fd(ep);
    }
}
