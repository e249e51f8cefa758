//! The system calls an idle worker's wait needs that `std` does not wrap:
//! `ppoll(2)`, a wait on several fds at once with a timeout finer than
//! `poll(2)`'s millisecond, and `eventfd(2)`, the fd a mailbox's doorbell
//! rings. Linux only: elsewhere a doorbell is its flag alone and a wait is a
//! sleep of at most `FIRST_PARK_SLICE`, which every caller survives because
//! it re-checks after any wait.

#[cfg(target_os = "linux")]
pub(crate) use linux::*;
#[cfg(not(target_os = "linux"))]
pub(crate) use other::*;

#[cfg(target_os = "linux")]
mod linux {
    use std::ffi::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
    use std::fs::File;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;
    use std::os::fd::{AsRawFd, FromRawFd};
    use std::time::Duration;

    /// One fd to wait on: `struct pollfd`, asking for `POLLIN` (there are
    /// bytes to read; end-of-stream and errors are reported whatever is
    /// asked for).
    #[repr(C)]
    pub(crate) struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    impl PollFd {
        fn readable(fd: c_int) -> Self {
            PollFd { fd, events: 0x001, revents: 0 }
        }

        /// Waits for `stream` to have bytes (or end-of-stream) to read.
        pub(crate) fn socket(stream: &TcpStream) -> Self {
            PollFd::readable(stream.as_raw_fd())
        }

        /// Whether the last [`await_readable`] reported this fd.
        pub(crate) fn woke(&self) -> bool {
            self.revents != 0
        }
    }

    /// `struct timespec`.
    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    unsafe extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: c_ulong,
            timeout: *const Timespec,
            sigmask: *const c_void,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
    }

    /// Blocks until one of `fds` is readable, a signal arrives or `timeout`
    /// passes (`None`: no timeout). Which fds woke is in their
    /// [`woke`](PollFd::woke); an interrupted call is a wake like any other.
    pub(crate) fn await_readable(fds: &mut [PollFd], timeout: Option<Duration>) {
        let timeout = timeout.map(|timeout| Timespec {
            tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
            tv_nsec: timeout.subsec_nanos() as c_long,
        });
        let timeout = timeout.as_ref().map_or(std::ptr::null(), |timeout| timeout as *const _);
        // SAFETY: `fds` is a live, exclusively borrowed slice of `pollfd`s of
        // the length passed, of which the kernel writes only `revents`;
        // `timeout` is null or points at a `timespec` that outlives the call;
        // a null signal mask leaves the thread's mask as it is.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout, std::ptr::null()) };
    }

    /// A counter the kernel can wait on: a non-blocking `eventfd`.
    pub(crate) struct EventFd(File);

    impl EventFd {
        pub(crate) fn new() -> io::Result<Self> {
            const EFD_NONBLOCK: c_int = 0o4_000;
            const EFD_CLOEXEC: c_int = 0o2_000_000;
            // SAFETY: `eventfd` takes no pointers.
            let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if fd < 0 {
                return Err(io::Error::last_os_error());
            }
            // SAFETY: `fd` is a new fd nothing else owns, so the file may
            // close it.
            Ok(EventFd(unsafe { File::from_raw_fd(fd) }))
        }

        /// Makes the fd readable until the next [`drain`](EventFd::drain).
        /// The write cannot fail short of 2^64 signals without a drain.
        pub(crate) fn signal(&self) {
            let _ = (&self.0).write(&1u64.to_ne_bytes());
        }

        /// Resets the counter: the fd stops being readable.
        pub(crate) fn drain(&self) {
            let _ = (&self.0).read(&mut [0u8; 8]);
        }

        /// Waits for a [`signal`](EventFd::signal).
        pub(crate) fn poll_fd(&self) -> PollFd {
            PollFd::readable(self.0.as_raw_fd())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod other {
    use std::io;
    use std::net::TcpStream;
    use std::time::Duration;

    /// Nothing is polled.
    pub(crate) struct PollFd;

    impl PollFd {
        pub(crate) fn socket(_stream: &TcpStream) -> Self {
            PollFd
        }

        pub(crate) fn woke(&self) -> bool {
            false
        }
    }

    /// Sleeps `timeout`, at most `FIRST_PARK_SLICE`: nothing ends it early.
    pub(crate) fn await_readable(_fds: &mut [PollFd], timeout: Option<Duration>) {
        let slice = crate::worker::FIRST_PARK_SLICE;
        std::thread::sleep(timeout.map_or(slice, |timeout| timeout.min(slice)));
    }

    /// Nothing: signalling it does nothing.
    pub(crate) struct EventFd;

    impl EventFd {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(EventFd)
        }

        pub(crate) fn signal(&self) {}

        pub(crate) fn drain(&self) {}

        pub(crate) fn poll_fd(&self) -> PollFd {
            PollFd
        }
    }
}
