//! Length-prefixed framing and hex codecs.
//!
//! Every message on every socket in the workspace is one **frame**: a
//! 4-byte little-endian payload length followed by that many bytes of
//! UTF-8 JSON (one object). A frame whose declared length exceeds the
//! receiver's limit poisons the connection — the receiver answers once
//! (if its protocol has an answer) and closes, because the oversized
//! payload is still in the pipe.
//!
//! A message costs what its bytes cost: [`write_message`] serialises
//! into the buffer it writes (one buffer, one `write`), and the hex
//! codecs are table lookups with one allocation each
//! (`tests/alloc_budget.rs` counts them).

use crate::json::{parse, Json};
use std::fmt::Write as _;
use std::io::{self, Read, Write};

/// Default maximum frame payload size (16 MiB) — generous for module
/// sources and hex-encoded images, small enough that a bad length
/// prefix cannot balloon memory.
pub const MAX_FRAME_DEFAULT: usize = 16 * 1024 * 1024;

/// What went wrong while reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The declared payload length exceeds the receiver's limit.
    TooLarge {
        /// The declared length.
        declared: usize,
        /// The receiver's limit.
        limit: usize,
    },
    /// The connection died mid-frame (truncation) or another I/O
    /// error.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TooLarge { declared, limit } => {
                write!(
                    f,
                    "frame of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            FrameError::Io(e) => write!(f, "frame I/O: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame: 4-byte little-endian length, then the payload —
/// as **one** write, so a frame costs one syscall and a TCP peer never
/// sees the write-write-read pattern that Nagle plus delayed ACK turns
/// into a stall.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&[0; 4]);
    frame.extend_from_slice(payload);
    send(w, frame)
}

/// Fills in the length prefix that `frame` reserved as its first four
/// bytes and writes the whole frame at once.
fn send(w: &mut impl Write, mut frame: Vec<u8>) -> io::Result<()> {
    let len = u32::try_from(frame.len() - 4)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame over 4 GiB"))?;
    frame[..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one frame, retrying reads that time out for as long as
/// `keep_going()` returns true (the daemon polls its shutdown flag
/// between read timeouts; clients pass `|| true`).
///
/// On [`FrameError::TooLarge`] **nothing past the length prefix has
/// been consumed**: the caller must treat the connection as poisoned
/// (answer once, then close), because the oversized payload is still
/// in the pipe.
///
/// # Errors
///
/// [`FrameError::Closed`] on clean EOF between frames, `TooLarge` on a
/// length over `max`, `Io` on truncation or transport failure.
pub fn read_frame(
    r: &mut impl Read,
    max: usize,
    keep_going: impl Fn() -> bool,
) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; 4];
    read_exact_retry(r, &mut header, true, &keep_going)?;
    let len = u32::from_le_bytes(header) as usize;
    if len > max {
        return Err(FrameError::TooLarge {
            declared: len,
            limit: max,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_retry(r, &mut payload, false, &keep_going)?;
    Ok(payload)
}

/// `read_exact` that tolerates read-timeout errors by re-checking
/// `keep_going`. EOF before the first byte of the *header* is a clean
/// close; EOF anywhere else is a truncated frame.
fn read_exact_retry(
    r: &mut impl Read,
    buf: &mut [u8],
    eof_is_close: bool,
    keep_going: &impl Fn() -> bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if eof_is_close && filled == 0 {
                    Err(FrameError::Closed)
                } else {
                    Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "truncated frame",
                    )))
                };
            }
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) || e.kind() == io::ErrorKind::Interrupted =>
            {
                if !keep_going() {
                    return Err(FrameError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "shutting down",
                    )));
                }
            }
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// A frame under construction: the text `Json`'s writer produces goes
/// straight behind the reserved length prefix.
struct FrameText(Vec<u8>);

impl std::fmt::Write for FrameText {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// Writes `msg` as one JSON frame, serialised into the buffer that is
/// written: no intermediate string, no second copy.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_message(w: &mut impl Write, msg: &Json) -> io::Result<()> {
    let mut frame = FrameText(Vec::with_capacity(256));
    frame.0.extend_from_slice(&[0; 4]);
    write!(frame, "{msg}").expect("writing to a Vec cannot fail");
    send(w, frame.0)
}

/// Reads one frame and parses it as JSON. A payload that is not valid
/// UTF-8 JSON yields `Ok(Err(description))` — a *protocol*-level
/// error the receiver answers in-band (the daemon says `bad-json`),
/// distinct from the transport-level [`FrameError`].
///
/// # Errors
///
/// [`FrameError`] on transport problems.
pub fn read_message(
    r: &mut impl Read,
    max: usize,
    keep_going: impl Fn() -> bool,
) -> Result<Result<Json, String>, FrameError> {
    let payload = read_frame(r, max, keep_going)?;
    let Ok(text) = std::str::from_utf8(&payload) else {
        return Ok(Err("frame payload is not UTF-8".to_string()));
    };
    Ok(parse(text).map_err(|e| e.to_string()))
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// The two lowercase hex digits of every byte.
const HEX_PAIRS: [[u8; 2]; 256] = {
    let mut table = [[0; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [HEX_DIGITS[b >> 4], HEX_DIGITS[b & 15]];
        b += 1;
    }
    table
};

/// The value of every byte as a hex digit of either case; 0xff for
/// bytes that are not one.
const HEX_VALUES: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut v = 0;
    while v < 16 {
        table[HEX_DIGITS[v] as usize] = v as u8;
        table[HEX_DIGITS[v].to_ascii_uppercase() as usize] = v as u8;
        v += 1;
    }
    table
};

/// Hex-encodes bytes (lowercase).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut hex = vec![0; bytes.len() * 2];
    for (pair, &b) in hex.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX_PAIRS[usize::from(b)]);
    }
    String::from_utf8(hex).expect("hex digits are ASCII")
}

/// Decodes a lowercase/uppercase hex string.
///
/// # Errors
///
/// Describes the first bad digit or an odd length.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".to_string());
    }
    // Decode without a branch per digit; a bad digit leaves a bit
    // above the low four in `seen` and is looked for afterwards.
    let mut seen = 0;
    let bytes: Vec<u8> = s
        .as_bytes()
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (
                HEX_VALUES[usize::from(pair[0])],
                HEX_VALUES[usize::from(pair[1])],
            );
            seen |= hi | lo;
            hi << 4 | lo
        })
        .collect();
    if seen > 15 {
        let bad = s.bytes().find(|&c| HEX_VALUES[usize::from(c)] > 15);
        let bad = bad.expect("`seen` has a bit only a bad digit sets");
        return Err(format!("bad hex digit `{}`", bad as char));
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r, 1024, || true).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r, 1024, || true).unwrap(), b"");
        assert!(matches!(
            read_frame(&mut r, 1024, || true),
            Err(FrameError::Closed)
        ));
    }

    #[test]
    fn a_frame_is_one_write() {
        struct CountingWriter(usize);
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut w = CountingWriter(0);
        write_frame(&mut w, &[7u8; 4096]).unwrap();
        assert_eq!(w.0, 1, "length prefix and payload travel together");
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0u8; 100]).unwrap();
        let mut r = Cursor::new(buf.clone());
        assert!(matches!(
            read_frame(&mut r, 99, || true),
            Err(FrameError::TooLarge {
                declared: 100,
                limit: 99
            })
        ));

        // Truncate mid-payload.
        let mut r = Cursor::new(buf[..50].to_vec());
        match read_frame(&mut r, 1024, || true) {
            Err(FrameError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected truncation error, got {other:?}"),
        }
    }

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }
}
