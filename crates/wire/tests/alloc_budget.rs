//! What a message costs in allocations, counted, not clocked: a codec
//! that allocates per byte (`format!("{b:02x}")` did, 531,783 times for
//! one `wide` response) or formats per character fails here by five
//! orders of magnitude, on any host, at any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use warp_wire::{from_hex, obj, parse, to_hex, write_message, Json};

thread_local! {
    /// Allocations and reallocations made by this thread. Tests run on
    /// threads of their own, so each counts only its own.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count_one() {
    // A thread that is being torn down has no counter any more.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call goes to `System` with its arguments unchanged, so
// `System`'s guarantees are this allocator's. The counter is a
// const-initialised thread-local `Cell` without a destructor: touching
// it neither allocates nor is visible to another thread.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `work` and returns its result with the allocations it made.
fn counted<T>(work: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const MIB: usize = 1 << 20;

/// Counts calls to `write` and keeps nothing.
struct CountingWriter {
    writes: usize,
    bytes: usize,
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.writes += 1;
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn hex_of_a_mebibyte_allocates_its_output_and_nothing_else() {
    let bytes: Vec<u8> = (0..MIB).map(|i| (i * 31 / 8) as u8).collect();
    let (hex, allocations) = counted(|| to_hex(&bytes));
    assert!(allocations <= 2, "to_hex: {allocations} allocations");
    let (back, allocations) = counted(|| from_hex(&hex));
    assert!(allocations <= 2, "from_hex: {allocations} allocations");
    assert_eq!(back.unwrap(), bytes);
}

#[test]
fn a_message_with_a_mebibyte_string_is_one_growing_buffer_and_one_write() {
    // An image (nothing to escape) and a module source (a newline to
    // escape every 64 bytes): the two large strings the protocols carry.
    let image = "5a".repeat(MIB / 2);
    let source =
        "x := y + 0.5; (* sixty-three bytes of W2 before each newline *)\n".repeat(MIB / 64);
    // Parsing the image allocates three keys, two short strings, the
    // map and the image; an escaped string is put together run by run,
    // in a buffer that doubles.
    for (field, text, parse_budget) in [("image_hex", image, 8), ("module", source, 32)] {
        assert_eq!(text.len(), MIB);
        let message = obj(vec![
            ("id", Json::Num(1.0)),
            ("kind", Json::Str("compiled".into())),
            (field, Json::Str(text)),
        ]);
        let mut sink = CountingWriter {
            writes: 0,
            bytes: 0,
        };
        let ((), allocations) = counted(|| write_message(&mut sink, &message).unwrap());
        assert!(
            allocations <= 24,
            "write_message({field}): {allocations} allocations"
        );
        assert_eq!(sink.writes, 1, "length prefix and payload travel together");

        let text = message.to_string();
        assert_eq!(sink.bytes, 4 + text.len());
        let (parsed, allocations) = counted(|| parse(&text));
        assert_eq!(parsed.unwrap(), message);
        assert!(
            allocations <= parse_budget,
            "parse({field}): {allocations} allocations"
        );
    }
}
