//! The two-tier store: in-memory map in front of an optional on-disk
//! blob directory.

use crate::stats::{CacheStats, StatCounters};
use crate::CacheKey;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Magic bytes opening every on-disk cache object.
pub const OBJECT_MAGIC: &[u8; 8] = b"WARPFC01";

/// The serialization contract for cached artifacts.
///
/// `from_bytes(to_bytes(v)) == Some(v)` must hold; `from_bytes` must
/// return `None` (never panic) on input it does not understand, so a
/// stale or foreign object degrades to a cache miss.
pub trait CacheValue: Clone {
    /// Serializes the artifact.
    fn to_bytes(&self) -> Vec<u8>;
    /// Deserializes, or `None` if the bytes are not a valid artifact.
    fn from_bytes(bytes: &[u8]) -> Option<Self>;
}

fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// A content-addressed cache of `V` artifacts.
///
/// Thread-safe: lookups and stores may race from many worker threads
/// (the parallel driver probes it from the master and populates it
/// from every function master).
#[derive(Debug)]
pub struct Cache<V> {
    map: Mutex<HashMap<CacheKey, V>>,
    dir: Option<PathBuf>,
    stats: StatCounters,
}

impl<V: CacheValue> Cache<V> {
    /// A purely in-memory cache (lives as long as the process; what
    /// `compile_parallel_cached` uses within one build, and what tests
    /// use for warm-rebuild scenarios).
    pub fn in_memory() -> Cache<V> {
        Cache {
            map: Mutex::new(HashMap::new()),
            dir: None,
            stats: StatCounters::default(),
        }
    }

    /// A cache backed by an on-disk object directory (`warpcc
    /// --cache-dir`): misses fall through to `dir`, stores write
    /// through to it, so the cache survives the process.
    ///
    /// # Errors
    ///
    /// Returns an error if the directory cannot be created.
    pub fn with_dir(dir: impl Into<PathBuf>) -> std::io::Result<Cache<V>> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Cache {
            map: Mutex::new(HashMap::new()),
            dir: Some(dir),
            stats: StatCounters::default(),
        })
    }

    /// The on-disk directory, if this cache has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Path of the object file for `key` (even if it does not exist).
    fn object_path(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join(format!("{}.wco", key.hex()))
    }

    /// Looks up `key`: first the in-memory map, then the disk store.
    /// A disk hit is decoded, validated and promoted into memory.
    pub fn lookup(&self, key: CacheKey) -> Option<V> {
        if let Some(v) = self.map.lock().expect("cache lock").get(&key) {
            StatCounters::bump(&self.stats.memory_hits);
            return Some(v.clone());
        }
        if let Some(dir) = &self.dir {
            match std::fs::read(Self::object_path(dir, key)) {
                Ok(bytes) => match decode_object(key, &bytes).and_then(V::from_bytes) {
                    Some(v) => {
                        StatCounters::bump(&self.stats.disk_hits);
                        self.map.lock().expect("cache lock").insert(key, v.clone());
                        return Some(v);
                    }
                    None => {
                        // Corrupt or stale-format object: drop it and
                        // treat as a miss.
                        StatCounters::bump(&self.stats.errors);
                        let _ = std::fs::remove_file(Self::object_path(dir, key));
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(_) => StatCounters::bump(&self.stats.errors),
            }
        }
        StatCounters::bump(&self.stats.misses);
        None
    }

    /// Inserts `value` under `key`, writing through to the disk store
    /// if one is configured. Disk write failures are counted but not
    /// fatal — the build result is already in hand.
    pub fn store(&self, key: CacheKey, value: V) {
        if let Some(dir) = &self.dir {
            let blob = encode_object(key, &value.to_bytes());
            // Write via a unique temp file + rename so concurrent
            // writers of the same key can never interleave bytes.
            let tmp = dir.join(format!(".{}.{:x}.tmp", key.hex(), std::process::id()));
            let ok = std::fs::write(&tmp, &blob)
                .and_then(|()| std::fs::rename(&tmp, Self::object_path(dir, key)))
                .is_ok();
            if !ok {
                StatCounters::bump(&self.stats.errors);
                let _ = std::fs::remove_file(&tmp);
            }
        }
        self.map.lock().expect("cache lock").insert(key, value);
        StatCounters::bump(&self.stats.stores);
    }

    /// A fresh in-memory cache seeded with a copy of this cache's
    /// in-memory entries, with zeroed counters and no disk tier.
    /// Useful for replaying a rebuild against a fixed prior state (the
    /// cache-invalidation tests fork a primed cache per scenario so
    /// stores during one run cannot leak into the next).
    pub fn fork_memory(&self) -> Cache<V> {
        Cache {
            map: Mutex::new(self.map.lock().expect("cache lock").clone()),
            dir: None,
            stats: StatCounters::default(),
        }
    }

    /// Number of objects currently held in memory.
    pub fn len(&self) -> usize {
        self.map.lock().expect("cache lock").len()
    }

    /// `true` if the in-memory map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Activity counters since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }
}

/// Frames a payload as an on-disk object: magic, the key (a self-check
/// against renamed files), a length-prefixed payload, and a trailing
/// FNV-1a-32 checksum over everything before it.
fn encode_object(key: CacheKey, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(payload.len() + 24);
    buf.extend_from_slice(OBJECT_MAGIC);
    buf.extend_from_slice(&key.0.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    buf.extend_from_slice(payload);
    let sum = fnv1a32(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// Unframes an on-disk object, returning the payload only if the
/// magic, key, length and checksum all validate.
fn decode_object(key: CacheKey, bytes: &[u8]) -> Option<&[u8]> {
    let rest = bytes.strip_prefix(OBJECT_MAGIC.as_slice())?;
    if rest.len() < 20 {
        return None;
    }
    let (head, tail) = rest.split_at(16);
    let stored_key = u64::from_le_bytes(head[0..8].try_into().ok()?);
    let len = u64::from_le_bytes(head[8..16].try_into().ok()?) as usize;
    if stored_key != key.0 || tail.len() != len + 4 {
        return None;
    }
    let (payload, sum_bytes) = tail.split_at(len);
    let stored_sum = u32::from_le_bytes(sum_bytes.try_into().ok()?);
    if fnv1a32(&bytes[..bytes.len() - 4]) != stored_sum {
        return None;
    }
    Some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CacheValue for String {
        fn to_bytes(&self) -> Vec<u8> {
            self.as_bytes().to_vec()
        }
        fn from_bytes(bytes: &[u8]) -> Option<Self> {
            String::from_utf8(bytes.to_vec()).ok()
        }
    }

    fn key(n: u64) -> CacheKey {
        CacheKey(n)
    }

    #[test]
    fn memory_roundtrip_and_stats() {
        let c: Cache<String> = Cache::in_memory();
        assert_eq!(c.lookup(key(1)), None);
        c.store(key(1), "hello".to_string());
        assert_eq!(c.lookup(key(1)), Some("hello".to_string()));
        let s = c.stats();
        assert_eq!((s.memory_hits, s.misses, s.stores), (1, 1, 1));
    }

    #[test]
    fn disk_roundtrip_across_instances() {
        let dir = std::env::temp_dir().join(format!("warp-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let c: Cache<String> = Cache::with_dir(&dir).expect("create");
            c.store(key(7), "persisted".to_string());
        }
        let c2: Cache<String> = Cache::with_dir(&dir).expect("open");
        assert_eq!(c2.lookup(key(7)), Some("persisted".to_string()));
        let s = c2.stats();
        assert_eq!(s.disk_hits, 1);
        // Promoted into memory: a second lookup is a memory hit.
        assert_eq!(c2.lookup(key(7)), Some("persisted".to_string()));
        assert_eq!(c2.stats().memory_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_object_degrades_to_miss() {
        let dir = std::env::temp_dir().join(format!("warp-cache-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c: Cache<String> = Cache::with_dir(&dir).expect("create");
        c.store(key(9), "x".to_string());
        let path = dir.join(format!("{}.wco", key(9).hex()));
        let mut bytes = std::fs::read(&path).expect("read");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let fresh: Cache<String> = Cache::with_dir(&dir).expect("open");
        assert_eq!(fresh.lookup(key(9)), None);
        let s = fresh.stats();
        assert_eq!((s.errors, s.misses), (1, 1));
        // The corrupt object was removed.
        assert!(!path.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn object_framing_rejects_wrong_key() {
        let blob = encode_object(key(1), b"payload");
        assert!(decode_object(key(1), &blob).is_some());
        assert!(decode_object(key(2), &blob).is_none());
        assert!(decode_object(key(1), &blob[..blob.len() - 1]).is_none());
        assert!(decode_object(key(1), b"short").is_none());
    }
}
