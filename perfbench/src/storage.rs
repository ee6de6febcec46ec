//! A counting [`Storage`] wrapper: the durability layer's disk work,
//! observed from outside the layer.

use durability::Storage;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative storage work. Plain statistics: every counter is
/// `Relaxed`, they publish no other data.
#[derive(Debug, Default)]
pub struct StorageCounters {
    pub syncs: AtomicU64,
    pub appended_bytes: AtomicU64,
    pub atomic_bytes: AtomicU64,
    pub read_bytes: AtomicU64,
    pub full_checkpoints: AtomicU64,
    pub increment_checkpoints: AtomicU64,
}

/// A point-in-time copy of [`StorageCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StorageSnapshot {
    pub syncs: u64,
    pub appended_bytes: u64,
    pub atomic_bytes: u64,
    pub read_bytes: u64,
    pub full_checkpoints: u64,
    pub increment_checkpoints: u64,
}

impl StorageSnapshot {
    /// Bytes handed to the store for writing (log appends plus atomic
    /// checkpoint writes).
    pub fn written_bytes(&self) -> u64 {
        self.appended_bytes + self.atomic_bytes
    }

    /// The work of `self` and `other` together.
    pub fn plus(&self, other: &StorageSnapshot) -> StorageSnapshot {
        StorageSnapshot {
            syncs: self.syncs + other.syncs,
            appended_bytes: self.appended_bytes + other.appended_bytes,
            atomic_bytes: self.atomic_bytes + other.atomic_bytes,
            read_bytes: self.read_bytes + other.read_bytes,
            full_checkpoints: self.full_checkpoints + other.full_checkpoints,
            increment_checkpoints: self.increment_checkpoints + other.increment_checkpoints,
        }
    }

    /// Work done between `earlier` and `self`.
    pub fn since(&self, earlier: &StorageSnapshot) -> StorageSnapshot {
        StorageSnapshot {
            syncs: self.syncs - earlier.syncs,
            appended_bytes: self.appended_bytes - earlier.appended_bytes,
            atomic_bytes: self.atomic_bytes - earlier.atomic_bytes,
            read_bytes: self.read_bytes - earlier.read_bytes,
            full_checkpoints: self.full_checkpoints - earlier.full_checkpoints,
            increment_checkpoints: self.increment_checkpoints - earlier.increment_checkpoints,
        }
    }
}

impl StorageCounters {
    pub fn snapshot(&self) -> StorageSnapshot {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StorageSnapshot {
            syncs: get(&self.syncs),
            appended_bytes: get(&self.appended_bytes),
            atomic_bytes: get(&self.atomic_bytes),
            read_bytes: get(&self.read_bytes),
            full_checkpoints: get(&self.full_checkpoints),
            increment_checkpoints: get(&self.increment_checkpoints),
        }
    }
}

/// Forwards every call to `inner` and counts it. Checkpoint writes are
/// told apart by the store's file naming: `ckpt-*` is a full checkpoint,
/// `inc-*` an increment.
pub struct CountingStorage<S> {
    inner: S,
    counters: std::sync::Arc<StorageCounters>,
}

impl<S: Storage> CountingStorage<S> {
    pub fn new(inner: S, counters: std::sync::Arc<StorageCounters>) -> Self {
        CountingStorage { inner, counters }
    }
}

fn add(counter: &AtomicU64, n: usize) {
    counter.fetch_add(n as u64, Ordering::Relaxed);
}

impl<S: Storage> Storage for CountingStorage<S> {
    fn read(&self, name: &str) -> io::Result<Vec<u8>> {
        let data = self.inner.read(name)?;
        add(&self.counters.read_bytes, data.len());
        Ok(data)
    }

    fn append(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.append(name, data)?;
        add(&self.counters.appended_bytes, data.len());
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> io::Result<()> {
        self.inner.truncate(name, len)
    }

    fn sync(&self, name: &str) -> io::Result<()> {
        self.inner.sync(name)?;
        add(&self.counters.syncs, 1);
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(name, data)?;
        add(&self.counters.atomic_bytes, data.len());
        if name.starts_with("ckpt-") {
            add(&self.counters.full_checkpoints, 1);
        } else if name.starts_with("inc-") {
            add(&self.counters.increment_checkpoints, 1);
        }
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use durability::MemFs;
    use std::sync::Arc;

    #[test]
    fn counts_bytes_syncs_and_checkpoint_kinds() {
        let counters = Arc::new(StorageCounters::default());
        let s = CountingStorage::new(MemFs::new(), counters.clone());
        s.append("wal-1.log", b"abcd").unwrap();
        s.append("wal-1.log", b"ef").unwrap();
        s.sync("wal-1.log").unwrap();
        s.write_atomic("ckpt-00000000000000000001.json", b"0123456789")
            .unwrap();
        s.write_atomic("inc-00000000000000000002.json", b"xyz")
            .unwrap();
        s.write_atomic("other", b"q").unwrap();
        assert_eq!(s.read("wal-1.log").unwrap(), b"abcdef");
        let snap = counters.snapshot();
        assert_eq!(
            snap,
            StorageSnapshot {
                syncs: 1,
                appended_bytes: 6,
                atomic_bytes: 14,
                read_bytes: 6,
                full_checkpoints: 1,
                increment_checkpoints: 1,
            }
        );
        assert_eq!(snap.written_bytes(), 20);
        assert_eq!(snap.since(&snap), StorageSnapshot::default());
        assert_eq!(snap.plus(&snap).since(&snap), snap);
    }

    #[test]
    fn failed_calls_count_nothing() {
        let counters = Arc::new(StorageCounters::default());
        let s = CountingStorage::new(MemFs::new(), counters.clone());
        assert!(s.read("missing").is_err());
        assert_eq!(counters.snapshot(), StorageSnapshot::default());
    }
}
