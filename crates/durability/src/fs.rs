//! Filesystem abstraction the durability layer writes through.
//!
//! All snapshot and journal I/O goes through the [`Fs`] trait, so a test
//! harness can substitute a fault-injecting implementation (see
//! `neat_mobisim::faults::FaultFs`) and a chaos test can run thousands
//! of crash/restart cycles against the in-memory [`MemFs`] without
//! touching a real disk. Production code uses [`StdFs`], which fsyncs
//! files after every write and syncs parent directories after renames —
//! the two steps POSIX requires for rename-based atomicity to survive
//! power loss.

use crate::error::DurabilityError;
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Suffix of in-flight atomic writes; readers and directory scans must
/// ignore files carrying it (a crash can leave one behind).
pub const TMP_SUFFIX: &str = ".tmp";

/// Minimal filesystem surface needed for crash-safe persistence.
///
/// Mutating operations (`write`, `append`, `rename`, `remove_file`) are
/// required to be durable on return: implementations flush *and* sync.
pub trait Fs {
    /// Reads a whole file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including not-found).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Size of a file in bytes. The default reads the whole file;
    /// implementations that can ask the file's metadata instead should.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including not-found).
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.read(path).map(|bytes| bytes.len() as u64)
    }

    /// Creates/truncates `path` and durably writes `bytes`.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Durably appends `bytes` to `path`, creating it if absent.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically renames `from` to `to` (same directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all parents.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the files directly inside `dir`, sorted by path for
    /// deterministic scans.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>>;

    /// Syncs the directory entry itself (after renames/removals). A
    /// no-op where the platform cannot express it.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;

    /// Whether `path` currently exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem, with fsync on every mutation.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdFs;

impl Fs for StdFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        File::open(path)?.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        std::fs::metadata(path).map(|m| m.len())
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = File::create(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = OpenOptions::new().create(true).append(true).open(path)?;
        f.write_all(bytes)?;
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                out.push(entry.path());
            }
        }
        out.sort();
        Ok(out)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Opening a directory read-only and fsyncing it persists the
        // directory entries on POSIX; on platforms where directories
        // cannot be opened this way, rename durability is best-effort.
        match File::open(dir) {
            Ok(f) => f.sync_all().or(Ok(())),
            Err(_) => Ok(()),
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// In-memory filesystem: a path → bytes map behind a mutex.
///
/// Clones share the same storage (the map is reference-counted), so a
/// chaos harness can "crash" one handle and reopen the surviving state
/// through another — exactly the semantics of a process dying while its
/// files persist.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<BTreeMap<PathBuf, Vec<u8>>>>,
}

impl MemFs {
    /// Creates an empty in-memory filesystem.
    pub fn new() -> Self {
        MemFs::default()
    }

    /// Snapshot of every `(path, contents)` pair, sorted by path — used
    /// by tests to diff and hex-dump post-crash disk state.
    pub fn dump(&self) -> Vec<(PathBuf, Vec<u8>)> {
        self.files
            .lock() // lint:allow(L6) reason=MemFs deliberately propagates poison (its map mutates in multi-step operations), opting out of the ride-through Lock::enter policy
            .expect("MemFs mutex poisoned") // lint:allow(L1) reason=a poisoned test-fs mutex means a panic already happened on another thread; propagating it is the only sound option
            .iter()
            .map(|(p, b)| (p.clone(), b.clone()))
            .collect()
    }

    fn with<R>(&self, f: impl FnOnce(&mut BTreeMap<PathBuf, Vec<u8>>) -> R) -> R {
        f(&mut self.files.lock().expect("MemFs mutex poisoned")) // lint:allow(L1,L6) reason=MemFs deliberately propagates poison (a panicked multi-step fs operation leaves the map suspect), opting out of the ride-through Lock::enter policy
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(
        io::ErrorKind::NotFound,
        format!("no such file: {}", path.display()),
    )
}

impl Fs for MemFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(|m| m.get(path).cloned().ok_or_else(|| not_found(path)))
    }

    fn len(&self, path: &Path) -> io::Result<u64> {
        self.with(|m| {
            m.get(path)
                .map(|bytes| bytes.len() as u64)
                .ok_or_else(|| not_found(path))
        })
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.with(|m| {
            m.insert(path.to_path_buf(), bytes.to_vec());
            Ok(())
        })
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.with(|m| {
            m.entry(path.to_path_buf())
                .or_default()
                .extend_from_slice(bytes);
            Ok(())
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.with(|m| {
            let bytes = m.remove(from).ok_or_else(|| not_found(from))?;
            m.insert(to.to_path_buf(), bytes);
            Ok(())
        })
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.with(|m| m.remove(path).map(|_| ()).ok_or_else(|| not_found(path)))
    }

    fn create_dir_all(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        self.with(|m| {
            Ok(m.keys()
                .filter(|p| p.parent() == Some(dir))
                .cloned()
                .collect())
        })
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.with(|m| m.contains_key(path))
    }
}

/// Writes `bytes` to `path` atomically: the data first lands in a
/// sibling temp file (`<name>.tmp`), is synced, and is then renamed over
/// the destination. A crash at any instant leaves either the old file,
/// the new file, or an ignorable temp file — never a half-written
/// destination.
///
/// # Errors
///
/// [`DurabilityError::Io`] naming the failing operation; on a failed
/// rename the temp file is removed best-effort so retries start clean.
pub fn write_atomic<F: Fs>(fs: &F, path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    let tmp = tmp_path(path);
    fs.write(&tmp, bytes)
        .map_err(|e| DurabilityError::io("write", &tmp, e))?;
    if let Err(e) = fs.rename(&tmp, path) {
        let _ = fs.remove_file(&tmp);
        return Err(DurabilityError::io("rename", path, e));
    }
    if let Some(dir) = path.parent() {
        fs.sync_dir(dir)
            .map_err(|e| DurabilityError::io("sync_dir", dir, e))?;
    }
    Ok(())
}

/// The sibling temp path used by [`write_atomic`].
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// `true` when `path` is an in-flight temp file that scans must skip.
pub fn is_tmp(path: &Path) -> bool {
    path.to_string_lossy().ends_with(TMP_SUFFIX)
}

/// Convenience: atomic write on the real filesystem. This is the writer
/// every artifact emitter in the workspace (quarantine files, result
/// JSON, SVGs) routes through so a crash can never leave a partial file
/// at the destination path.
///
/// # Errors
///
/// As [`write_atomic`].
pub fn write_atomic_std(path: &Path, bytes: &[u8]) -> Result<(), DurabilityError> {
    write_atomic(&StdFs, path, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("neat-durability-tests")
            .join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stdfs_write_read_append_roundtrip() {
        let dir = temp_dir("rw");
        let p = dir.join("a.bin");
        StdFs.write(&p, b"one").unwrap();
        StdFs.append(&p, b"two").unwrap();
        assert_eq!(StdFs.read(&p).unwrap(), b"onetwo");
        assert_eq!(StdFs.len(&p).unwrap(), 6);
        assert!(StdFs.exists(&p));
        let listed = StdFs.list(&dir).unwrap();
        assert!(listed.contains(&p));
        StdFs.remove_file(&p).unwrap();
        assert!(!StdFs.exists(&p));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn atomic_write_lands_and_leaves_no_tmp() {
        let dir = temp_dir("atomic");
        let p = dir.join("out.txt");
        write_atomic(&StdFs, &p, b"v1").unwrap();
        write_atomic(&StdFs, &p, b"v2").unwrap();
        assert_eq!(StdFs.read(&p).unwrap(), b"v2");
        assert!(!StdFs.exists(&tmp_path(&p)));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn memfs_clones_share_state() {
        let fs = MemFs::new();
        let other = fs.clone();
        fs.write(Path::new("/d/a"), b"x").unwrap();
        assert_eq!(other.read(Path::new("/d/a")).unwrap(), b"x");
        other.append(Path::new("/d/a"), b"y").unwrap();
        assert_eq!(fs.read(Path::new("/d/a")).unwrap(), b"xy");
        assert_eq!(fs.len(Path::new("/d/a")).unwrap(), 2);
        assert_eq!(
            fs.len(Path::new("/d/missing")).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn memfs_rename_and_list() {
        let fs = MemFs::new();
        fs.write(Path::new("/d/a"), b"1").unwrap();
        fs.write(Path::new("/d/b"), b"2").unwrap();
        fs.write(Path::new("/other/c"), b"3").unwrap();
        fs.rename(Path::new("/d/a"), Path::new("/d/z")).unwrap();
        let listed = fs.list(Path::new("/d")).unwrap();
        assert_eq!(
            listed,
            vec![PathBuf::from("/d/b"), PathBuf::from("/d/z")],
            "sorted, dir-scoped listing"
        );
        assert!(fs.read(Path::new("/d/a")).is_err());
    }

    #[test]
    fn tmp_naming_is_recognised() {
        let p = Path::new("/x/snap-1.neatsnap");
        assert!(is_tmp(&tmp_path(p)));
        assert!(!is_tmp(p));
    }

    #[test]
    fn failed_rename_cleans_up_tmp() {
        // MemFs rename fails when the source vanished; simulate by
        // wrapping: here we just verify write_atomic error carries path
        // context when the destination directory cannot take a rename.
        #[derive(Debug, Clone, Default)]
        struct NoRename(MemFs);
        impl Fs for NoRename {
            fn read(&self, p: &Path) -> io::Result<Vec<u8>> {
                self.0.read(p)
            }
            fn write(&self, p: &Path, b: &[u8]) -> io::Result<()> {
                self.0.write(p, b)
            }
            fn append(&self, p: &Path, b: &[u8]) -> io::Result<()> {
                self.0.append(p, b)
            }
            fn rename(&self, _: &Path, _: &Path) -> io::Result<()> {
                Err(io::Error::other("rename refused"))
            }
            fn remove_file(&self, p: &Path) -> io::Result<()> {
                self.0.remove_file(p)
            }
            fn create_dir_all(&self, p: &Path) -> io::Result<()> {
                self.0.create_dir_all(p)
            }
            fn list(&self, d: &Path) -> io::Result<Vec<PathBuf>> {
                self.0.list(d)
            }
            fn sync_dir(&self, d: &Path) -> io::Result<()> {
                self.0.sync_dir(d)
            }
            fn exists(&self, p: &Path) -> bool {
                self.0.exists(p)
            }
        }
        let fs = NoRename::default();
        let err = write_atomic(&fs, Path::new("/d/file"), b"data").unwrap_err();
        assert!(matches!(err, DurabilityError::Io { op: "rename", .. }));
        // The temp file was cleaned up.
        assert!(!fs.0.exists(&tmp_path(Path::new("/d/file"))));
    }
}
