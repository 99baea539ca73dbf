//! The one durable commit door. Every file the stack must not tear
//! (models, catalogs, checkpoints, scan shards and manifests) is
//! written to the sibling `{path}.tmp`. [`Commit::finish`] fsyncs it,
//! so no name ever points at unwritten bytes; renames it over `path`,
//! so a reader sees the old file or the new one, never a mix, and one
//! that mapped the old file keeps its bytes; and fsyncs the directory,
//! so the rename survives a power loss. Dropping an unfinished
//! `Commit` removes the `.tmp`; a kill leaves it for the next `Commit`
//! on `path` to truncate (a scan's resume deletes every `*.tmp` in its
//! directory).

use std::fs::{self, File};
use std::io::{self, BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// A file that replaces `path` when [`finish`](Commit::finish) returns.
pub struct Commit {
    file: BufWriter<File>,
    tmp: PathBuf,
    path: PathBuf,
    done: bool,
    #[cfg(test)]
    fault: Option<(usize, Fault)>,
}

impl Commit {
    /// Open `{path}.tmp` to replace `path`, behind the standard 8 KiB
    /// buffer. Snapshots keep it: written in 256 KiB calls, a mapped
    /// bank's file held ~6 MiB more resident under the same lookups
    /// (`scan_bank` `peak_rss_mib` 50 → 56 on Linux 6.18 ext4).
    pub fn create(path: &Path) -> io::Result<Commit> {
        Commit::with_capacity(8 << 10, path)
    }

    /// [`create`](Commit::create) behind a `capacity`-byte buffer.
    pub fn with_capacity(capacity: usize, path: &Path) -> io::Result<Commit> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        Ok(Commit {
            file: BufWriter::with_capacity(capacity, File::create(&tmp)?),
            tmp: tmp.into(),
            path: path.into(),
            done: false,
            #[cfg(test)]
            fault: FAULT.take(),
        })
    }

    /// Flush and fsync the file, rename it over `path`, fsync the
    /// directory.
    pub fn finish(mut self) -> io::Result<()> {
        self.file.flush()?;
        self.file.get_ref().sync_all()?;
        fs::rename(&self.tmp, &self.path)?;
        self.done = true;
        let dir = self.path.parent().filter(|d| !d.as_os_str().is_empty());
        File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
    }
}

impl Write for Commit {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        #[cfg(test)]
        if let Some(res) = self.inject(buf) {
            return res;
        }
        self.file.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl Seek for Commit {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        self.file.seek(pos)
    }
}

impl Drop for Commit {
    fn drop(&mut self) {
        if !self.done {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// How the test seam fails one write call.
#[cfg(test)]
#[derive(Clone, Copy, Debug)]
pub(crate) enum Fault {
    /// Half the bytes land, then the next call fails with `ENOSPC`.
    Short,
    /// `ENOSPC`.
    NoSpace,
    /// `EIO`.
    Eio,
}

#[cfg(test)]
thread_local! {
    /// `(k, fault)`: the next `Commit` this thread creates fails its
    /// `k`-th write call (1-based) once. Later calls succeed, so a
    /// writer that swallows the error commits a torn file.
    static FAULT: std::cell::Cell<Option<(usize, Fault)>> = const { std::cell::Cell::new(None) };
}

#[cfg(test)]
impl Commit {
    fn inject(&mut self, buf: &[u8]) -> Option<io::Result<usize>> {
        let (left, fault) = self.fault.as_mut()?;
        if *left > 1 {
            *left -= 1;
            return None;
        }
        let fault = *fault;
        self.fault = matches!(fault, Fault::Short).then_some((1, Fault::NoSpace));
        Some(match fault {
            Fault::Short => self.file.write(&buf[..buf.len() / 2]),
            Fault::NoSpace => Err(io::Error::from_raw_os_error(28)),
            Fault::Eio => Err(io::Error::from_raw_os_error(5)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CatalogReader, CatalogWriter, MmapMode, Snapshot, SnapshotWriter};
    use std::fmt::Debug;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pge-commit-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Sweep k over every write call of generation 1 of a file at
    /// `name`, under each fault, over a committed generation 0. A
    /// failed attempt must leave generation 0 loading unchanged and no
    /// `.tmp`; the first k past the last write call commits
    /// generation 1 whole.
    fn sweep<T: PartialEq + Debug>(
        name: &str,
        write: impl Fn(&Path, u32) -> io::Result<()>,
        load: impl Fn(&Path) -> T,
    ) {
        let path = tmp(name);
        let tmp_path = tmp(&format!("{name}.tmp"));
        let generation = |gen| {
            write(&path, gen).unwrap();
            (fs::read(&path).unwrap(), load(&path))
        };
        let (_, new) = generation(1);
        for fault in [Fault::Short, Fault::NoSpace, Fault::Eio] {
            let (old_bytes, old) = generation(0);
            for k in 1.. {
                FAULT.set(Some((k, fault)));
                let res = write(&path, 1);
                assert!(!tmp_path.exists(), "{fault:?} at write {k} left a .tmp");
                if res.is_ok() {
                    assert!(k > 1, "{fault:?}: the sweep injected nothing");
                    assert_eq!(
                        load(&path),
                        new,
                        "{fault:?} at write {k} committed a torn file"
                    );
                    break;
                }
                assert!(
                    fs::read(&path).unwrap() == old_bytes,
                    "{fault:?} at write {k}"
                );
                assert_eq!(load(&path), old, "{fault:?} at write {k}");
            }
        }
    }

    #[test]
    fn commit_survives_every_write_fault() {
        sweep(
            "plain.txt",
            |p, gen| {
                let mut c = Commit::create(p)?;
                for i in 0..20 {
                    writeln!(c, "generation {gen} line {i}")?;
                }
                c.finish()
            },
            |p| fs::read_to_string(p).unwrap(),
        );
    }

    #[test]
    fn snapshot_writer_commit_survives_every_write_fault() {
        sweep(
            "model.pgebin",
            |p, gen| {
                let mut w = SnapshotWriter::create(p)?;
                w.add_bytes("meta", format!("generation {gen}").as_bytes())?;
                let vals: Vec<f32> = (0..40).map(|i| (i + gen) as f32).collect();
                w.add_f32s("rows", 5, 8, &vals)?;
                w.finish()
            },
            |p| {
                let s = Snapshot::open(p, MmapMode::Off).unwrap();
                let rows = s.section("rows").unwrap().as_f32s().unwrap().to_vec();
                (s.section("meta").unwrap().bytes.to_vec(), rows)
            },
        );
    }

    #[test]
    fn catalog_writer_commit_survives_every_write_fault() {
        sweep(
            "catalog.bin",
            |p, gen| {
                let mut w = CatalogWriter::create(p, 7)?;
                for i in 0..6 {
                    w.note_product();
                    w.add_triple(&format!("product {i}"), "flavor", &format!("taste {gen}"))?;
                }
                w.finish().map(drop)
            },
            |p| {
                let r = CatalogReader::open(p).unwrap();
                let recs: Vec<_> = r.records().unwrap().map(|x| x.unwrap()).collect();
                (r.products(), recs)
            },
        );
    }
}
