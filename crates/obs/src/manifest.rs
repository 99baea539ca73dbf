//! Run-manifest helpers: wall-clock stamps and the source revision,
//! resolved without shelling out to `git`.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Milliseconds since the Unix epoch (0 if the clock is before it).
pub fn unix_time_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis().min(u64::MAX as u128) as u64)
        .unwrap_or(0)
}

/// Peak resident set size of this process in bytes — the `VmHWM`
/// high-water mark from `/proc/self/status`. `None` off Linux or on
/// any read failure; RSS telemetry degrades, it doesn't fail. This is
/// the number the out-of-core store exists to keep flat: benches and
/// CI assert on it, `/metrics` exports it, and run manifests record
/// it.
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|k| k * 1024)
}

/// Current resident set size (`VmRSS`) in bytes, same source and
/// caveats as [`peak_rss_bytes`].
pub fn current_rss_bytes() -> Option<u64> {
    status_kib("VmRSS:").map(|k| k * 1024)
}

/// Read a `kB`-suffixed field from `/proc/self/status`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let rest = status.lines().find_map(|l| l.strip_prefix(field))?;
    rest.trim()
        .strip_suffix("kB")
        .and_then(|v| v.trim().parse().ok())
}

/// The current git commit hash, read straight from `.git` (searching
/// upward from the working directory). `None` outside a repository or
/// on any read failure — manifests degrade, they don't fail.
pub fn git_rev() -> Option<String> {
    let start = std::env::current_dir().ok()?;
    git_rev_from(&start)
}

/// As [`git_rev`], searching upward from `start`.
pub fn git_rev_from(start: &Path) -> Option<String> {
    let mut dir: Option<&Path> = Some(start);
    while let Some(d) = dir {
        let git = d.join(".git");
        if git.is_dir() {
            return read_head(&git);
        }
        dir = d.parent();
    }
    None
}

fn read_head(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    if let Some(refname) = head.strip_prefix("ref: ") {
        let direct = git_dir.join(refname);
        if let Ok(hash) = std::fs::read_to_string(direct) {
            return valid_hash(hash.trim()).map(str::to_string);
        }
        // Packed refs: `<hash> <refname>` lines.
        let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name == refname && valid_hash(hash).is_some()).then(|| hash.to_string())
        })
    } else {
        valid_hash(head).map(str::to_string)
    }
}

fn valid_hash(s: &str) -> Option<&str> {
    (s.len() >= 7 && s.chars().all(|c| c.is_ascii_hexdigit())).then_some(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_is_sane() {
        let t = unix_time_ms();
        // After 2020-01-01 and before 2100.
        assert!(t > 1_577_836_800_000 && t < 4_102_444_800_000, "{t}");
    }

    #[test]
    fn git_rev_resolves_in_this_repo() {
        // The workspace is a git repository; the hash must parse.
        if let Some(rev) = git_rev() {
            assert!(rev.len() >= 7, "{rev}");
            assert!(rev.chars().all(|c| c.is_ascii_hexdigit()));
        }
    }

    #[test]
    fn missing_repo_yields_none() {
        assert_eq!(git_rev_from(Path::new("/nonexistent/nowhere")), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn rss_readings_are_sane() {
        // Current first: tests on other threads may allocate between
        // the two reads, and only the later high-water mark is sure to
        // cover what the earlier reading saw.
        let cur = current_rss_bytes().expect("VmRSS readable on Linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        // A running test binary resides in at least a few hundred KiB
        // and the high-water mark can never undercut the current RSS.
        assert!(peak > 100 << 10, "{peak}");
        assert!(peak >= cur, "peak {peak} < current {cur}");
    }
}
