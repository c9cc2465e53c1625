// Fixture: file-level suppression. Scanned with `--context assign`;
// never compiled.
// datawa-lint: allow-file(relaxed-atomic-audit) -- fixture: every atomic in this file is a monotonic counter

fn first(hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
}

fn second(misses: &AtomicU64) {
    misses.fetch_add(1, Ordering::Relaxed);
}
