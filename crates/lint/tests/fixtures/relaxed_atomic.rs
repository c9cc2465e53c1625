// Fixture: relaxed-atomic-audit plus the missing-suppression-reason
// meta-lint. Scanned with `--context assign` (not on the audited path
// allowlist); never compiled.

fn positive(cursor: &AtomicUsize) -> usize {
    cursor.fetch_add(1, Ordering::Relaxed)
}

fn negative_seqcst(cursor: &AtomicUsize) -> usize {
    cursor.fetch_add(1, Ordering::SeqCst)
}

fn suppressed(cursor: &AtomicUsize) -> usize {
    // datawa-lint: allow(relaxed-atomic-audit) -- fixture: pure monotonic claim cursor
    cursor.fetch_add(1, Ordering::Relaxed)
}

fn suppressed_without_reason(cursor: &AtomicUsize) -> usize {
    // datawa-lint: allow(relaxed-atomic-audit)
    cursor.fetch_add(1, Ordering::Relaxed)
}
