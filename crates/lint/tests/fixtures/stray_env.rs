// Fixture: stray-env-read. Scanned with `--context assign`; never compiled.

fn positive() {
    let t = std::env::var("DATAWA_SCALE").ok();
    drop(t);
}

#[cfg(test)]
mod tests {
    #[test]
    fn negative_env_reads_are_fine_in_tests() {
        let t = std::env::var("DATAWA_SCALE").ok();
        drop(t);
    }
}
