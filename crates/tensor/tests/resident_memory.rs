//! Freed tensor memory stays resident: a round of allocations that repeats
//! a dropped round's sizes reuses its pages instead of faulting them in
//! again (see "Allocator policy" on the tensor buffer type).
//!
//! This is a `harness = false` target so `main` runs on the process's main
//! thread, which allocates from glibc's main arena — where the evaluation
//! and training calls of a single-threaded driver allocate too. A spawned
//! test thread gets its own arena, which reuses this pattern even with the
//! default thresholds, so an ordinary `#[test]` would not catch a
//! regression.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn main() {
    use seqrec_tensor::Tensor;

    const TENSORS: usize = 64;
    const FLOATS: usize = (1 << 20) / 4; // 1 MiB each
    const PAGES: u64 = (TENSORS * FLOATS * 4 / 4096) as u64;

    /// This thread's minor-fault count (field 10 of `/proc/thread-self/stat`).
    fn minor_faults() -> u64 {
        let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read stat");
        // The command name (field 2) may contain spaces; count from after it.
        let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
        rest.split(' ').nth(7).expect("minflt field").parse().expect("numeric minflt")
    }

    let mut faults = Vec::new();
    for round in 0..4 {
        let before = minor_faults();
        let mut tensors: Vec<Tensor> = (0..TENSORS).map(|_| Tensor::zeros([FLOATS])).collect();
        for t in &mut tensors {
            t.data_mut().fill(round as f32 + 1.0);
        }
        drop(tensors);
        faults.push(minor_faults() - before);
    }
    println!("resident_memory: minor faults per round {faults:?}, {PAGES} pages a round");
    for (round, &n) in faults.iter().enumerate().skip(2) {
        assert!(
            n * 100 < PAGES,
            "round {}: {n} minor faults re-allocating {PAGES} freed pages; freed tensor memory \
             was handed back to the kernel (all rounds: {faults:?})",
            round + 1
        );
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn main() {}
