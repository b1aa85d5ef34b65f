//! The case loop behind the [`crate::proptest!`] macro.

/// How many cases to run per property.
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of successful (non-rejected) cases required.
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 256 cases, or as many as the `PROPTEST_CASES` environment
    /// variable says, as in the real crate.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    /// A config running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// Why a single case did not succeed.
#[derive(Debug)]
pub enum TestCaseError {
    /// The property is violated — fails the whole test.
    Fail(String),
    /// `prop_assume!` discarded the inputs — draw a fresh case.
    Reject(String),
}

impl TestCaseError {
    /// A failure with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejection with the given reason.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

/// The deterministic per-test generator strategies draw from.
/// Counter-mode splitmix64, same construction as the workspace's other
/// seeded RNGs.
#[derive(Debug, Clone)]
pub struct TestRng {
    key: u64,
    ctr: u64,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TestRng {
    /// A generator for the given seed.
    pub fn new(seed: u64) -> Self {
        TestRng {
            key: splitmix64(splitmix64(seed)),
            ctr: 0,
        }
    }

    /// Next 64 uniformly random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.ctr = self.ctr.wrapping_add(1);
        splitmix64(self.key ^ splitmix64(self.ctr))
    }
}

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Run `config.cases` successful cases of `f`, panicking on the first
/// failure. Case seeds derive from the test name, so runs are
/// deterministic and a failure reproduces on re-run.
pub fn run<F>(name: &str, config: ProptestConfig, mut f: F)
where
    F: FnMut(&mut TestRng) -> Result<(), TestCaseError>,
{
    let base = fnv1a(name);
    let mut successes = 0u32;
    let mut rejects = 0u64;
    let reject_budget = (config.cases as u64).max(1) * 20;
    let mut case = 0u64;
    while successes < config.cases {
        let seed = base ^ splitmix64(case);
        let mut rng = TestRng::new(seed);
        match f(&mut rng) {
            Ok(()) => successes += 1,
            Err(TestCaseError::Reject(_)) => {
                rejects += 1;
                if rejects > reject_budget {
                    panic!(
                        "property `{name}`: too many prop_assume! rejections \
                         ({rejects} rejects for {successes} successes)"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("property `{name}` failed at case {case} (seed {seed:#018x}): {msg}");
            }
        }
        case += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_is_deterministic() {
        let mut a = Vec::new();
        run("det", ProptestConfig::with_cases(5), |rng| {
            a.push(rng.next_u64());
            Ok(())
        });
        let mut b = Vec::new();
        run("det", ProptestConfig::with_cases(5), |rng| {
            b.push(rng.next_u64());
            Ok(())
        });
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "too many prop_assume! rejections")]
    fn reject_budget_bounds_the_loop() {
        run("rejects", ProptestConfig::with_cases(4), |_| {
            Err(TestCaseError::reject("never satisfiable"))
        });
    }
}
