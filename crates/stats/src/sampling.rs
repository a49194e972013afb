//! Randomized resampling: the Fisher–Yates shuffle behind the Figure 1
//! shuffled-order baseline.

use rand::Rng;

/// Return a uniformly shuffled copy of the input (Fisher–Yates).
pub fn shuffled<T: Clone, R: Rng>(data: &[T], rng: &mut R) -> Vec<T> {
    let mut out = data.to_vec();
    shuffle_in_place(&mut out, rng);
    out
}

/// Fisher–Yates shuffle in place.
pub fn shuffle_in_place<T, R: Rng>(data: &mut [T], rng: &mut R) {
    // Manual Fisher–Yates rather than rand::seq::SliceRandom so the exact
    // byte stream consumed from the RNG is pinned by this crate (keeps
    // downstream golden tests stable across `rand` minor versions).
    for i in (1..data.len()).rev() {
        let j = rng.gen_range(0..=i);
        data.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shuffle_preserves_multiset() {
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<i32> = (0..100).collect();
        let mut shuf = shuffled(&data, &mut rng);
        assert_ne!(shuf, data, "astronomically unlikely to be unchanged");
        shuf.sort();
        assert_eq!(shuf, data);
    }

    #[test]
    fn shuffle_is_roughly_uniform() {
        // Track where element 0 lands over many shuffles of a 5-vector.
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let mut v = [0, 1, 2, 3, 4];
            shuffle_in_place(&mut v, &mut rng);
            let pos = v.iter().position(|&x| x == 0).unwrap();
            counts[pos] += 1;
        }
        for c in counts {
            assert!((c as f64 - 2000.0).abs() < 250.0, "counts = {counts:?}");
        }
    }
}
