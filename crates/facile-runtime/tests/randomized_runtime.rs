//! Randomized (seeded, deterministic) properties of the memoization keys
//! and the specialized action cache, driven by the in-tree PRNG.

use facile_runtime::cache::{ActionCache, Cursor};
use facile_runtime::key::{KeyReader, KeyWriter};
use facile_runtime::Rng;

/// Any mixed sequence of scalar and queue components round-trips.
#[test]
fn key_roundtrip() {
    let mut rng = Rng::new(0x006b_6579);
    for case in 0..256 {
        let n = rng.index(10);
        let components: Vec<(bool, Vec<i64>)> = (0..n)
            .map(|_| {
                if rng.chance(1, 2) {
                    (true, vec![rng.next_u64() as i64])
                } else {
                    let q = (0..rng.index(20)).map(|_| rng.next_u64() as i64).collect();
                    (false, q)
                }
            })
            .collect();
        let mut w = KeyWriter::new();
        for (scalar, vals) in &components {
            if *scalar {
                w.scalar(vals[0]);
            } else {
                w.queue(vals);
            }
        }
        let key = w.finish();
        let mut r = KeyReader::new(&key);
        for (scalar, vals) in &components {
            if *scalar {
                assert_eq!(r.scalar(), Some(vals[0]), "case {case}");
            } else {
                assert_eq!(r.queue(), Some(vals.clone()), "case {case}");
            }
        }
        assert!(r.at_end(), "case {case}");
    }
}

/// Recording a random straight-line action sequence stores it as one
/// run node — the first action in the node header, each later action's
/// number in front of its data — and byte accounting is monotone.
#[test]
fn record_replay_straight_line() {
    let mut rng = Rng::new(0x5e9_0e4ce);
    for case in 0..256 {
        let n = 1 + rng.index(29);
        let actions: Vec<(u32, Vec<i64>)> = (0..n)
            .map(|_| {
                let a = rng.index(50) as u32;
                let data = (0..rng.index(6)).map(|_| rng.range_i64(-1000, 1000)).collect();
                (a, data)
            })
            .collect();
        let mut cache = ActionCache::new();
        let mut wkey = KeyWriter::new();
        wkey.scalar(rng.next_u64() as i64);
        let key = wkey.finish();
        let mut cursor = Cursor::AtEntry(key.clone());
        let mut bytes_before = 0;
        for (a, data) in &actions {
            cache.record_plain(&mut cursor, *a, data);
            let now = cache.stats().bytes_total;
            assert!(now > bytes_before, "case {case}: accounting must grow");
            bytes_before = now;
        }
        let node = cache.entry(&key).expect("entry recorded");
        assert_eq!(cache.node(node).action, actions[0].0, "case {case}");
        let mut run = actions[0].1.clone();
        for (a, data) in &actions[1..] {
            run.push(*a as i64);
            run.extend_from_slice(data);
        }
        assert_eq!(cache.node_data(node), run.as_slice(), "case {case}");
        assert_eq!(cache.next_plain(node), None, "case {case}");
        assert_eq!(cache.stats().nodes_created, 1, "case {case}");
    }
}

/// Dynamic result tests fork correctly: successors recorded under
/// distinct values are found under exactly those values.
#[test]
fn test_nodes_fork() {
    let mut rng = Rng::new(0xf04b);
    for case in 0..256 {
        let mut values: Vec<i64> = (0..1 + rng.index(7)).map(|_| rng.next_u64() as i64).collect();
        values.sort_unstable();
        values.dedup();
        let mut cache = ActionCache::new();
        let mut wkey = KeyWriter::new();
        wkey.scalar(7);
        let key = wkey.finish();
        let mut first = None;
        for (i, v) in values.iter().enumerate() {
            let mut cursor = match first {
                None => Cursor::AtEntry(key.clone()),
                Some(t) => Cursor::AfterTest(t, *v),
            };
            if first.is_none() {
                let t = cache.record_test(&mut cursor, 1, &[], *v);
                first = Some(t);
            }
            let _ = cache.record_plain(&mut cursor, 100 + i as u32, &[]);
        }
        let t = first.unwrap();
        for (i, v) in values.iter().enumerate() {
            let succ = cache.next_test(t, *v).expect("successor recorded");
            assert_eq!(cache.node(succ).action, 100 + i as u32, "case {case}");
        }
        // A value never observed misses.
        let unseen = values
            .iter()
            .map(|v| v.wrapping_mul(31).wrapping_add(12345))
            .find(|v| !values.contains(v));
        if let Some(u) = unseen {
            assert_eq!(cache.next_test(t, u), None, "case {case}");
        }
    }
}
