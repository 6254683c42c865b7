//! Property tests for the cryptographic substrate: bignum arithmetic
//! against a 128-bit reference, number-theoretic identities, Paillier
//! homomorphisms and fixed-point codec laws. (Secure-sum correctness is
//! checked on the shipped protocol halves in `ppml_core::secagg`.)

use ppml_crypto::{BigUint, FixedPointCodec, Montgomery};
use ppml_data::check::{run_cases, Gen};

fn big(v: u128) -> BigUint {
    BigUint::from(v)
}

/// Uniform `u128` assembled from two PRNG words.
fn any_u128(g: &mut Gen) -> u128 {
    (u128::from(g.rng().next_u64()) << 64) | u128::from(g.rng().next_u64())
}

#[test]
fn add_matches_u128() {
    run_cases("add_matches_u128", 64, |g, _| {
        let (a, b) = (g.rng().next_u64(), g.rng().next_u64());
        let want = a as u128 + b as u128;
        assert_eq!(big(a as u128).add(&big(b as u128)).to_u128(), Some(want));
    });
}

#[test]
fn mul_matches_u128() {
    run_cases("mul_matches_u128", 64, |g, _| {
        let (a, b) = (g.rng().next_u64(), g.rng().next_u64());
        let want = a as u128 * b as u128;
        assert_eq!(big(a as u128).mul(&big(b as u128)).to_u128(), Some(want));
    });
}

#[test]
fn div_rem_matches_u128() {
    run_cases("div_rem_matches_u128", 64, |g, _| {
        let a = any_u128(g);
        let b = any_u128(g).max(1);
        let (q, r) = big(a).div_rem(&big(b));
        assert_eq!(q.to_u128(), Some(a / b));
        assert_eq!(r.to_u128(), Some(a % b));
    });
}

#[test]
fn sub_inverts_add() {
    run_cases("sub_inverts_add", 64, |g, _| {
        let (a, b) = (any_u128(g), any_u128(g));
        let s = big(a).add(&big(b));
        assert_eq!(s.sub(&big(b)), big(a));
        assert_eq!(s.sub(&big(a)), big(b));
    });
}

#[test]
fn mul_distributes() {
    run_cases("mul_distributes", 64, |g, _| {
        let (a, b, c) = (g.rng().next_u64(), g.rng().next_u64(), g.rng().next_u64());
        let (a, b, c) = (big(a as u128), big(b as u128), big(c as u128));
        let lhs = a.add(&b).mul(&c);
        let rhs = a.mul(&c).add(&b.mul(&c));
        assert_eq!(lhs, rhs);
    });
}

#[test]
fn shifts_invert() {
    run_cases("shifts_invert", 64, |g, _| {
        let a = any_u128(g);
        let n = g.usize_in(0, 200);
        assert_eq!(big(a).shl(n).shr(n), big(a));
    });
}

#[test]
fn bytes_roundtrip() {
    run_cases("bytes_roundtrip", 64, |g, _| {
        let v = big(any_u128(g));
        assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
    });
}

#[test]
fn gcd_divides_both() {
    run_cases("gcd_divides_both", 64, |g, _| {
        let a = any_u128(g).max(1);
        let b = any_u128(g).max(1);
        let g2 = big(a).gcd(&big(b));
        assert!(big(a).rem(&g2).is_zero());
        assert!(big(b).rem(&g2).is_zero());
    });
}

#[test]
fn mod_inv_is_inverse_mod_prime() {
    run_cases("mod_inv_is_inverse_mod_prime", 64, |g, _| {
        // 2^61 - 1 is a Mersenne prime.
        let p = big((1u128 << 61) - 1);
        let a = big(g.rng().next_u64().max(1) as u128).rem(&p);
        if a.is_zero() {
            return; // vanishingly rare draw outside the group
        }
        let inv = a.mod_inv(&p).expect("prime modulus, nonzero element");
        assert!(a.mod_mul(&inv, &p).is_one());
    });
}

#[test]
fn montgomery_matches_naive_modpow() {
    run_cases("montgomery_matches_naive_modpow", 48, |g, _| {
        let base = g.rng().next_u64();
        let exp = g.u64_in(0, 4096);
        let m = big(0xFFFF_FFFF_FFFF_FFC5); // 2^64 - 59, odd prime
        let ctx = Montgomery::new(&m);
        let fast = ctx.mod_pow(&big(base as u128), &big(exp as u128));
        // Reference: square-and-multiply with naive reductions.
        let mut acc = BigUint::one();
        let b = big(base as u128).rem(&m);
        for i in (0..64).rev() {
            acc = acc.mod_mul(&acc, &m);
            if (exp >> i) & 1 == 1 {
                acc = acc.mod_mul(&b, &m);
            }
        }
        assert_eq!(fast, acc);
    });
}

/// Uniform value of exactly `bits` bits (top bit set; zero for 0 bits).
fn any_of_bits(g: &mut Gen, bits: usize) -> BigUint {
    let mut limbs: Vec<u64> = (0..bits.div_ceil(64)).map(|_| g.rng().next_u64()).collect();
    if let Some(top) = limbs.last_mut() {
        *top >>= (64 - bits % 64) % 64;
    }
    let mut v = BigUint::from_limbs(limbs);
    if bits > 0 {
        v.set_bit(bits - 1);
    }
    v
}

#[test]
fn montgomery_matches_div_rem_reference_on_multi_limb_moduli() {
    // Paillier's n² is 4 limbs; cover 1–8, each size twice, once with a
    // top limb of all ones (the carry-heavy corner of CIOS).
    run_cases("montgomery_multi_limb", 16, |g, case| {
        let limbs = case % 8 + 1;
        let mut m: Vec<u64> = (0..limbs).map(|_| g.rng().next_u64()).collect();
        m[0] |= 1;
        m[limbs - 1] = if case < 8 {
            u64::MAX
        } else {
            m[limbs - 1] | 1 << 63
        };
        let m = BigUint::from_limbs(m);
        let ctx = Montgomery::new(&m);
        let bases = [
            BigUint::zero(),
            any_of_bits(g, 64 * limbs - 1),
            m.add(&any_of_bits(g, 64 * limbs + 3)), // base ≥ n
        ];
        for (a, b) in [(&bases[1], &bases[2]), (&bases[2], &bases[2])] {
            assert_eq!(ctx.mod_mul(a, b), a.mul(b).rem(&m), "{a} · {b} mod {m}");
        }
        for bits in [0, 1, 4, 5, 63, 64, 65, 127, 128, 129] {
            let exp = any_of_bits(g, bits);
            for base in &bases {
                // Reference: square-and-multiply on `mul` + `div_rem`.
                let mut want = BigUint::one();
                for i in (0..bits).rev() {
                    want = want.mul(&want).rem(&m);
                    if exp.bit(i) {
                        want = want.mul(base).rem(&m);
                    }
                }
                assert_eq!(ctx.mod_pow(base, &exp), want, "{base}^{exp} mod {m}");
            }
        }
    });
}

#[test]
fn fixed_point_roundtrip() {
    // The default codec admits |v| ≤ 2⁶²/2³²/2¹² ≈ 2.6e5.
    run_cases("fixed_point_roundtrip", 64, |g, _| {
        let v = g.f64_in(-2e5, 2e5);
        let c = FixedPointCodec::default();
        let dec = c.decode_i64(c.encode_i64(v).unwrap());
        assert!((dec - v).abs() <= c.resolution());
        let dec_u = c.decode_u64(c.encode_u64(v).unwrap());
        assert!((dec_u - v).abs() <= c.resolution());
    });
}

#[test]
fn fixed_point_sum_is_homomorphic() {
    run_cases("fixed_point_sum_is_homomorphic", 64, |g, _| {
        let len = g.usize_in(1, 32);
        let vals = g.vec_f64(-1e4, 1e4, len);
        let c = FixedPointCodec::default();
        let enc_sum = vals
            .iter()
            .map(|&v| c.encode_u64(v).unwrap())
            .fold(0u64, u64::wrapping_add);
        let want: f64 = vals.iter().sum();
        assert!((c.decode_u64(enc_sum) - want).abs() < vals.len() as f64 * c.resolution());
    });
}

// Paillier property tests are heavier (keygen), so one shared key pair is
// reused across cases via a lazily initialized static.
mod paillier_props {
    use super::*;
    use ppml_crypto::Paillier;
    use ppml_data::rng::Rng64;
    use std::sync::OnceLock;

    fn system() -> &'static Paillier {
        static SYS: OnceLock<Paillier> = OnceLock::new();
        SYS.get_or_init(|| {
            let mut rng = Rng64::new(99);
            Paillier::keygen(128, &mut rng).expect("keygen")
        })
    }

    #[test]
    fn enc_dec_roundtrip() {
        run_cases("enc_dec_roundtrip", 32, |g, _| {
            let m = g.rng().next_u64();
            let ph = system();
            let mut rng = Rng64::new(m);
            let c = ph.encrypt(&BigUint::from(m), &mut rng).unwrap();
            assert_eq!(ph.decrypt(&c).to_u64(), Some(m));
        });
    }

    #[test]
    fn addition_homomorphism() {
        run_cases("addition_homomorphism", 32, |g, _| {
            let a = g.rng().next_u64() as u32;
            let b = g.rng().next_u64() as u32;
            let ph = system();
            let mut rng = Rng64::new(a as u64 ^ ((b as u64) << 32));
            let ca = ph.encrypt(&BigUint::from(a as u64), &mut rng).unwrap();
            let cb = ph.encrypt(&BigUint::from(b as u64), &mut rng).unwrap();
            let sum = ph.decrypt(&ph.add(&ca, &cb));
            assert_eq!(sum.to_u64(), Some(a as u64 + b as u64));
        });
    }

    #[test]
    fn scalar_homomorphism() {
        run_cases("scalar_homomorphism", 32, |g, _| {
            let m = g.rng().next_u64() as u32;
            let k = g.u64_in(0, 1000) as u32;
            let ph = system();
            let mut rng = Rng64::new(m as u64 + k as u64);
            let c = ph.encrypt(&BigUint::from(m as u64), &mut rng).unwrap();
            let prod = ph.decrypt(&ph.mul_plain(&c, &BigUint::from(k as u64)));
            assert_eq!(prod.to_u64(), Some(m as u64 * k as u64));
        });
    }
}
