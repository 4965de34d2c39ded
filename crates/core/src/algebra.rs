//! Update algebras: the semiring structure behind GEP update functions.
//!
//! The paper parameterises GEP by an arbitrary update function `f`; in
//! practice every application in this workspace instantiates one of two
//! shapes over some algebraic structure `(S, ⊕, ⊗)`:
//!
//! * **closure** updates `x ← x ⊕ (u ⊗ v)` (Floyd–Warshall, transitive
//!   closure, distance/matrix products), and
//! * **elimination** updates `x ← x ⊖ (u ⊗ w⁻¹ ⊗ v)` (Gaussian
//!   elimination / LU over a field or division ring).
//!
//! [`UpdateAlgebra`] captures the first shape — a semiring with both
//! identities and an fma — and [`EliminationAlgebra`] extends it with
//! subtraction and (partial) multiplicative inverse for the second.
//! Algebras are modelled as zero-sized *tag types* with an associated
//! element type rather than as traits on the element itself: `f64` is the
//! element of both the plus-times field and the min-plus semiring, so the
//! algebra cannot be recovered from the element type alone.
//!
//! The concrete algebras here cover the classical semiring zoo:
//! [`PlusTimesF64`], tropical [`MinPlusI64`]/[`MinPlusF64`], bottleneck
//! [`MaxMinI64`], boolean [`OrAndBool`], and the exact finite-field
//! algebras [`Gf2`] (bit-per-bool), [`Gf2x64`] (bitsliced 64×64 blocks)
//! and [`GfP`] (prime field, Barrett reduction). `gep-apps` builds
//! generic `GepSpec`s over any of them, and `gep-kernels` attaches
//! vectorised base-case kernels per algebra.

use std::fmt::Debug;

/// The shared tropical "no edge" sentinel for `i64` weights.
///
/// `i64::MAX / 4` rather than `i64::MAX` so that a sum of two sentinels
/// (`⊗` of two missing edges) stays far from wrapping even before the
/// saturation in [`MinPlusI64::mul`] clamps it. Exactly one definition
/// exists in the workspace — the tropical matmul, Floyd–Warshall and all
/// reference oracles use this constant, so they cannot drift.
pub const TROPICAL_INF: i64 = i64::MAX / 4;

/// A semiring `(S, ⊕, ⊗)` powering closure-style GEP updates
/// `x ← x ⊕ (u ⊗ v)`.
///
/// Laws (checked for every registered algebra in
/// `crates/core/tests/algebra_laws.rs`):
/// `⊕` is associative and commutative with identity [`ZERO`](Self::ZERO);
/// `⊗` is associative with identity [`ONE`](Self::ONE) and annihilated by
/// `ZERO` (`ZERO ⊗ x = x ⊗ ZERO = ZERO` — for tropical algebras this is
/// exactly "a missing edge never shortens a path"); `⊗` distributes over
/// `⊕`. `⊗` need **not** be commutative ([`Gf2x64`] is a matrix ring).
pub trait UpdateAlgebra: Copy + Default + Send + Sync + 'static {
    /// The matrix element type.
    type Elem: Copy + Send + Sync + PartialEq + Debug + 'static;

    /// Stable human-readable name (used in bench rows and diffcheck).
    const NAME: &'static str;

    /// Identity of `⊕` — the annihilator of `⊗`.
    const ZERO: Self::Elem;

    /// Identity of `⊗`.
    const ONE: Self::Elem;

    /// `a ⊕ b`.
    fn add(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// `a ⊗ b`.
    fn mul(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// The closure update `x ⊕ (u ⊗ v)`. Override only to fuse (the
    /// result must equal the default composition exactly).
    #[inline(always)]
    fn fma(x: Self::Elem, u: Self::Elem, v: Self::Elem) -> Self::Elem {
        Self::add(x, Self::mul(u, v))
    }
}

/// An algebra that additionally supports elimination updates
/// `x ← x ⊖ (u ⊗ w⁻¹ ⊗ v)` — a ring with a (partial) multiplicative
/// inverse.
pub trait EliminationAlgebra: UpdateAlgebra {
    /// `a ⊖ b`, the inverse of `⊕`.
    fn sub(a: Self::Elem, b: Self::Elem) -> Self::Elem;

    /// Multiplicative inverse, `None` for non-units (e.g. `0`, or a
    /// singular [`Gf2x64`] block).
    fn inv(a: Self::Elem) -> Option<Self::Elem>;

    /// The pivot multiplier map `u ↦ u ⊗ w⁻¹` of the pivot `w`: the one
    /// place an algebra fixes how elimination divides. A kernel builds it
    /// once per `k` and applies it once per `(k, i)`; by default it
    /// inverts `w` once and multiplies by `w⁻¹` from the right.
    ///
    /// # Panics
    /// Panics when `w` is not invertible. Exact algebras have no analogue
    /// of IEEE `inf`/`NaN` to absorb a singular pivot, so (as in the
    /// paper) inputs must have nonsingular leading principal minors.
    #[inline(always)]
    fn multiplier(w: Self::Elem) -> impl Fn(Self::Elem) -> Self::Elem {
        let winv = Self::inv(w).expect("elimination pivot is not invertible");
        move |u| Self::mul(u, winv)
    }

    /// The elimination update `x ⊖ (u ⊗ w⁻¹) ⊗ v`, built from
    /// [`multiplier`](Self::multiplier) so that the per-cell update and
    /// the hoisted tile kernels round alike.
    ///
    /// The multiplication order is load-bearing for noncommutative
    /// algebras ([`Gf2x64`]): the multiplier `u ⊗ w⁻¹` acts from the
    /// left on the pivot row element `v`.
    ///
    /// # Panics
    /// As [`multiplier`](Self::multiplier).
    #[inline(always)]
    fn eliminate(x: Self::Elem, u: Self::Elem, v: Self::Elem, w: Self::Elem) -> Self::Elem {
        Self::sub(x, Self::mul(Self::multiplier(w)(u), v))
    }
}

// ---------------------------------------------------------------------------
// Numeric algebras
// ---------------------------------------------------------------------------

/// Ordinary `(f64, +, ×)` — the algebra of Gaussian elimination
/// (`x − (u / w)·v`, see [`EliminationAlgebra::multiplier`]) and real
/// matrix multiplication.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlusTimesF64;

impl UpdateAlgebra for PlusTimesF64 {
    type Elem = f64;
    const NAME: &'static str = "plus-times-f64";
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        a + b
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a * b
    }
}

impl EliminationAlgebra for PlusTimesF64 {
    #[inline(always)]
    fn sub(a: f64, b: f64) -> f64 {
        a - b
    }
    #[inline(always)]
    fn inv(a: f64) -> Option<f64> {
        (a != 0.0).then(|| 1.0 / a)
    }
    /// `u / w`, a division rather than a product with `1 / w`, so every
    /// f64 elimination — the G oracle, the scalar tile kernel and every
    /// `gep-kernels` GE kernel — computes `x - (u / w) * v`. A zero pivot
    /// gives IEEE `inf`/`NaN` instead of a panic.
    #[inline(always)]
    fn multiplier(w: f64) -> impl Fn(f64) -> f64 {
        move |u| u / w
    }
}

/// The tropical semiring `(i64 ∪ {∞}, min, +)` with `∞ =`
/// [`TROPICAL_INF`]: distance products and Floyd–Warshall APSP.
///
/// `⊗` (weight addition) saturates and is **absorbing at the sentinel**:
/// if either operand is `≥ TROPICAL_INF` the result is exactly
/// `TROPICAL_INF`. This is the fix for the historical `Weight::wadd`
/// bug, where `INFINITY + negative_weight < INFINITY` let a missing edge
/// win a relaxation and large finite weights could wrap `i64`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlusI64;

impl UpdateAlgebra for MinPlusI64 {
    type Elem = i64;
    const NAME: &'static str = "min-plus-i64";
    const ZERO: i64 = TROPICAL_INF;
    const ONE: i64 = 0;
    /// `min`, biased to the current value on ties (`b < a` picks `b`) —
    /// the comparison order every FW kernel in the workspace uses.
    #[inline(always)]
    fn add(a: i64, b: i64) -> i64 {
        if b < a {
            b
        } else {
            a
        }
    }
    #[inline(always)]
    fn mul(a: i64, b: i64) -> i64 {
        if a >= TROPICAL_INF || b >= TROPICAL_INF {
            TROPICAL_INF
        } else {
            a.saturating_add(b).min(TROPICAL_INF)
        }
    }
}

/// The tropical semiring over `f64`, with IEEE `+∞` as the sentinel
/// (where absorption is native: `∞ + w = ∞`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MinPlusF64;

impl UpdateAlgebra for MinPlusF64 {
    type Elem = f64;
    const NAME: &'static str = "min-plus-f64";
    const ZERO: f64 = f64::INFINITY;
    const ONE: f64 = 0.0;
    #[inline(always)]
    fn add(a: f64, b: f64) -> f64 {
        if b < a {
            b
        } else {
            a
        }
    }
    #[inline(always)]
    fn mul(a: f64, b: f64) -> f64 {
        a + b
    }
}

/// The bottleneck semiring `(i64, max, min)`: maximum-capacity
/// (widest-path) closures. `ZERO = i64::MIN` ("no path"),
/// `ONE = i64::MAX` (an unconstrained hop).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxMinI64;

impl UpdateAlgebra for MaxMinI64 {
    type Elem = i64;
    const NAME: &'static str = "max-min-i64";
    const ZERO: i64 = i64::MIN;
    const ONE: i64 = i64::MAX;
    /// `max`, biased to the current value on ties (`b > a` picks `b`).
    #[inline(always)]
    fn add(a: i64, b: i64) -> i64 {
        if b > a {
            b
        } else {
            a
        }
    }
    #[inline(always)]
    fn mul(a: i64, b: i64) -> i64 {
        a.min(b)
    }
}

/// The boolean semiring `({0,1}, ∨, ∧)`: reachability / transitive
/// closure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OrAndBool;

impl UpdateAlgebra for OrAndBool {
    type Elem = bool;
    const NAME: &'static str = "or-and-bool";
    const ZERO: bool = false;
    const ONE: bool = true;
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a || b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a && b
    }
}

// ---------------------------------------------------------------------------
// Finite fields
// ---------------------------------------------------------------------------

/// The two-element field GF(2) with one bit per `bool`: `⊕ = xor`,
/// `⊗ = and`. Every nonzero element is its own inverse, so elimination
/// needs no division at all.
///
/// This is the *scalar* GF(2) algebra — the bit-parallel production
/// variant is [`Gf2x64`], and this one serves as its independently
/// implemented oracle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gf2;

impl UpdateAlgebra for Gf2 {
    type Elem = bool;
    const NAME: &'static str = "gf2-scalar";
    const ZERO: bool = false;
    const ONE: bool = true;
    #[inline(always)]
    fn add(a: bool, b: bool) -> bool {
        a ^ b
    }
    #[inline(always)]
    fn mul(a: bool, b: bool) -> bool {
        a & b
    }
}

impl EliminationAlgebra for Gf2 {
    #[inline(always)]
    fn sub(a: bool, b: bool) -> bool {
        a ^ b
    }
    #[inline(always)]
    fn inv(a: bool) -> Option<bool> {
        a.then_some(true)
    }
}

/// A dense 64×64 bit matrix over GF(2): row `r` is the `u64` `self.0[r]`,
/// bit `c` (LSB-first) is the entry at `(r, c)`.
///
/// This is the element type of [`Gf2x64`] — a *block* of a large GF(2)
/// matrix, packing 64 columns per word so that the elimination inner
/// loop retires 64 field-ops per `xor`/`and` instruction.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Gf2Block(pub [u64; 64]);

impl Gf2Block {
    /// The zero block.
    pub const ZERO: Gf2Block = Gf2Block([0u64; 64]);

    /// The identity block `I₆₄`.
    pub const IDENTITY: Gf2Block = {
        let mut rows = [0u64; 64];
        let mut r = 0;
        while r < 64 {
            rows[r] = 1u64 << r;
            r += 1;
        }
        Gf2Block(rows)
    };

    /// Bit at `(r, c)`.
    #[inline(always)]
    pub fn get(&self, r: usize, c: usize) -> bool {
        (self.0[r] >> c) & 1 == 1
    }

    /// Sets bit `(r, c)` to `v`.
    #[inline(always)]
    pub fn set(&mut self, r: usize, c: usize, v: bool) {
        let mask = 1u64 << c;
        if v {
            self.0[r] |= mask;
        } else {
            self.0[r] &= !mask;
        }
    }

    /// Bitsliced GF(2) matrix product `self · rhs`.
    ///
    /// Row `r` of the product is `⊕_{k : self[r,k]=1} rhs[k]` — the inner
    /// loop broadcasts bit `k` of the left row to a full-word mask
    /// (`wrapping_neg` of the extracted bit) and accumulates with
    /// `xor`/`and` only, 64 columns at a time.
    #[inline]
    pub fn mul(&self, rhs: &Gf2Block) -> Gf2Block {
        let mut out = [0u64; 64];
        for (o, &arow) in out.iter_mut().zip(self.0.iter()) {
            let mut acc = 0u64;
            let mut bits = arow;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                acc ^= rhs.0[k];
            }
            *o = acc;
        }
        Gf2Block(out)
    }

    /// `self ^= rhs` (GF(2) addition and subtraction alike).
    #[inline(always)]
    pub fn xor_assign(&mut self, rhs: &Gf2Block) {
        for (a, b) in self.0.iter_mut().zip(rhs.0.iter()) {
            *a ^= b;
        }
    }

    /// Inverse over GF(2) by bit-parallel Gauss–Jordan with partial
    /// pivoting (row swaps), `None` if the block is singular.
    pub fn inverse(&self) -> Option<Gf2Block> {
        let mut a = self.0;
        let mut inv = Gf2Block::IDENTITY.0;
        for col in 0..64 {
            let pivot = (col..64).find(|&r| (a[r] >> col) & 1 == 1)?;
            a.swap(col, pivot);
            inv.swap(col, pivot);
            let (arow, irow) = (a[col], inv[col]);
            for r in 0..64 {
                if r != col && (a[r] >> col) & 1 == 1 {
                    a[r] ^= arow;
                    inv[r] ^= irow;
                }
            }
        }
        Some(Gf2Block(inv))
    }
}

impl Default for Gf2Block {
    fn default() -> Self {
        Gf2Block::ZERO
    }
}

impl Debug for Gf2Block {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Full 64×64 dumps drown diffcheck reports; show a recognisable
        // fingerprint instead.
        let pop: u32 = self.0.iter().map(|r| r.count_ones()).sum();
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for &r in &self.0 {
            hash = (hash ^ r).wrapping_mul(0x0000_0100_0000_01B3);
        }
        write!(f, "Gf2Block{{pop={pop}, fp={hash:016x}}}")
    }
}

/// The ring of 64×64 GF(2) matrices, bitsliced: the element is a
/// [`Gf2Block`] and a large GF(2) matrix of bit dimension `64n` is an
/// `n × n` GEP matrix of blocks.
///
/// Block-level elimination computes the leading-block Schur complements:
/// after step `k`, the strictly-trailing blocks hold
/// `X − U·W⁻¹·V` exactly as bit-level GE would leave the trailing
/// submatrix (nonsingular leading blocks required). `⊗` is matrix
/// multiplication — associative but **not commutative**, which is why
/// [`EliminationAlgebra::eliminate`] fixes the multiplication order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Gf2x64;

impl UpdateAlgebra for Gf2x64 {
    type Elem = Gf2Block;
    const NAME: &'static str = "gf2-bitsliced";
    const ZERO: Gf2Block = Gf2Block::ZERO;
    const ONE: Gf2Block = Gf2Block::IDENTITY;
    #[inline(always)]
    fn add(mut a: Gf2Block, b: Gf2Block) -> Gf2Block {
        a.xor_assign(&b);
        a
    }
    #[inline(always)]
    fn mul(a: Gf2Block, b: Gf2Block) -> Gf2Block {
        a.mul(&b)
    }
}

impl EliminationAlgebra for Gf2x64 {
    #[inline(always)]
    fn sub(mut a: Gf2Block, b: Gf2Block) -> Gf2Block {
        a.xor_assign(&b);
        a
    }
    #[inline]
    fn inv(a: Gf2Block) -> Option<Gf2Block> {
        a.inverse()
    }
}

/// The prime field GF(p) for a const prime `p < 2³¹`, elements stored as
/// canonical `u64` residues in `[0, p)`.
///
/// Products use **Barrett reduction**: with `M = ⌊2⁶⁴ / p⌋` precomputed
/// at compile time, `t mod p ≈ t − ⌊t·M / 2⁶⁴⌋·p`, corrected by at most
/// two conditional subtractions — no runtime division anywhere on the
/// elimination path. Inverses use Fermat (`a^(p−2)`), which is fine at
/// one inverse per pivot. The `p < 2³¹` bound keeps `t = a·b < 2⁶²` so
/// the `u128` Barrett product cannot overflow.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GfP<const P: u64>;

impl<const P: u64> GfP<P> {
    /// `⌊2⁶⁴ / P⌋`, the Barrett constant.
    const M: u64 = ((1u128 << 64) / P as u128) as u64;

    const GUARDS: () = {
        assert!(P >= 2, "GfP modulus must be at least 2");
        assert!(P < 1 << 31, "GfP requires p < 2^31");
        // Cheap compositeness guard for accidental small-factor moduli;
        // primality proper is the instantiator's contract.
        assert!(P == 2 || P % 2 == 1, "GfP modulus must be prime");
        assert!(P <= 3 || P % 3 != 0, "GfP modulus must be prime");
    };

    /// `t mod P` by Barrett reduction (`t < P²`, which `a·b` of two
    /// canonical residues guarantees).
    #[inline(always)]
    pub fn barrett(t: u64) -> u64 {
        let () = Self::GUARDS; // forces the compile-time modulus checks
        let q = ((t as u128 * Self::M as u128) >> 64) as u64;
        let mut r = t - q * P;
        while r >= P {
            r -= P;
        }
        r
    }

    /// Canonicalises an arbitrary `u64` into `[0, P)`.
    #[inline(always)]
    pub fn canon(x: u64) -> u64 {
        x % P
    }

    /// `a^e mod P` by square-and-multiply.
    pub fn pow(mut a: u64, mut e: u64) -> u64 {
        let mut acc = 1u64;
        while e > 0 {
            if e & 1 == 1 {
                acc = Self::barrett(acc * a);
            }
            a = Self::barrett(a * a);
            e >>= 1;
        }
        acc
    }
}

impl<const P: u64> UpdateAlgebra for GfP<P> {
    type Elem = u64;
    const NAME: &'static str = "gf-p";
    const ZERO: u64 = 0;
    const ONE: u64 = 1;
    #[inline(always)]
    fn add(a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= P {
            s - P
        } else {
            s
        }
    }
    #[inline(always)]
    fn mul(a: u64, b: u64) -> u64 {
        Self::barrett(a * b)
    }
}

impl<const P: u64> EliminationAlgebra for GfP<P> {
    #[inline(always)]
    fn sub(a: u64, b: u64) -> u64 {
        if a >= b {
            a - b
        } else {
            a + P - b
        }
    }
    #[inline(always)]
    fn inv(a: u64) -> Option<u64> {
        (a != 0).then(|| Self::pow(a, P - 2))
    }
}

/// GF(p) for the Mersenne prime `2³¹ − 1` — the workhorse prime-field
/// instantiation used by the benches and differential suites.
pub type GfMersenne31 = GfP<2_147_483_647>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tropical_sentinel_is_absorbing_and_saturating() {
        assert_eq!(MinPlusI64::mul(TROPICAL_INF, -5), TROPICAL_INF);
        assert_eq!(MinPlusI64::mul(-5, TROPICAL_INF), TROPICAL_INF);
        assert_eq!(MinPlusI64::mul(TROPICAL_INF, TROPICAL_INF), TROPICAL_INF);
        // Large finite weights saturate at the sentinel instead of
        // wrapping (the historical `wadd` bug).
        assert_eq!(
            MinPlusI64::mul(i64::MAX / 4 - 1, i64::MAX / 4 - 1),
            TROPICAL_INF
        );
        assert_eq!(MinPlusI64::mul(3, 4), 7);
        assert_eq!(MinPlusI64::fma(10, 3, 4), 7);
        assert_eq!(MinPlusI64::fma(5, 3, 4), 5);
    }

    #[test]
    fn gf2_block_identity_and_inverse() {
        let id = Gf2Block::IDENTITY;
        assert_eq!(id.mul(&id), id);
        assert!(id.get(17, 17) && !id.get(17, 18));

        // A unit upper-triangular block (row r = e_r plus random bits
        // strictly above the diagonal) is always invertible.
        let mut u = Gf2Block::IDENTITY;
        let mut s = 0x1234_5678_9abc_def0u64;
        for r in 0..63 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            u.0[r] |= s & !(((1u128 << (r + 1)) - 1) as u64);
        }
        let uinv = u.inverse().expect("unit triangular block is invertible");
        assert_eq!(u.mul(&uinv), Gf2Block::IDENTITY);
        assert_eq!(uinv.mul(&u), Gf2Block::IDENTITY);

        // Singular: a zero row.
        let mut z = Gf2Block::IDENTITY;
        z.0[5] = 0;
        assert!(z.inverse().is_none());
    }

    #[test]
    fn gf2_block_mul_matches_scalar_definition() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let a = Gf2Block(std::array::from_fn(|_| rnd()));
        let b = Gf2Block(std::array::from_fn(|_| rnd()));
        let c = a.mul(&b);
        for r in (0..64).step_by(7) {
            for col in (0..64).step_by(5) {
                let mut bit = false;
                for k in 0..64 {
                    bit ^= a.get(r, k) & b.get(k, col);
                }
                assert_eq!(c.get(r, col), bit, "mismatch at ({r}, {col})");
            }
        }
    }

    #[test]
    fn gfp_barrett_matches_modulo() {
        type F = GfMersenne31;
        const P: u64 = 2_147_483_647;
        let mut s = 1u64;
        for _ in 0..10_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let a = s % P;
            let b = (s >> 17) % P;
            assert_eq!(F::mul(a, b), (a as u128 * b as u128 % P as u128) as u64);
            assert_eq!(F::add(a, b), ((a + b) % P));
            assert_eq!(F::sub(a, b), ((a + P - b) % P));
        }
        assert_eq!(F::inv(0), None);
        for a in [1u64, 2, 12345, P - 1] {
            let ai = F::inv(a).unwrap();
            assert_eq!(F::mul(a, ai), 1, "inv({a})");
        }
    }

    #[test]
    fn gfp_small_prime_barrett() {
        type F7 = GfP<7>;
        for a in 0..7u64 {
            for b in 0..7u64 {
                assert_eq!(F7::mul(a, b), a * b % 7);
            }
            if a != 0 {
                assert_eq!(F7::mul(a, F7::inv(a).unwrap()), 1);
            }
        }
    }

    #[test]
    fn eliminate_order_is_left_to_right() {
        // Over GF(2) blocks, u·w⁻¹·v ≠ any other association in general;
        // pin the order with a scalar-checkable instance: permutation
        // blocks, where order changes the result visibly.
        let mut p1 = Gf2Block::ZERO; // cyclic shift by 1
        let mut p2 = Gf2Block::ZERO; // swap rows 0,1
        for r in 0..64 {
            p1.set(r, (r + 1) % 64, true);
            p2.set(r, r, true);
        }
        p2.set(0, 0, false);
        p2.set(1, 1, false);
        p2.set(0, 1, true);
        p2.set(1, 0, true);
        let x = Gf2Block::ZERO;
        let got = Gf2x64::eliminate(x, p1, p2, Gf2Block::IDENTITY);
        // x − p1·I⁻¹·p2 = p1·p2 (xor with zero): compare against the
        // explicitly-ordered product.
        assert_eq!(got, p1.mul(&p2));
        assert_ne!(p1.mul(&p2), p2.mul(&p1), "test needs noncommuting blocks");
    }
}
