//! Order-preserving f64 kernels compiled for two tiers from one body.
//!
//! [`avx2_tiered!`] turns an `#[inline(always)]` body into a function that
//! runs a copy of it compiled with AVX2 enabled when [`kernel_tier`]
//! reports an AVX2 host, and the plain copy otherwise (always under
//! `PHOTON_KERNEL=scalar`). The bodies are ordinary Rust with no
//! intrinsics: the wider target only lets the compiler put more
//! *independent* entries in one vector register. Rust never reassociates
//! float sums nor contracts a multiply and an add into an FMA, so both
//! copies produce the same bits.
//!
//! [`kernel_tier`]: crate::kernel_tier

/// Defines `$vis fn $name(args) -> ret` that calls `$body(args)`, compiled
/// with AVX2 enabled on hosts whose [`crate::kernel_tier`] is AVX2 and
/// plain everywhere else.
macro_rules! avx2_tiered {
    ($(#[$meta:meta])* $vis:vis fn $name:ident($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? = $body:path;) => {
        $(#[$meta])*
        $vis fn $name($($arg: $ty),*) $(-> $ret)? {
            /// The plain build of the body, kept out of line so that the
            /// dispatch does not change how it is optimized.
            #[inline(never)]
            fn plain($($arg: $ty),*) $(-> $ret)? {
                $body($($arg),*)
            }
            #[cfg(target_arch = "x86_64")]
            {
                /// The AVX2 build of the body.
                ///
                /// # Safety
                ///
                /// The CPU must support AVX2.
                #[target_feature(enable = "avx2")]
                unsafe fn avx2($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if $crate::kernel_tier() == $crate::KernelTier::Avx2Fma {
                    // SAFETY: `kernel_tier()` reports `Avx2Fma` only after
                    // `is_x86_feature_detected!("avx2")` held at runtime.
                    return unsafe { avx2($($arg),*) };
                }
            }
            plain($($arg),*)
        }
    };
}

pub(crate) use avx2_tiered;

/// Lanes of one register tile, and the width of a transposed panel.
pub(crate) const LANES: usize = 8;

/// Packs `height ≤ LANES` rows of `src` (row stride `stride`, first `len`
/// entries each) transposed into `panel`: lane `q` of panel row `k` is
/// `src[q·stride + k]`, and lanes past `height` are zero.
#[inline(always)]
pub(crate) fn pack_transposed(
    src: &[f64],
    stride: usize,
    len: usize,
    height: usize,
    panel: &mut Vec<f64>,
) {
    debug_assert!(height <= LANES);
    panel.clear();
    panel.resize(len * LANES, 0.0);
    for q in 0..height {
        let row = &src[q * stride..q * stride + len];
        for (lanes, &x) in panel.chunks_exact_mut(LANES).zip(row) {
            lanes[q] = x;
        }
    }
}

/// An `R × LANES` register tile over a packed panel: for `k` ascending,
/// `acc[r][q] += rows[r][k] · panel[k][q]` (or `−=` when `SUB`). Every
/// entry keeps its own running sum and takes its terms in `k` order, so
/// the lanes only run across independent entries.
#[inline(always)]
pub(crate) fn tile<const R: usize, const SUB: bool>(
    rows: [&[f64]; R],
    panel: &[f64],
    mut acc: [[f64; LANES]; R],
) -> [[f64; LANES]; R] {
    let len = panel.len() / LANES;
    let rows = rows.map(|row| &row[..len]);
    for (k, p) in panel.chunks_exact(LANES).enumerate() {
        let p: &[f64; LANES] = p.try_into().expect("chunks_exact yields LANES-wide rows");
        for r in 0..R {
            let x = rows[r][k];
            for q in 0..LANES {
                if SUB {
                    acc[r][q] -= x * p[q];
                } else {
                    acc[r][q] += x * p[q];
                }
            }
        }
    }
    acc
}
