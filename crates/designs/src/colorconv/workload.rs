//! ColorConv workloads: the pixel streams driven through all three models.

use tinyrng::TinyRng;

use super::core::ColorConvCore;
use crate::cycle::Request;
use crate::Workload;

/// One RGB pixel request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pixel {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Request for Pixel {
    type Core = ColorConvCore;
}

/// A stream of pixels, one every 10 clock cycles by default.
pub type ConvWorkload = Workload<Pixel>;

fn random_pixel(rng: &mut TinyRng) -> Pixel {
    Pixel {
        r: rng.next_u8(),
        g: rng.next_u8(),
        b: rng.next_u8(),
    }
}

/// The `i`-th pixel of [`ConvWorkload::mixed`].
pub(crate) fn mixed_pixel(rng: &mut TinyRng, i: usize) -> Pixel {
    let px = random_pixel(rng);
    if !i.is_multiple_of(6) {
        return px;
    }
    match (i / 6) % 3 {
        0 => Pixel { r: 0, g: 0, b: 0 },
        1 => Pixel {
            r: 255,
            g: 255,
            b: 255,
        },
        _ => Pixel { r: 0, g: 255, b: 0 },
    }
}

impl Workload<Pixel> {
    /// `count` random pixels from a seeded RNG.
    ///
    /// # Panics
    ///
    /// Panics if `count` pixels cannot be built
    /// ([`BuildError::WorkloadTooLarge`](crate::BuildError::WorkloadTooLarge)).
    #[must_use]
    pub fn random(count: usize, seed: u64) -> ConvWorkload {
        Workload::draw(count, seed, |rng, _| random_pixel(rng))
    }

    /// Random pixels where every 6th is black, white or pure green in
    /// rotation, keeping properties `c2`, `c3` and `c12` non-vacuous.
    ///
    /// # Panics
    ///
    /// As [`random`](Self::random).
    #[must_use]
    pub fn mixed(count: usize, seed: u64) -> ConvWorkload {
        Workload::draw(count, seed, mixed_pixel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_arithmetic() {
        let w = ConvWorkload::random(4, 9);
        assert_eq!(w.request_edge(0), 2);
        assert_eq!(w.request_edge(3), 32);
        assert_eq!(w.request_time_ns(3), 320);
        assert_eq!(w.total_edges(), 44);
    }

    #[test]
    fn pixel_at_edge() {
        let w = ConvWorkload::new(vec![Pixel { r: 1, g: 2, b: 3 }]);
        assert_eq!(w.request_at_edge(2).unwrap().r, 1);
        assert_eq!(w.request_at_edge(3), None);
        assert_eq!(w.request_at_edge(12), None);
    }

    #[test]
    fn mixed_injects_anchor_pixels() {
        let w = ConvWorkload::mixed(20, 4);
        assert_eq!(w.requests[0], Pixel { r: 0, g: 0, b: 0 });
        assert_eq!(
            w.requests[6],
            Pixel {
                r: 255,
                g: 255,
                b: 255
            }
        );
        assert_eq!(w.requests[12], Pixel { r: 0, g: 255, b: 0 });
        assert_eq!(w.requests[18], Pixel { r: 0, g: 0, b: 0 });
    }

    #[test]
    fn deterministic_randomness() {
        assert_eq!(ConvWorkload::random(5, 1), ConvWorkload::random(5, 1));
    }
}
