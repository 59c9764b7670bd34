//! The CapsNet layer zoo: convolution, PrimaryCaps and the routed Caps
//! layer.

mod caps;
mod conv;
mod primary;

pub use caps::CapsLayer;
pub use conv::{Activation, Conv2dLayer};
pub use primary::PrimaryCapsLayer;
