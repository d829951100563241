//! Generated inputs: every graph, coloring and job seed derives from the
//! workload seed, so the same `--seed` gives the same inputs.

use crate::catalog::Scale;
use fascia_core::coloring::splitmix64;
use fascia_graph::components::largest_component;
use fascia_graph::{gen, Dataset, Graph};
use fascia_template::{NamedTemplate, Template};

/// Portland is generated at 1/64 of paper size: about 32.7k vertices and
/// 488k edges, dense and flat.
const PORTLAND_SCALE: usize = 64;

/// An independent seed for input stream `stream` of workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The Enron stand-in (Barabási–Albert, 33.7k vertices, degree-skewed),
/// largest connected component.
pub fn enron(scale: Scale, seed: u64) -> Graph {
    match scale {
        Scale::Full => Dataset::Enron.generate(1, seed),
        Scale::Toy => largest_component(&gen::barabasi_albert(600, 5, 3_000, seed)).0,
    }
}

/// The Portland stand-in (R-MAT), largest connected component.
pub fn portland(scale: Scale, seed: u64) -> Graph {
    let divisor = match scale {
        Scale::Full => PORTLAND_SCALE,
        Scale::Toy => 8_192,
    };
    Dataset::Portland.generate(divisor, seed)
}

/// A Figure 2 template by name.
pub fn template(name: &str) -> Template {
    NamedTemplate::by_name(name)
        .unwrap_or_else(|| panic!("{name} is a Figure 2 template"))
        .template()
}
