//! EXT-F — the shielding study behind the paper's closing discussion:
//! "thermal neutrons flux can be effectively reduced, shielding the
//! device with thin layers of cadmium or some inches of boron plastic"
//! — and why neither is practical near an HPC device.

use tn_bench::{header, row};
use tn_physics::units::{Energy, Length};
use tn_physics::Material;
use tn_transport::AttenuationCurve;

fn regenerate() {
    header("EXT-F", "thermal shielding: cadmium vs borated polyethylene");
    let thermal = Energy(0.0253);
    let cd = AttenuationCurve::sweep(
        &Material::cadmium(),
        thermal,
        &[Length(0.01), Length(0.025), Length(0.05), Length(0.1)],
        8_000,
        1,
    );
    println!("cadmium sheet (thermal transmission):");
    for &(t, f) in &cd.points {
        println!("  {:>5.2} mm: {:.5}", 10.0 * t.value(), f);
    }
    let bpe = AttenuationCurve::sweep(
        &Material::borated_polyethylene(),
        thermal,
        &[
            Length(0.5),
            Length(1.0),
            Length::from_inches(1.0),
            Length::from_inches(2.0),
        ],
        8_000,
        2,
    );
    println!("borated polyethylene (thermal transmission):");
    for &(t, f) in &bpe.points {
        println!("  {:>5.2} cm: {:.5}", t.value(), f);
    }
    row(
        "99% reduction needs",
        "thin Cd / inches of B-plastic",
        &format!(
            "Cd {:.2} mm, BPE {:.1} cm",
            cd.thickness_for_reduction(0.99)
                .map_or(f64::NAN, |l| 10.0 * l.value()),
            bpe.thickness_for_reduction(0.99)
                .map_or(f64::NAN, |l| l.value())
        ),
    );

    // The catch: both shields are transparent to the fast field.
    let cd_fast = AttenuationCurve::sweep(
        &Material::cadmium(),
        Energy::from_mev(10.0),
        &[Length(0.1)],
        8_000,
        3,
    );
    row(
        "1 mm Cd vs 10 MeV neutrons",
        "transparent",
        &format!("transmission {:.3}", cd_fast.points[0].1),
    );
    println!(
        "\npracticality (paper): Cd is toxic and must not be heated; borated \
         plastic thermally insulates the very device it protects."
    );
}

fn main() {
    regenerate();
}
