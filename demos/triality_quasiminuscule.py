"""Walk through the headline example: the triality-twisted quasi-minuscule orbit.

Folding D4 by its order-3 diagram rotation leaves a G2 relative system.  The
quasi-minuscule coweight is the short dominant coroot; its orbit closure has
a single positive-dimensional boundary stratum, and the root-curve count
alone already fills the tangent space.  The extra Cartan direction then tips
the bound over the dimension and certifies the singularity.
"""

from affsch.loopalg import cartan_direction
from affsch.rootsys import Coweight, short_dominant_coroot, two_rho_pairing
from affsch.schubert import (
    certificate,
    k_vector,
    root_tangent_bound,
    smooth_locus_report,
)
from affsch.twist import cartan_sigma_dim, twisted_datum


def main() -> None:
    datum = twisted_datum("3D4")
    sigma = datum.echelonnage
    print(f"datum {datum.label}: absolute {datum.absolute.label}, relative {sigma.label}")
    print(f"simple images in the absolute system: {datum.sigma_simple_images}")

    qm = short_dominant_coroot(sigma)
    mu = Coweight(sigma, qm.pairings)
    print(f"\nquasi-minuscule coweight: coefficients {qm.coefficients}, pairings {mu.pairings}")
    print(f"closure dimension <mu, 2rho> = {two_rho_pairing(mu)}")

    zero = Coweight(sigma, (0,) * sigma.rank)
    kv = k_vector(zero, mu)
    print("\nroot curve bounds k_alpha at the zero stratum:")
    for root, value in kv.entries:
        if value:
            print(f"  alpha = {root}: k = {value}")
    print(f"total over all roots: {root_tangent_bound(zero, mu)}")

    # The count matches the dimension exactly, so smoothness hinges on
    # whether any extra tangent direction exists in the Cartan part.
    print(f"\nsigma-fixed Cartan dimension at u-degree -1: {cartan_sigma_dim(datum, 1)}")
    line = cartan_direction(datum, ((0, 1), -1))
    print("the loop construction exhibits it explicitly:")
    for (kind, index), degree, coeff in line.terms:
        scalar = str(coeff.a) if coeff.b == 0 else f"{coeff.a}+({coeff.b})z"
        print(f"  {scalar} * {kind}{index} u^{degree}")

    cert = certificate(mu, zero, datum)
    print(
        f"\ncertificate: {cert.root_bound} root directions + {cert.cartan_extra} Cartan"
        f" >= {cert.dim} + 1, verdict {cert.verdict}"
    )

    report = smooth_locus_report(mu, datum)
    print("\nfull closure report:")
    for stratum in report.strata:
        print(f"  {stratum.lam.pairings}: {stratum.status} ({stratum.mechanism})")


if __name__ == "__main__":
    main()
