/**
 * @file
 * Device-variation model for the fault-injection subsystem.
 *
 * Fabrication and aging perturb every device the power topologies rely
 * on: evanescent splitter ratios land off their designed fraction,
 * coupler and waveguide losses skew die-to-die, QD LED output droops
 * with temperature and age, and detector sensitivity (mIOP) shifts.
 * A VariationSpec gives the sigma of each effect; drawVariation() turns
 * a spec into one concrete seeded Monte Carlo draw that the yield
 * analyzer replays through the splitter-chain and link-budget models.
 *
 * All draws are deterministic functions of the Prng stream: the same
 * seed always produces the same sequence of draws, and the number of
 * variates consumed is independent of the sigma values, so two specs
 * that differ only in magnitude see the *same* underlying unit draws
 * scaled differently (which is what makes tolerance sweeps and the
 * yield-monotonicity property well behaved).
 */

#ifndef MNOC_FAULTS_VARIATION_HH
#define MNOC_FAULTS_VARIATION_HH

#include <vector>

#include "common/prng.hh"
#include "optics/device_params.hh"

namespace mnoc::faults {

/**
 * Standard deviations of the modeled device variations.  Defaults are
 * deliberately conservative molecular-photonics numbers: a couple of
 * percent on splitter ratios, tenths of a dB on losses, a few percent
 * of LED droop.
 */
struct VariationSpec
{
    /** Relative sigma of each splitter's diverted fraction. */
    double splitterSigma = 0.02;
    /** Sigma of the per-die coupler loss skew. */
    DecibelLoss couplerSigma{0.1};
    /** Sigma of the per-die waveguide loss skew, per cm. */
    DecibelLoss waveguideSigmaPerCm{0.05};
    /** Sigma of the per-die splitter insertion-loss skew. */
    DecibelLoss splitterInsertionSigma{0.02};
    /** Relative sigma of QD LED output droop (one-sided: a drooping
     *  LED only ever emits less than its drive point). */
    double ledDroopSigma = 0.03;
    /** Sigma of the detector sensitivity shift, in dB of mIOP. */
    DecibelLoss miopSigma{0.2};

    /** A copy with every sigma multiplied by @p factor (tolerance
     *  sweeps: factor < 1 is a tighter process). */
    VariationSpec scaled(double factor) const;

    /** Fatal on negative sigmas. */
    void validate() const;
};

/**
 * One concrete Monte Carlo draw over a whole crossbar: the globally
 * skewed device parameters plus per-waveguide, per-node splitter-ratio
 * scales and per-source LED output scales.
 */
struct DeviceVariation
{
    /** Nominal parameters with the per-die loss/mIOP skews applied. */
    optics::DeviceParams params;
    /** splitterScale[s][j]: multiplicative error of node j's split
     *  ratio S/(1-S) on source s's waveguide (the entry at j == s
     *  perturbs the source's own directional splitter); applied by
     *  SegmentTable::evaluate. */
    std::vector<std::vector<double>> splitterScale;
    /** ledOutputScale[s]: source s's LED output relative to its drive
     *  point, in (0, 1] (droop only reduces output). */
    std::vector<double> ledOutputScale;
};

/**
 * Standard-normal variate via Box-Muller on the Prng's uniforms.
 * Implemented here (rather than std::normal_distribution) so that
 * draws are bit-identical across standard libraries; consumes exactly
 * two uniforms per call.
 */
double gaussian(Prng &prng);

/**
 * Draw one crossbar-wide variation for @p num_nodes nodes.  Consumes a
 * spec-independent number of variates from @p prng.
 */
DeviceVariation drawVariation(const VariationSpec &spec,
                              const optics::DeviceParams &nominal,
                              int num_nodes, Prng &prng);

} // namespace mnoc::faults

#endif // MNOC_FAULTS_VARIATION_HH
