#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

/**
 * @file
 * Independent checks of the program's outputs, written without any of
 * the library's interpreters: direct reference kernels for 2D
 * convolution, matrix product and the Hamilton product; property
 * checks for QR; and a small evaluator of the vector DSL that tests
 * both sides of a synthesized rule on seeded random inputs.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/harness.h"
#include "synth/ruleset.h"

namespace perfbench
{

/** Relative tolerance of every output comparison. */
inline constexpr double kOracleTolerance = 1e-9;

/** Named input arrays of one kernel instance. */
using ArrayMap = std::vector<std::pair<std::string, std::vector<double>>>;

/**
 * Checks @p outputs (all output arrays of the kernel, concatenated in
 * declaration order) for @p spec on @p inputs. Returns an empty string
 * when correct, otherwise what went wrong.
 */
std::string checkKernelOutputs(const isaria::KernelSpec &spec,
                               const ArrayMap &inputs,
                               const std::vector<double> &outputs);

/** Result of testing one rule on random inputs. */
struct RuleCheck
{
    bool sound = true;
    std::string counterexample;
};

/**
 * Evaluates both sides of @p rule on @p samples environments drawn
 * from @p seed, plus a fixed set of edge-value environments (zeros,
 * ones, negatives) that do not depend on the seed. Vector wildcards
 * get @p width lanes unless the rule's Vec literals say otherwise.
 * Semantics: x/0 = 0, sqrt of a negative is undefined (the lane is
 * skipped), sgn in {-1, 0, 1}, vector operators lane by lane.
 */
RuleCheck checkRule(const isaria::Rule &rule, int width, std::uint64_t seed,
                    int samples);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
