#include "tam/bounds.h"

#include <algorithm>
#include <stdexcept>

#include "tam/evaluator.h"

namespace sitam {

LowerBounds lower_bounds(const Soc& soc, const TestTimeTable& table,
                         const SiTestSet& tests, int w_max) {
  if (w_max < 1) {
    throw std::invalid_argument("lower_bounds: w_max must be >= 1");
  }
  if (table.core_count() != soc.core_count()) {
    throw std::invalid_argument(
        "lower_bounds: TestTimeTable core count mismatches the SOC");
  }

  LowerBounds bounds;

  // InTest: (a) every core must finish even with all W wires to itself;
  // (b) the pipelined bit volume must flow through W wires.
  std::int64_t volume = 0;
  for (int c = 0; c < soc.core_count(); ++c) {
    bounds.t_in = std::max(bounds.t_in, table.intest(c, w_max));
    const Module& m = soc.modules[static_cast<std::size_t>(c)];
    volume += (m.scan_flops() +
               std::max<std::int64_t>(m.wic(), m.woc())) *
              m.patterns;
  }
  bounds.t_in = std::max(bounds.t_in, (volume + w_max - 1) / w_max);

  // SI: (a) per group, the bottleneck rail's shift. Every core shifts at
  // most W wide, so some rail needs at least max_c ceil(woc_c / W) cycles;
  // and the rails together are at most W wide while each must shift its
  // cores' whole boundary, so some rail needs at least
  // ceil(group_woc / W). (b) The groups' boundary bit volume must flow
  // through W wires.
  std::int64_t si_bits = 0;
  for (const SiTestGroup& group : tests.groups) {
    if (group.patterns <= 0) continue;
    std::int64_t best_shift = 0;
    std::int64_t group_woc = 0;
    for (const int core : group.cores) {
      best_shift = std::max(best_shift, table.woc_shift(core, w_max));
      group_woc += soc.modules[static_cast<std::size_t>(core)].woc();
    }
    best_shift = std::max(best_shift, (group_woc + w_max - 1) / w_max);
    const std::int64_t best_case =
        (group.patterns + 1) * best_shift + kSiApplyCycles * group.patterns;
    bounds.t_si = std::max(bounds.t_si, best_case);
    si_bits += (group.patterns + 1) * group_woc;
  }
  bounds.t_si =
      std::max(bounds.t_si, tests.groups.empty()
                                ? 0
                                : (si_bits + w_max - 1) / w_max);
  return bounds;
}

}  // namespace sitam
