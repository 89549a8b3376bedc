#include "interconnect/terminal_space.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace sitam {

TerminalSpace::TerminalSpace(const Soc& soc) {
  first_.reserve(soc.modules.size() + 1);
  first_.push_back(0);
  for (const Module& m : soc.modules) {
    first_.push_back(first_.back() + m.woc());
  }
  total_ = first_.back();
  core_of_.reserve(static_cast<std::size_t>(std::max(0, total_)));
  for (std::size_t core = 0; core + 1 < first_.size(); ++core) {
    core_of_.insert(core_of_.end(),
                    static_cast<std::size_t>(
                        std::max(0, first_[core + 1] - first_[core])),
                    static_cast<int>(core));
  }
}

int TerminalSpace::core_of(int terminal) const {
  if (terminal < 0 || terminal >= total_) {
    throw std::out_of_range("TerminalSpace::core_of: bad terminal id " +
                            std::to_string(terminal));
  }
  return core_of_[static_cast<std::size_t>(terminal)];
}

int TerminalSpace::bit_of(int terminal) const {
  const int core = core_of(terminal);
  return terminal - first_[static_cast<std::size_t>(core)];
}

int TerminalSpace::first_terminal(int core) const {
  if (core < 0 || core >= core_count()) {
    throw std::out_of_range("TerminalSpace::first_terminal: bad core " +
                            std::to_string(core));
  }
  return first_[static_cast<std::size_t>(core)];
}

int TerminalSpace::woc(int core) const {
  if (core < 0 || core >= core_count()) {
    throw std::out_of_range("TerminalSpace::woc: bad core " +
                            std::to_string(core));
  }
  return first_[static_cast<std::size_t>(core) + 1] -
         first_[static_cast<std::size_t>(core)];
}

int TerminalSpace::terminal(int core, int bit) const {
  if (bit < 0 || bit >= woc(core)) {
    throw std::out_of_range("TerminalSpace::terminal: bad bit " +
                            std::to_string(bit) + " for core " +
                            std::to_string(core));
  }
  return first_[static_cast<std::size_t>(core)] + bit;
}

}  // namespace sitam
