/**
 * @file
 * Factory building the right timing core for a SimConfig.
 */

#ifndef NDASIM_CORE_CORE_FACTORY_HH
#define NDASIM_CORE_CORE_FACTORY_HH

#include <memory>

#include "core/core_base.hh"
#include "core/core_config.hh"
#include "isa/program.hh"

namespace nda {

/** Build a core for `cfg` running `prog` (copied as the core
 *  constructors describe; `prog` need not outlive the core). */
std::unique_ptr<CoreBase> makeCore(const Program &prog,
                                   const SimConfig &cfg);

} // namespace nda

#endif // NDASIM_CORE_CORE_FACTORY_HH
