#include "dlm/lock_manager.hpp"

#include "dlm/dqnl.hpp"
#include "dlm/ncosed.hpp"
#include "dlm/srsl.hpp"

namespace dcs::dlm {

const char* to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kSrsl: return "SRSL";
    case Scheme::kDqnl: return "DQNL";
    case Scheme::kNcosed: return "N-CoSED";
  }
  return "?";
}

std::unique_ptr<LockManager> make_lock_manager(Scheme scheme,
                                               verbs::Network& net,
                                               NodeId home) {
  switch (scheme) {
    case Scheme::kSrsl: {
      auto srsl = std::make_unique<SrslLockManager>(net, home);
      srsl->start();
      return srsl;
    }
    case Scheme::kDqnl: return std::make_unique<DqnlLockManager>(net, home);
    case Scheme::kNcosed: return std::make_unique<NcosedLockManager>(net, home);
  }
  return nullptr;
}

}  // namespace dcs::dlm
